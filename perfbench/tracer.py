"""Per-layer tracing from outside the package.

Each listed function is replaced, at every name through which the package
looks it up (module globals, class attributes, click command callbacks), by
a wrapper that records a span: name, start, end, parent span and op id.
Spans are folded into per-name totals as they close; only the first
``SAMPLE_SPANS`` are kept whole.  ``uninstall`` puts every original back.

Self time is a span's duration minus the time its child spans cover.  A
span whose parent has the same name (``PatientWithholdOvertake.decide``
calling ``WithholdOvertake.decide``) is not a new span.
"""

from __future__ import annotations

import functools
import gc
import math
import sys
import time
from collections import Counter
from types import ModuleType, SimpleNamespace
from typing import Callable, Optional

SAMPLE_SPANS = 200

# span name -> (module, attribute) of every function it covers
FUNCTIONS = {
    "blocktree.begin_round": [("blocktree", "begin_round")],
    "blocktree.validate_action": [("blocktree", "validate_action")],
    "blocktree.capitulate": [("blocktree", "capitulate")],
    "blocktree.potential_reward": [("blocktree", "potential_reward")],
    "blocktree.chain_path": [("blocktree", "chain_path")],
    "blocktree.on_chain": [("blocktree", "on_chain")],
    "strategies.run_game": [("strategies", "run_game")],
    "strategies.run_totals": [("strategies", "run_totals")],
    "structure.replay_trace": [("structure", "replay_trace")],
    "structure.checkpoints": [("structure", "checkpoints")],
    "structure.classifiers": [
        ("structure", f) for f in ("is_timeserving", "is_orderly", "is_lcm", "is_trimmed")
    ],
    "structure.classify_trace": [("structure", "classify_trace")],
    "structure.fork_ownership_check": [("structure", "fork_ownership_check")],
    "structure.checkpoint_override_check": [("structure", "checkpoint_override_check")],
    "analysis.mc_revenue_renewal": [("analysis", "mc_revenue_renewal")],
    "analysis.mc_value": [("analysis", "mc_value")],
    "analysis.mc_revenue_liminf": [("analysis", "mc_revenue_liminf")],
    "analysis.stake_dynamics": [("analysis", "stake_dynamics")],
    "analysis.growth_rate_check": [("analysis", "growth_rate_check")],
    "analysis.potential_reward_decay_check": [("analysis", "potential_reward_decay_check")],
}
# span name -> (module, class, method)
METHODS = {
    "strategies.Engine.play": [("strategies", "Engine", "play")],
    "strategies.decide": [
        ("strategies", c, "decide") for c in ("Frontier", "WithholdOvertake", "PatientWithholdOvertake")
    ],
    "reductions.decide": [
        ("reductions", c, "decide") for c in ("OrderlyReduction", "LcmStepReduction", "LcmReduction")
    ],
}
GENERATORS = {"strategies.iter_cycles": [("strategies", "iter_cycles")]}
CLI_SPAN = "cli.command"
DRIVERS = ("strategies.run_game", "strategies.run_totals", "strategies.iter_cycles")

# The functions the per-layer report names, in report order.
LISTED = [
    "blocktree.begin_round", "blocktree.validate_action", "blocktree.capitulate",
    "blocktree.potential_reward", "blocktree.chain_path", "blocktree.on_chain",
    "strategies.run_game", "strategies.Engine.play", "strategies.decide",
    "structure.replay_trace", "structure.checkpoints", "structure.classifiers",
    "structure.classify_trace", "structure.fork_ownership_check",
    "structure.checkpoint_override_check", "reductions.decide",
    "analysis.mc_revenue_renewal", "analysis.mc_value", "analysis.mc_revenue_liminf",
    "analysis.stake_dynamics", "analysis.growth_rate_check",
    "analysis.potential_reward_decay_check", CLI_SPAN,
]


def _package_modules() -> list[ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n == "posmine" or n.startswith("posmine.")]


class Tracer:
    def __init__(self, pm: SimpleNamespace):
        self.pm = pm
        names = list(FUNCTIONS) + list(METHODS) + list(GENERATORS) + [CLI_SPAN]
        # name -> [calls, self_s, total_s, errors]
        self.stats = {n: [0, 0.0, 0.0, 0] for n in names}
        self.sites: dict[str, list[str]] = {n: [] for n in names}
        self._stack: list[list] = []  # frames: [name, child_s, flag, span id]
        self._restore: list[tuple] = []
        self._wrappers: list[Callable] = []
        self._next_id = 0
        self._t0 = 0.0
        self.op_id: Optional[int] = None
        self.op_kind = ""
        self.op_wall = 0.0
        self.top_s = 0.0  # time inside outermost spans
        self.spans: list[dict] = []
        # counters for the derived metrics
        self.live_blocks: Counter = Counter()
        self.settles_in_play = 0
        self.checkpoint_walks = 0
        self.replayed_traces = 0
        self._last_trace = None
        self.reduce_games = {"inner": [0, 0.0], "wrapped": [0, 0.0]}

    # -- span recording ----------------------------------------------------

    def _close(self, name: str, frame: list, t0: float, t1: float) -> float:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        rec = self.stats[name]
        rec[0] += 1
        rec[1] += dur - frame[1]
        rec[2] += dur
        if stack:
            stack[-1][1] += dur
        else:
            self.top_s += dur
        if len(self.spans) < SAMPLE_SPANS:
            self.spans.append({
                "id": frame[3],
                "name": name,
                "start": t0 - self._t0,
                "end": t1 - self._t0,
                "parent": stack[-1][3] if stack else None,
                "op": self.op_id,
            })
        return dur

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [name, 0.0, False, self._next_id]
        self._stack.append(frame)
        return frame

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        stack, perf, stats = self._stack, time.perf_counter, self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                dur = self._close(name, frame, t0, perf())
                if hook is not None:
                    hook(frame, args, dur)

        self._wrappers.append(wrapper)
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Each resumption of the generator is one span."""
        perf, stats = time.perf_counter, self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._open(name)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except Exception:
                        stats[3] += 1
                        raise
                    finally:
                        self._close(name, frame, t0, perf())
                    yield item
            finally:
                it.close()

        self._wrappers.append(wrapper)
        return wrapper

    # -- hooks for the derived metrics -------------------------------------

    def _on_capitulate(self, frame, args, dur) -> None:
        self.live_blocks[len(args[0].creator)] += 1
        if self._stack and self._stack[-1][0] == "strategies.Engine.play":
            self.settles_in_play += 1

    def _on_chain_path(self, frame, args, dur) -> None:
        if self._stack and self._stack[-1][0] == "structure.checkpoints":
            self._stack[-1][2] = True

    def _on_checkpoints(self, frame, args, dur) -> None:
        if frame[2]:
            self.checkpoint_walks += 1

    def _on_replay(self, frame, args, dur) -> None:
        if args[0] is not self._last_trace:
            self.replayed_traces += 1
            self._last_trace = args[0]

    def _on_run_game(self, frame, args, dur) -> None:
        if self.op_kind == "reduce":
            red = self.pm.reductions
            wrapped = isinstance(args[0], (red.OrderlyReduction, red.LcmReduction, red.LcmStepReduction))
            acc = self.reduce_games["wrapped" if wrapped else "inner"]
            acc[0] += 1
            acc[1] += dur

    # -- install / uninstall -------------------------------------------------

    def _patch(self, target, attr: str, new) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    def install(self) -> None:
        hooks = {
            "blocktree.capitulate": self._on_capitulate,
            "blocktree.chain_path": self._on_chain_path,
            "structure.checkpoints": self._on_checkpoints,
            "structure.replay_trace": self._on_replay,
            "strategies.run_game": self._on_run_game,
        }
        modules = _package_modules()
        for kind, table in (("fn", FUNCTIONS), ("gen", GENERATORS)):
            for name, sources in table.items():
                for mod, attr in sources:
                    orig = getattr(getattr(self.pm, mod), attr)
                    if kind == "gen":
                        wrapper = self._wrap_generator(name, orig)
                    else:
                        wrapper = self._wrap(name, orig, hooks.get(name))
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                self._patch(m, key, wrapper)
                                self.sites[name].append(f"{m.__name__}.{key}")
        for name, sources in METHODS.items():
            for mod, cls_name, attr in sources:
                cls = getattr(getattr(self.pm, mod), cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                self.sites[name].append(f"posmine.{mod}.{cls_name}.{attr}")
        for cmd_name, cmd in sorted(self.pm.cli.main.commands.items()):
            self._patch(cmd, "callback", self._wrap(CLI_SPAN, cmd.callback))
            self.sites[CLI_SPAN].append(f"posmine.cli {cmd_name}")
        self._t0 = time.perf_counter()

    def unwrapped(self) -> list[str]:
        """References to an original function that the wrappers could not
        replace: a caller holding one of these bypasses the trace."""
        ours = {id(self._restore)} | {id(entry) for entry in self._restore}
        cells = {id(c) for w in self._wrappers for c in (w.__closure__ or ())}
        wrapper_dicts = {id(w.__dict__) for w in self._wrappers}
        mod_dicts = {id(vars(m)): m.__name__ for m in list(sys.modules.values()) if m is not None}
        found = []
        for target, attr, orig in self._restore:
            for ref in gc.get_referrers(orig):
                rid = id(ref)
                if rid in ours or rid in cells or rid in wrapper_dicts:
                    continue
                if isinstance(ref, dict) and rid in mod_dicts:
                    where = f"module {mod_dicts[rid]} name {_names_of(ref, orig)}"
                else:
                    where = type(ref).__name__
                found.append(f"{getattr(orig, '__qualname__', attr)} held by {where}")
        return sorted(set(found))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, orig = self._restore.pop()
            setattr(target, attr, orig)

    # -- results -------------------------------------------------------------

    def functions(self) -> dict[str, dict]:
        """calls / self_s / total_s / errors, and where the wrapper sits, for
        every listed function and every driver loop."""
        out = {}
        for name in LISTED + [d for d in DRIVERS if d not in LISTED]:
            calls, self_s, total_s, errors = self.stats[name]
            out[name] = {
                "calls": calls,
                "self_s": self_s,
                "total_s": total_s,
                "errors": errors,
                "sites": self.sites[name],
            }
        return out

    def derived(self) -> dict[str, float]:
        """The per-layer ratios measured at the wrapped boundaries."""
        st = self.stats
        plays = st["strategies.Engine.play"][0]
        cp_calls = st["structure.checkpoints"][0]
        cli_total = st[CLI_SPAN][2]
        inner, wrapped = self.reduce_games["inner"], self.reduce_games["wrapped"]
        return {
            "strategies.driver.self_s": sum(st[d][1] for d in DRIVERS),
            "strategies.settles_per_kround": 1000.0 * self.settles_in_play / plays if plays else 0.0,
            "blocktree.capitulate.live_blocks_p50": _hist_quantile(self.live_blocks, 0.5),
            "blocktree.capitulate.live_blocks_p90": _hist_quantile(self.live_blocks, 0.9),
            "structure.replays_per_trace": (
                st["structure.replay_trace"][0] / self.replayed_traces if self.replayed_traces else 0.0
            ),
            "structure.checkpoints.recompute_ratio": self.checkpoint_walks / cp_calls if cp_calls else 0.0,
            "reductions.shadow_overhead_ratio": (
                (wrapped[1] / wrapped[0]) / (inner[1] / inner[0]) if inner[0] and wrapped[0] else 0.0
            ),
            "cli.self_share": st[CLI_SPAN][1] / cli_total if cli_total else 0.0,
            "trace.coverage": self.top_s / self.op_wall if self.op_wall else 0.0,
        }


def _names_of(namespace: dict, obj) -> list[str]:
    # a helper, not a comprehension inside unwrapped(): a comprehension
    # would put ``obj`` in a closure cell, itself a referrer of ``obj``
    return [k for k, v in namespace.items() if v is obj]


def _hist_quantile(hist: Counter, q: float) -> float:
    """Nearest-rank quantile of a value -> count histogram (0 when empty)."""
    total = sum(hist.values())
    if not total:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return float(value)
    return float(max(hist))
