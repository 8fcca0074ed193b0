"""Command-line front end: seeded, reproducible experiment drivers.

Exit codes: 0 success, 1 simulation/property failure, 2 usage or parse
error.  The commands raise the package's typed errors and ``_EXIT_CODES``
maps them, once, at the ``main`` group; an error it does not name is a
program fault and keeps its traceback.  Output files start with ``#``
comment headers that restate the full configuration, so a rerun with the
same flags is byte-identical.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from typing import NoReturn, Optional

import click

from . import __version__
from .blocktree import (
    BlockTreeError,
    StatefileError,
    parse_statefile,
    to_dot,
)
from .strategies import ScriptError, derive_seed, make_strategy, run_game
from .structure import (
    checkpoint_override_check,
    checkpoints,
    classify_trace,
    fork_ownership_check,
)
from .reductions import lcm_reduce, orderly_reduce
from .analysis import (
    BadThreadCount,
    DomainError,
    MajorityStake,
    NonRecurrent,
    RevenuePoint,
    mc_revenue_liminf,
    mc_revenue_renewal,
    rev_frontier,
    rev_nsm_closed,
    rev_sm_closed,
    ruin_probability,
    stake_dynamics,
    walk_stats,
    _check_alpha,
    _check_count,
)

PROPERTIES = (
    "timeserving",
    "orderly",
    "lcm",
    "trimmed",
    "opportunistic",
    "checkpoint_recurrent",
)

_CLOSED_FORMS = {
    "frontier": rev_frontier,
    "sm": rev_sm_closed,
    "nsm": rev_nsm_closed,
}


_MAX_GRID_POINTS = 10_000


def _grid(spec: str) -> list[float]:
    """Parse lo:hi:step into an inclusive grid of at most
    ``_MAX_GRID_POINTS`` points; a non-dividing step gets its last point
    clamped to hi."""
    try:
        parts = [float(x) for x in spec.split(":")]
        lo, hi, step = parts
    except ValueError:
        _fail(2, f"usage error: bad grid {spec!r}, expected lo:hi:step")
    if not all(map(math.isfinite, parts)):
        _fail(2, f"usage error: bad grid {spec!r}: bounds and step must be finite")
    if step <= 0 or hi < lo:
        _fail(2, f"usage error: bad grid {spec!r}: need step > 0 and hi >= lo")
    pts = []
    i = 0
    x = lo
    while x < hi - 1e-12:
        if len(pts) == _MAX_GRID_POINTS - 1:  # x and hi would overflow the cap
            _fail(2, f"usage error: bad grid {spec!r}: more than {_MAX_GRID_POINTS} points")
        pts.append(x)
        i += 1
        x = lo + i * step
    pts.append(hi)
    return pts


def _fail(code: int, message: str) -> NoReturn:
    """Print a one-line error to stderr and exit with ``code``."""
    click.echo(message, err=True)
    sys.exit(code)


def _header(cmd: str, **config) -> list[str]:
    lines = [f"# posmine {__version__}", f"# command: {cmd}"]
    for key in sorted(config):
        lines.append(f"# {key}: {config[key]}")
    return lines


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _revenue_csv(rows: list[RevenuePoint], header: list[str]) -> str:
    out = list(header)
    out.append("alpha,strategy,method,estimate,stderr,rounds,games,cycles,seed")
    for r in rows:
        out.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.alpha,
                    r.strategy,
                    r.method,
                    r.estimate,
                    r.stderr,
                    r.rounds,
                    r.games,
                    r.cycles,
                    r.seed,
                )
            )
        )
    return "\n".join(out) + "\n"


# First match wins.  An OSError counts only when it names a path: the
# user's file could not be read or written.
_EXIT_CODES = (
    ((ScriptError, StatefileError, UnicodeDecodeError), 2, "parse error"),
    ((DomainError, BadThreadCount, OSError), 2, "usage error"),
    ((NonRecurrent, MajorityStake, BlockTreeError), 1, "simulation failed"),
)
_MAPPED = tuple(t for types, _, _ in _EXIT_CODES for t in types)


class _ContractGroup(click.Group):
    """A command group that turns ``_EXIT_CODES`` errors into one stderr line;
    any other exception propagates with its traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _MAPPED as e:
            if not isinstance(e, OSError):
                detail = str(e)
            elif e.filename is not None:
                detail = f"cannot open {e.filename}: {e.strerror}"
            else:
                raise
            code, prefix = next((c, p) for types, c, p in _EXIT_CODES if isinstance(e, types))
            _fail(code, f"{prefix}: {detail}")


@click.group(cls=_ContractGroup)
@click.version_option(__version__, prog_name="posmine")
def main() -> None:
    """Mining-game simulation and analysis."""


@main.command()
@click.option("--strategy", "strategy_id", required=True)
@click.option("--alpha", type=float, default=None)
@click.option("--alpha-grid", "alpha_grid", default=None, help="lo:hi:step, inclusive")
@click.option("--mode", type=click.Choice(["closed-form", "simulate"]), default="closed-form")
@click.option("--cycles", type=int, default=None, help="renewal-cycle count (simulate)")
@click.option("--rounds", type=int, default=None, help="rounds per game (simulate)")
@click.option("--games", type=int, default=None, help="independent games (simulate)")
@click.option("--seed", type=int, default=None)
@click.option("--out", default=None, help="CSV path (default stdout)")
def revenue(strategy_id, alpha, alpha_grid, mode, cycles, rounds, games, seed, out):
    """Closed-form or simulated revenue, one CSV row per alpha."""
    if (alpha is None) == (alpha_grid is None):
        _fail(2, "usage error: give exactly one of --alpha / --alpha-grid")
    alphas = [alpha] if alpha is not None else _grid(alpha_grid)
    rows = []
    if mode == "closed-form":
        fn = _CLOSED_FORMS.get(strategy_id)
        if fn is None:
            have = sorted(_CLOSED_FORMS)
            _fail(2, f"usage error: no closed form for {strategy_id!r} (have {have})")
        for a in alphas:
            rows.append(RevenuePoint(a, strategy_id, "closed_form", fn(a), seed=seed))
    else:
        make_strategy(strategy_id)  # reject a bad spec before simulating
        for a in alphas:
            if cycles is not None:
                rows.append(mc_revenue_renewal(strategy_id, a, cycles, seed=seed))
            elif rounds is not None and games is not None:
                rows.append(mc_revenue_liminf(strategy_id, a, rounds, games, seed=seed))
            else:
                _fail(2, "usage error: simulate mode needs --cycles or (--rounds and --games)")
    header = _header(
        "revenue",
        strategy=strategy_id,
        alpha=alpha if alpha is not None else alpha_grid,
        mode=mode,
        cycles=cycles,
        rounds=rounds,
        games=games,
        seed=seed,
    )
    _emit(_revenue_csv(rows, header), out)


@main.command()
@click.option("--strategy", "strategy_id", required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--rounds", type=int, required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", default=None, help="trace CSV path (default stdout)")
@click.option("--emit-tree", "emit_tree", default=None, help="write final block tree as DOT")
def simulate(strategy_id, alpha, rounds, seed, out, emit_tree):
    """Play one game and emit its per-round trace as CSV."""
    _check_alpha(alpha)
    trace = run_game(make_strategy(strategy_id), alpha, rounds, seed=seed)
    lines = _header(
        "simulate", strategy=strategy_id, alpha=alpha, rounds=rounds, seed=seed
    )
    lines.append(
        "round,creator,miner2_action,miner1_action,chain_tip,height,r1,r2,capitulated"
    )
    from .strategies import MINER2, format_action  # narrow import for the loop

    for i in range(trace.rounds()):
        rnd = i + 1
        if trace.creators[i] == MINER2:
            m2 = f"publish:{rnd}->{trace.m2_bases[i]}"
        else:
            m2 = "wait"
        lines.append(
            ",".join(
                [
                    str(rnd),
                    str(trace.creators[i]),
                    m2,
                    # keep the row naively splittable: block lists use ';'
                    format_action(trace.m1_actions[i]).replace(",", ";"),
                    str(trace.tips[i]),
                    str(trace.heights[i]),
                    str(trace.r1[i]),
                    str(trace.r2[i]),
                    "1" if trace.cap_flags[i] else "0",
                ]
            )
        )
    # open the tree file first, so a bad path fails before any CSV reaches stdout
    with open(emit_tree, "w") if emit_tree else nullcontext() as dot:
        _emit("\n".join(lines) + "\n", out)
        if dot:
            dot.write(to_dot(trace.final_state))


@main.command()
@click.option("--strategy", "strategy_id", required=True)
@click.option("--properties", "props", default="all", help="comma list or 'all'")
@click.option("--alpha", type=float, default=0.35)
@click.option("--rounds", type=int, default=1000)
@click.option("--games", type=int, default=10)
@click.option("--seed", type=int, default=0)
@click.option("--monitors/--no-monitors", default=False,
              help="also run the fork-ownership and checkpoint-override monitors")
def verify(strategy_id, props, alpha, rounds, games, seed, monitors):
    """Classify traces against the structural properties; exit 1 on violation."""
    _check_alpha(alpha)
    wanted = PROPERTIES if props == "all" else tuple(p.strip() for p in props.split(","))
    unknown = [p for p in wanted if p not in PROPERTIES]
    if unknown:
        _fail(2, f"usage error: unknown properties: {unknown} (have {PROPERTIES})")
    _check_count("games", games)
    _check_count("rounds", rounds)
    failures: dict[str, str] = {}
    checked = {p: 0 for p in wanted}
    mon_fail: dict[str, str] = {}
    for g in range(games):
        trace = run_game(make_strategy(strategy_id), alpha, rounds, seed=derive_seed(seed, g))
        report = classify_trace(trace).as_dict()
        for p in wanted:
            verdict = report[p]
            checked[p] += 1
            if not verdict.holds and p not in failures:
                w = verdict.violations[0]
                failures[p] = f"game={g} round={w.round} action={w.detail}"
        if monitors:
            fo = fork_ownership_check(trace)
            if not fo.holds and "fork_ownership" not in mon_fail:
                w = fo.violations[0]
                mon_fail["fork_ownership"] = f"game={g} round={w.round} {w.detail}"
            ov = checkpoint_override_check(trace)
            if not ov.holds and "checkpoint_override" not in mon_fail:
                w = ov.violations[0]
                mon_fail["checkpoint_override"] = f"game={g} round={w.round} {w.detail}"
    click.echo(f"strategy: {strategy_id}")
    click.echo(f"games: {games}  rounds: {rounds}  alpha: {alpha}  seed: {seed}")
    for p in wanted:
        if p in failures:
            click.echo(f"{p}: violation {failures[p]}")
        else:
            click.echo(f"{p}: ok ({checked[p]} games)")
    for name, msg in mon_fail.items():
        click.echo(f"{name}: violation {msg}")
    if monitors and not mon_fail:
        click.echo(f"fork_ownership: ok ({games} games)")
        click.echo(f"checkpoint_override: ok ({games} games)")
    if failures or mon_fail:
        sys.exit(1)


@main.command()
@click.option("--inner", "inner_id", required=True, help="inner strategy id")
@click.option("--kind", type=click.Choice(["orderly", "lcm"]), required=True)
@click.option("--rounds", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--alpha", type=float, default=0.35)
@click.option("--emit-csv", "out", default=None, help="CSV path (default stdout)")
def reduce(inner_id, kind, rounds, seed, alpha, out):
    """Couple an inner strategy with its reduction; emit per-round revenue."""
    _check_alpha(alpha)
    inner = make_strategy(inner_id)
    if kind == "orderly":
        wrapped = orderly_reduce(make_strategy(inner_id))
    else:
        wrapped = lcm_reduce(make_strategy(inner_id), horizon=rounds)
    t_inner = run_game(inner, alpha, rounds, seed=seed)
    t_red = run_game(wrapped, alpha, rounds, seed=seed)
    lines = _header(
        "reduce", inner=inner_id, kind=kind, rounds=rounds, seed=seed, alpha=alpha
    )
    lines.append("round,rev_inner,rev_reduced")
    ri = t_inner.revenue_series()
    rr = t_red.revenue_series()
    for i in range(rounds):
        lines.append(f"{i + 1},{_fmt(ri[i])},{_fmt(rr[i])}")
    _emit("\n".join(lines) + "\n", out)


@main.command("checkpoints")
@click.option("--state", "state_path", required=True, type=click.Path(exists=True))
def checkpoints_cmd(state_path):
    """Print the checkpoint labels of a saved state."""
    with open(state_path) as fh:
        state = parse_statefile(fh.read())
    click.echo(" ".join(str(c) for c in checkpoints(state)))


@main.command()
@click.option("--strategy", "strategy_id", type=click.Choice(["frontier", "nsm"]), required=True)
@click.option("--alpha0", type=float, required=True)
@click.option("--coins", type=int, default=100_000)
@click.option("--rounds", type=int, required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", default=None, help="CSV path (default stdout)")
def stake(strategy_id, alpha0, coins, rounds, seed, out):
    """Dynamic-stake run: creator odds follow Miner 1's coin share."""
    series = stake_dynamics(strategy_id, alpha0, coins, rounds, seed=seed)
    lines = _header(
        "stake", strategy=strategy_id, alpha0=alpha0, coins=coins,
        rounds=rounds, seed=seed,
    )
    lines.append("round,stake")
    for i, frac in enumerate(series.fractions):
        lines.append(f"{i + 1},{_fmt(frac)}")
    _emit("\n".join(lines) + "\n", out)


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--lead", type=int, default=1)
def walk(alpha, lead):
    """Catch-up walk expectations and the ruin probability for a lead."""
    ex, ey, etau = walk_stats(alpha)
    ruin = ruin_probability(alpha, lead)
    click.echo(f"up {ex:.6f}")
    click.echo(f"down {ey:.6f}")
    click.echo(f"duration {etau:.6f}")
    click.echo(f"ruin {ruin:.6f}")


if __name__ == "__main__":
    main()
