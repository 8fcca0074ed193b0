"""Command-line front end: seeded, reproducible experiment drivers.

Exit codes: 0 success, 1 simulation/property failure, 2 usage or parse
error.  The commands raise the package's typed errors (click raises its
own for a bad option or command) and ``_EXIT_CODES`` maps them, once, at
the ``main`` group, to one stderr line; an error it does not name is a
program fault and keeps its traceback.  Every command writes through
``_output``: an output file is checked before the run, written only when
the run succeeds, and removed if the run created it and then failed.
Output files start with ``#`` comment headers that restate the full
configuration, so a rerun with the same flags is byte-identical.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields
from typing import Iterable, Optional

import click

from . import __version__, structure
from .blocktree import BlockTreeError, StatefileError, parse_statefile, to_dot
from .strategies import MINER2, ScriptError, derive_seed, format_action, make_strategy, run_game
from .structure import PropertyReport, checkpoints, classify_trace
from .reductions import lcm_reduce, orderly_reduce
from .analysis import (
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

PROPERTIES = tuple(PropertyReport().as_dict())

# the monitors in report order; ``verify`` calls each as ``structure.<name>_check``,
# looked up at call time so that a wrapper put on the module sees every call
_MONITORS = ("fork_ownership", "checkpoint_override")

_CLOSED_FORMS = {"frontier": rev_frontier, "sm": rev_sm_closed, "nsm": rev_nsm_closed}

_MAX_GRID_POINTS = 10_000


def _grid(spec: str) -> list[float]:
    """Parse lo:hi:step into an inclusive grid of at most
    ``_MAX_GRID_POINTS`` points; a non-dividing step gets its last point
    clamped to hi."""
    try:
        parts = [float(x) for x in spec.split(":")]
        lo, hi, step = parts
    except ValueError:
        raise DomainError(f"bad grid {spec!r}, expected lo:hi:step") from None
    if not all(map(math.isfinite, parts)):
        raise DomainError(f"bad grid {spec!r}: bounds and step must be finite")
    if step <= 0 or hi < lo:
        raise DomainError(f"bad grid {spec!r}: need step > 0 and hi >= lo")
    pts = []
    i = 0
    x = lo
    while x < hi - 1e-12:
        if len(pts) == _MAX_GRID_POINTS - 1:  # x and hi would overflow the cap
            raise DomainError(f"bad grid {spec!r}: more than {_MAX_GRID_POINTS} points")
        pts.append(x)
        i += 1
        x = lo + i * step
    pts.append(hi)
    return pts


@contextmanager
def _output(*paths: Optional[str]):
    """Collect a command's text, one list of chunks per path, and write it
    only once the command succeeds: to the file, or to stdout for ``None``.

    Each file is checked before any work by opening it to append, which
    neither changes it nor needs a seekable file (``/dev/null`` passes).  A
    file that check created is removed if the command fails, so a failed
    run leaves an existing file as it was and creates none.
    """
    texts: list[list[str]] = [[] for _ in paths]
    created = []
    try:
        for path in filter(None, paths):
            existed = os.path.lexists(path)
            open(path, "a").close()
            if not existed:
                created.append(path)
        yield texts
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    for path, chunks in zip(paths, texts):
        if path:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        else:
            click.echo("".join(chunks), nl=False)


def _csv(command: str, columns: str, rows: Iterable[str], **config) -> str:
    """The ``#`` header that restates ``config``, the column line and the
    already formatted ``rows``, one per line."""
    lines = [f"# posmine {__version__}", f"# command: {command}"]
    lines += [f"# {key}: {config[key]}" for key in sorted(config)]
    lines.append(columns)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# First match wins.  An OSError counts only when it names a path: the
# user's file could not be read or written.
_EXIT_CODES = (
    ((ScriptError, StatefileError, UnicodeDecodeError), 2, "parse error"),
    ((DomainError, OSError, click.UsageError), 2, "usage error"),
    ((NonRecurrent, MajorityStake, BlockTreeError), 1, "simulation failed"),
)
_MAPPED = tuple(t for types, _, _ in _EXIT_CODES for t in types)


class _ContractGroup(click.Group):
    """A command group that turns ``_EXIT_CODES`` errors into one stderr line;
    any other exception propagates with its traceback.  click raises its
    ``UsageError`` for a subcommand's bad options inside ``invoke``."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except _MAPPED as e:
            if isinstance(e, click.UsageError):
                detail = e.format_message()
            elif not isinstance(e, OSError):
                detail = str(e)
            elif e.filename is not None:
                detail = f"cannot open {e.filename}: {e.strerror}"
            else:
                raise
            code, prefix = next((c, p) for types, c, p in _EXIT_CODES if isinstance(e, types))
            detail = " ".join(map(str.strip, detail.splitlines()))  # click lists choices on lines
            click.echo(f"{prefix}: {detail}", err=True)
            sys.exit(code)


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
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None, help="CSV path (default stdout)")
def revenue(strategy_id, alpha, alpha_grid, mode, cycles, rounds, games, seed, out):
    """Closed-form or simulated revenue, one CSV row per alpha."""
    with _output(out) as (csv,):
        if (alpha is None) == (alpha_grid is None):
            raise DomainError("give exactly one of --alpha / --alpha-grid")
        alphas = [alpha] if alpha is not None else _grid(alpha_grid)
        if mode == "closed-form":
            fn = _CLOSED_FORMS.get(strategy_id)
            if fn is None:
                have = sorted(_CLOSED_FORMS)
                raise DomainError(f"no closed form for {strategy_id!r} (have {have})")
            rows = [RevenuePoint(a, strategy_id, "closed_form", fn(a), seed=seed) for a in alphas]
        else:
            make_strategy(strategy_id)  # reject a bad spec before simulating
            if cycles is not None:
                rows = [mc_revenue_renewal(strategy_id, a, cycles, seed=seed) for a in alphas]
            elif rounds is not None and games is not None:
                rows = [mc_revenue_liminf(strategy_id, a, rounds, games, seed=seed) for a in alphas]
            else:
                raise DomainError("simulate mode needs --cycles or (--rounds and --games)")
        csv.append(_csv(
            "revenue",
            ",".join(f.name for f in fields(RevenuePoint)),
            (",".join(map(_fmt, astuple(r))) for r in rows),
            strategy=strategy_id, alpha=alpha if alpha is not None else alpha_grid,
            mode=mode, cycles=cycles, rounds=rounds, games=games, seed=seed,
        ))


@main.command()
@click.option("--strategy", "strategy_id", required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--rounds", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None, help="trace CSV path (default stdout)")
@click.option("--emit-tree", "emit_tree", default=None, help="write final block tree as DOT")
def simulate(strategy_id, alpha, rounds, seed, out, emit_tree):
    """Play one game and emit its per-round trace as CSV."""
    with _output(out, emit_tree) as (csv, dot):
        _check_alpha(alpha)
        trace = run_game(make_strategy(strategy_id), alpha, rounds, seed=seed)
        rows = []
        for i, creator in enumerate(trace.creators):
            rnd = i + 1
            m2 = f"publish:{rnd}->{trace.m2_bases[i]}" if creator == MINER2 else "wait"
            # keep the row naively splittable: block lists use ';'
            m1 = format_action(trace.m1_actions[i]).replace(",", ";")
            rows.append(
                f"{rnd},{creator},{m2},{m1},{trace.tips[i]},{trace.heights[i]},"
                f"{trace.r1[i]},{trace.r2[i]},{1 if trace.cap_flags[i] else 0}"
            )
        csv.append(_csv(
            "simulate",
            "round,creator,miner2_action,miner1_action,chain_tip,height,r1,r2,capitulated",
            rows,
            strategy=strategy_id, alpha=alpha, rounds=rounds, seed=seed,
        ))
        if emit_tree:
            dot.append(to_dot(trace.final_state))


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
    with _output(None) as (stdout,):
        _check_alpha(alpha)
        wanted = PROPERTIES if props == "all" else tuple(dict.fromkeys(p.strip() for p in props.split(",")))
        unknown = [p for p in wanted if p not in PROPERTIES]
        if unknown:
            raise DomainError(f"unknown properties: {unknown} (have {PROPERTIES})")
        _check_count("games", games)
        _check_count("rounds", rounds)
        failures: dict[str, str] = {}  # first witness per property or monitor
        for g in range(games):
            trace = run_game(make_strategy(strategy_id), alpha, rounds, seed=derive_seed(seed, g))
            report = classify_trace(trace).as_dict()
            verdicts = [(p, report[p], "action=") for p in wanted]
            if monitors:
                verdicts += [("fork_ownership", structure.fork_ownership_check(trace), ""),
                             ("checkpoint_override", structure.checkpoint_override_check(trace), "")]
            for name, verdict, tag in verdicts:
                if not verdict.holds and name not in failures:
                    w = verdict.violations[0]
                    failures[name] = f"game={g} round={w.round} {tag}{w.detail}"
        # monitors report in the order they first failed, and pass only together
        names = [*wanted, *(n for n in failures if n not in wanted)]
        if monitors and len(names) == len(wanted):
            names += _MONITORS
        lines = [f"strategy: {strategy_id}",
                 f"games: {games}  rounds: {rounds}  alpha: {alpha}  seed: {seed}"]
        lines += [f"{n}: violation {failures[n]}" if n in failures else f"{n}: ok ({games} games)"
                  for n in names]
        stdout.append("\n".join(lines) + "\n")
    if failures:
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
    with _output(out) as (csv,):
        _check_alpha(alpha)
        inner = make_strategy(inner_id)
        if kind == "orderly":
            wrapped = orderly_reduce(make_strategy(inner_id))
        else:
            wrapped = lcm_reduce(make_strategy(inner_id), horizon=rounds)
        ri = run_game(inner, alpha, rounds, seed=seed).revenue_series()
        rr = run_game(wrapped, alpha, rounds, seed=seed).revenue_series()
        csv.append(_csv(
            "reduce",
            "round,rev_inner,rev_reduced",
            (f"{i + 1},{_fmt(ri[i])},{_fmt(rr[i])}" for i in range(rounds)),
            inner=inner_id, kind=kind, rounds=rounds, seed=seed, alpha=alpha,
        ))


@main.command("checkpoints")
@click.option("--state", "state_path", required=True, type=click.Path(exists=True))
def checkpoints_cmd(state_path):
    """Print the checkpoint labels of a saved state."""
    with _output(None) as (stdout,), open(state_path) as fh:
        state = parse_statefile(fh.read())
        stdout.append(" ".join(str(c) for c in checkpoints(state)) + "\n")


@main.command()
@click.option("--strategy", "strategy_id", type=click.Choice(["frontier", "nsm"]), required=True)
@click.option("--alpha0", type=float, required=True)
@click.option("--coins", type=int, default=100_000)
@click.option("--rounds", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", default=None, help="CSV path (default stdout)")
def stake(strategy_id, alpha0, coins, rounds, seed, out):
    """Dynamic-stake run: creator odds follow Miner 1's coin share."""
    with _output(out) as (csv,):
        series = stake_dynamics(strategy_id, alpha0, coins, rounds, seed=seed)
        csv.append(_csv(
            "stake",
            "round,stake",
            (f"{i},{frac:.12g}" for i, frac in enumerate(series.fractions, 1)),
            strategy=strategy_id, alpha0=alpha0, coins=coins, rounds=rounds, seed=seed,
        ))


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--lead", type=int, default=1)
def walk(alpha, lead):
    """Catch-up walk expectations and the ruin probability for a lead."""
    with _output(None) as (stdout,):
        ex, ey, etau = walk_stats(alpha)
        ruin = ruin_probability(alpha, lead)
        stdout.append(f"up {ex:.6f}\ndown {ey:.6f}\nduration {etau:.6f}\nruin {ruin:.6f}\n")


if __name__ == "__main__":
    main()
