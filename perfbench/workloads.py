"""The three benchmark workloads: seeded op schedules, op execution and the
oracle that checks every op's output.

The package is reached only through module attributes (``pm.analysis.
mc_revenue_renewal(...)``), never through names imported into this file, so
the traced run's wrappers see every call the benchmark makes.

Every workload is a fixed rotation of op cells.  The seed shuffles each
block of the rotation and draws every op's RNG seed, so two seeds give the
same op mix with different random games: the mix, and with it the op-time
quantiles, stays put while the numbers the package computes change.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("renewal", "audit", "longgame")

# An estimate further than this many standard errors from its closed form
# fails the op.  At 6 sigma a correct estimator trips it about once in 5e8
# ops, so a failure on a stock strategy points at the program.
Z_MAX = 6.0

RENEWAL_CYCLES = 3000
VALUE_EPISODES = 1500
AUDIT_ROUNDS = 2000
LIMINF_ROUNDS, LIMINF_GAMES = 3000, 4
STAKE_ROUNDS, STAKE_COINS = 12000, 100_000
GROWTH_ROUNDS = 12000
DECAY_ROUNDS = 8000
CLI_SIM_ROUNDS = 3000

PACKAGE_MODULES = ("blocktree", "strategies", "structure", "reductions", "analysis", "cli")


class PackageMissing(RuntimeError):
    """The checkout holds no importable ``posmine`` source tree."""


def load_package(root: Path = ROOT) -> SimpleNamespace:
    """Import ``posmine`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "posmine" / "__init__.py").is_file():
        raise PackageMissing(f"no posmine package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("posmine")
    if Path(pkg.__file__).resolve().parent != (src / "posmine").resolve():
        raise PackageMissing(f"posmine imported from {pkg.__file__}, not from {src}")
    mods = {m: importlib.import_module(f"posmine.{m}") for m in PACKAGE_MODULES}
    return SimpleNamespace(version=pkg.__version__, **mods)


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    params: tuple  # kind-specific, see execute()
    seed: int


@dataclass
class Outcome:
    """What an op did, as the oracle saw it."""

    rounds: float  # game rounds finished (a coupled or replayed round counts once)
    cycles: int  # settle-to-settle cycles (renewal only)
    summary: str  # seeded output, folded into the workload digest
    error: Optional[str]  # None when every oracle check passed


# ---------------------------------------------------------------------------
# op cells per workload

RENEWAL_CELLS = [("renewal", (s, a)) for s in ("sm", "nsm") for a in (0.25, 0.35, 0.45)] + [
    # (strategy, lead k, alpha, lambda): mc_value from a k-block private lead
    ("value", ("sm", 2, 0.35, 0.3)),
    ("value", ("nsm", 3, 0.30, 0.5)),
]
AUDIT_CELLS = [("stock", (s, a)) for s in ("sm", "nsm") for a in (0.35, 0.45)] + [
    ("reduce", ("nsm", 0.35)),
    ("reduce", ("nsm", 0.45)),
]
LONGGAME_CELLS = [
    ("liminf", ("frontier", 0.30)),
    ("liminf", ("frontier", 0.45)),
    ("liminf", ("sm", 0.35)),
    ("liminf", ("nsm", 0.40)),
    ("stake", ("frontier", 0.33)),
    ("stake", ("nsm", 0.34)),
    ("growth", ("nsm", 0.40)),
    ("growth", ("sm", 0.30)),
    # The decay check is asymptotic: at stake a a lead walk of n rounds has
    # chance ~ (2 sqrt(a(1-a)))^n, and one long enough to break eps in the
    # second half of 8000 rounds is negligible at 0.25 but not at 0.35.
    ("decay", ("sm", 0.25)),
    ("decay", ("nsm", 0.25)),
    ("cli-stake", ("nsm", 0.34)),
    ("cli-simulate", ("sm", 0.35)),
    ("cli-revenue", ("nsm", 0.35)),
]
CELLS = {"renewal": RENEWAL_CELLS, "audit": AUDIT_CELLS, "longgame": LONGGAME_CELLS}

# A small fixed op per workload, run once during set-up.
WARMUP = {
    "renewal": ("renewal", ("sm", 0.35), 200),
    "audit": ("stock", ("nsm", 0.45), 200),
    "longgame": ("liminf", ("frontier", 0.30), 200),
}


def schedule(workload: str, seed: int) -> Iterator[Op]:
    """Endless op stream: each block is every cell of the workload once, in
    a seeded order, each op with its own seeded RNG seed."""
    rng = random.Random(f"posmine-bench:{workload}:{seed}")
    cells = CELLS[workload]
    index = 0
    while True:
        block = list(cells)
        rng.shuffle(block)
        for kind, params in block:
            yield Op(index, kind, params, rng.getrandbits(32))
            index += 1


# ---------------------------------------------------------------------------
# closed forms the oracle uses


def expected_cycle_rounds(strategy: str, a: float) -> float:
    """Mean settle-to-settle cycle length of ``sm`` / ``nsm`` at stake ``a``.

    A cycle is one round at ``start``; with an own block, one more round at
    ``hold1``; then either a lead walk that ends when the lead falls back to
    one (mean 1/(1-2a) rounds) or a race.  The plain race takes one round.
    The patient race R = 1 + (1-a)(1 + a(1 + (1-a)R)) restarts from a lost
    double, so R = (2 - a^2) / (1 - a(1-a)^2).
    """
    walk = 1.0 / (1.0 - 2.0 * a)
    race = 1.0 if strategy == "sm" else (2.0 - a * a) / (1.0 - a * (1.0 - a) ** 2)
    return 1.0 + a * (1.0 + a * walk + (1.0 - a) * race)


def lead_value(k: int, a: float, lam: float) -> tuple[float, float]:
    """From a k-block private lead (k >= 2) both stock strategies wait until
    the lead is back to one and then publish everything: R2 = 0 and
    R1 = k + a(k-1)/(1-2a), after (k-1)/(1-2a) rounds on average.
    Returns (expected weighted value, expected rounds)."""
    rounds = (k - 1) / (1.0 - 2.0 * a)
    return (1.0 - lam) * (k + a * rounds), rounds


class Workload:
    """One workload's generated inputs plus the code that runs and checks
    its ops against the package ``pm``."""

    def __init__(self, pm: SimpleNamespace, name: str, seed: int, tmpdir: Path):
        if name not in CELLS:
            raise ValueError(f"unknown workload {name!r} (have {', '.join(WORKLOADS)})")
        self.pm = pm
        self.name = name
        self.seed = seed
        self.tmpdir = tmpdir
        self.closed = {
            "frontier": pm.analysis.rev_frontier,
            "sm": pm.analysis.rev_sm_closed,
            "nsm": pm.analysis.rev_nsm_closed,
        }
        # mc_value start states: a private lead of k Miner-1 blocks
        self.starts = {}
        for kind, params in CELLS[name]:
            if kind == "value":
                k = params[1]
                state = pm.blocktree.initial_state()
                for _ in range(k):
                    pm.blocktree.begin_round(state, pm.blocktree.MINER1)
                self.starts[k] = state
        # cell -> [sum of w * estimate, sum of w], w = 1/stderr^2
        self.pooled: dict[tuple, list[float]] = {}
        # (strategy, alpha, rounds) -> [games, sum of game shares, sum of squares]
        self.liminf_games: dict[tuple, list[float]] = {}

    def ops(self) -> Iterator[Op]:
        return schedule(self.name, self.seed)

    def warmup_op(self) -> Op:
        kind, params, size = WARMUP[self.name]
        return Op(-1, kind, params + (size,), self.seed)

    # -- execution (timed) ------------------------------------------------

    def execute(self, op: Op) -> Any:
        pm, (kind, p, seed) = self.pm, (op.kind, op.params, op.seed)
        an, st = pm.analysis, pm.strategies
        if kind == "renewal":
            cycles = p[2] if len(p) > 2 else RENEWAL_CYCLES
            return an.mc_revenue_renewal(p[0], p[1], cycles, seed=seed)
        if kind == "value":
            s, k, a, lam = p
            return an.mc_value(s, self.starts[k], lam, a, VALUE_EPISODES, seed=seed)
        if kind == "stock":
            rounds = p[2] if len(p) > 2 else AUDIT_ROUNDS
            trace = st.run_game(st.make_strategy(p[0]), p[1], rounds, seed=seed)
            return (
                trace,
                pm.structure.classify_trace(trace),
                pm.structure.fork_ownership_check(trace),
                pm.structure.checkpoint_override_check(trace),
            )
        if kind == "reduce":
            s, a = p
            red = pm.reductions
            return (
                st.run_game(st.make_strategy(s), a, AUDIT_ROUNDS, seed=seed),
                st.run_game(red.orderly_reduce(st.make_strategy(s)), a, AUDIT_ROUNDS, seed=seed),
                st.run_game(
                    red.lcm_reduce(st.make_strategy(s), horizon=AUDIT_ROUNDS),
                    a,
                    AUDIT_ROUNDS,
                    seed=seed,
                ),
            )
        if kind == "liminf":
            rounds = p[2] if len(p) > 2 else LIMINF_ROUNDS
            return an.mc_revenue_liminf(p[0], p[1], rounds, LIMINF_GAMES, seed=seed, threads=1)
        if kind == "stake":
            return an.stake_dynamics(p[0], p[1], STAKE_COINS, STAKE_ROUNDS, seed=seed)
        if kind == "growth":
            return an.growth_rate_check(p[0], p[1], GROWTH_ROUNDS, seed=seed)
        if kind == "decay":
            return an.potential_reward_decay_check(p[0], p[1], DECAY_ROUNDS, seed=seed)
        if kind.startswith("cli-"):
            return self._cli(op)
        raise ValueError(f"unknown op kind {kind!r}")

    def _cli_args(self, op: Op) -> tuple[list[str], dict[str, Path]]:
        s, a = op.params
        d = self.tmpdir
        files = {"out": d / f"op{op.index}.csv"}
        if op.kind == "cli-stake":
            args = ["stake", "--strategy", s, "--alpha0", str(a), "--rounds", str(STAKE_ROUNDS)]
        elif op.kind == "cli-simulate":
            files["tree"] = d / f"op{op.index}.dot"
            args = ["simulate", "--strategy", s, "--alpha", str(a), "--rounds",
                    str(CLI_SIM_ROUNDS), "--emit-tree", str(files["tree"])]
        else:
            args = ["revenue", "--strategy", s, "--mode", "simulate", "--alpha", str(a),
                    "--rounds", str(LIMINF_ROUNDS), "--games", str(LIMINF_GAMES)]
        return args + ["--seed", str(op.seed), "--out", str(files["out"])], files

    def _cli(self, op: Op):
        from click.testing import CliRunner

        args, files = self._cli_args(op)
        result = CliRunner().invoke(self.pm.cli.main, args)
        return result, files

    # -- oracle (untimed) -------------------------------------------------

    def check(self, op: Op, res: Any) -> Outcome:
        kind, p = op.kind, op.params
        handler = getattr(self, "_check_" + kind.replace("-", "_"))
        return handler(op, p, res)

    def _within(self, what: str, est: float, expect: float, tol: float) -> Optional[str]:
        if abs(est - expect) <= tol:
            return None
        return f"{what}: estimate {est!r} vs expected {expect!r}, tolerance {tol:.3g}"

    def _pool(self, key: tuple, est: float, se: Optional[float]) -> None:
        if se:
            acc = self.pooled.setdefault(key, [0.0, 0.0])
            w = 1.0 / (se * se)
            acc[0] += w * est
            acc[1] += w

    def _check_renewal(self, op, p, pt) -> Outcome:
        s, a = p[0], p[1]
        cycles = p[2] if len(p) > 2 else RENEWAL_CYCLES
        err = None
        if pt.cycles != cycles or pt.stderr is None:
            err = f"renewal {s}@{a}: {pt.cycles} cycles, stderr {pt.stderr}"
        else:
            err = self._within(f"renewal {s}@{a}", pt.estimate, self.closed[s](a), Z_MAX * pt.stderr)
            self._pool(("renewal", s, a), pt.estimate, pt.stderr)
        return Outcome(
            pt.cycles * expected_cycle_rounds(s, a),
            pt.cycles,
            f"{pt.estimate!r},{pt.stderr!r},{pt.cycles}",
            err,
        )

    def _check_value(self, op, p, v) -> Outcome:
        s, k, a, lam = p
        expect, rounds = lead_value(k, a, lam)
        err = None
        if v.episodes != VALUE_EPISODES:
            err = f"mc_value {s}: {v.episodes} episodes"
        else:
            # stderr can be 0 only if every episode scored the same
            err = self._within(f"mc_value {s} lead {k}", v.estimate, expect,
                               max(Z_MAX * v.stderr, 1e-9))
            self._pool(("value",) + p, v.estimate, v.stderr)
        return Outcome(v.episodes * rounds, v.episodes, f"{v.estimate!r},{v.stderr!r}", err)

    def _check_stock(self, op, p, res) -> Outcome:
        trace, report, fork, override = res
        rounds = p[2] if len(p) > 2 else AUDIT_ROUNDS
        bad = [name for name, verdict in report.as_dict().items() if not verdict.holds]
        err = None
        if trace.rounds() != rounds:
            err = f"trace has {trace.rounds()} rounds, asked for {rounds}"
        elif not report.all_hold():
            err = f"{p[0]}@{p[1]}: properties fail: {bad}"
        elif not fork.holds or fork.violations:
            err = f"{p[0]}@{p[1]}: fork-ownership monitor fired at round {fork.violations[0].round}"
        elif not override.holds or override.violations:
            err = f"{p[0]}@{p[1]}: override monitor fired at round {override.violations[0].round}"
        summary = (
            f"{trace.heights[-1]},{sum(trace.r1)},{sum(trace.cap_flags)},"
            f"{fork.checked},{override.checked},{len(override.skipped)}"
        )
        return Outcome(rounds, 0, summary, err)

    def _check_reduce(self, op, p, res) -> Outcome:
        inner, orderly, lcm = res
        ri, ro, rl = inner.revenue_series(), orderly.revenue_series(), lcm.revenue_series()
        err = None
        if not (len(ri) == len(ro) == len(rl) == AUDIT_ROUNDS):
            err = f"reduce: series lengths {len(ri)}, {len(ro)}, {len(rl)}"
        else:
            diff = next((n for n in range(AUDIT_ROUNDS) if ro[n] != ri[n]), None)
            loss = next((n for n in range(AUDIT_ROUNDS) if rl[n] < ri[n] - 1e-12), None)
            if diff is not None:
                err = f"orderly revenue differs from inner at round {diff + 1}"
            elif loss is not None:
                err = f"lcm revenue below inner at round {loss + 1}"
        summary = f"{ri[-1]!r},{rl[-1]!r},{sum(lcm.r1)}"
        return Outcome(AUDIT_ROUNDS, 0, summary, err)

    def _pool_games(self, key: tuple, est: float, se: Optional[float], games: int) -> None:
        """Add one liminf estimate's games to the cell's game-level sums: the
        per-op stderr rests on only a few games, so the comparison with the
        closed form runs on the pooled games (see pooled_errors)."""
        acc = self.liminf_games.setdefault(key, [0, 0.0, 0.0])
        sd2 = (se or 0.0) ** 2 * games  # sample variance of the games
        acc[0] += games
        acc[1] += games * est
        acc[2] += (games - 1) * sd2 + games * est * est

    def _check_liminf(self, op, p, pt) -> Outcome:
        s, a = p[0], p[1]
        rounds = p[2] if len(p) > 2 else LIMINF_ROUNDS
        err = None
        if pt.rounds != rounds or pt.games != LIMINF_GAMES or not 0.0 <= pt.estimate <= 1.0:
            err = f"liminf {s}@{a}: estimate {pt.estimate!r} from {pt.rounds} rounds x {pt.games} games"
        else:
            self._pool_games((s, a, rounds), pt.estimate, pt.stderr, pt.games)
        return Outcome(rounds * LIMINF_GAMES, 0, f"{pt.estimate!r},{pt.stderr!r}", err)

    def _stake_error(self, s: str, a0: float, fractions: list[float]) -> Optional[str]:
        """Each round mints at most one coin, so after r rounds Miner 1's
        share lies in [m/(c+r), (m+r)/(c+r)] with m ~ a0*c of c coins."""
        if len(fractions) != STAKE_ROUNDS:
            return f"stake {s}: {len(fractions)} fractions for {STAKE_ROUNDS} rounds"
        m, c = a0 * STAKE_COINS, STAKE_COINS
        for r, f in enumerate(fractions, start=1):
            if not (m - 1) / (c + r) <= f <= (m + 1 + r) / (c + r):
                return f"stake {s}: share {f!r} out of reach at round {r}"
        if s == "frontier":
            drift = max(abs(f - a0) for f in fractions)
            if drift > 0.01:
                return f"stake frontier: honest share drifted by {drift:.4f}"
        return None

    def _check_stake(self, op, p, series) -> Outcome:
        err = self._stake_error(p[0], p[1], series.fractions)
        return Outcome(STAKE_ROUNDS, 0, repr(series.final), err)

    def _check_growth(self, op, p, rep) -> Outcome:
        err = None
        if len(rep.series) != GROWTH_ROUNDS or not rep.holds:
            err = f"growth {p[0]}@{p[1]}: holds={rep.holds} tail_min={rep.tail_min!r}"
        return Outcome(GROWTH_ROUNDS, 0, repr(rep.tail_min), err)

    def _check_decay(self, op, p, rep) -> Outcome:
        err = None if rep.holds else f"decay {p[0]}@{p[1]}: tail_max={rep.tail_max!r}"
        return Outcome(DECAY_ROUNDS, 0, repr(rep.tail_max), err)

    def _cli_rows(self, result, files, command: str, columns: str, rows: int):
        """Exit 0, the documented '# posmine <version>' / '# command:' header,
        the column line and ``rows`` data rows.  Returns (error, data rows)."""
        if result.exit_code != 0:
            return f"cli {command}: exit {result.exit_code}: {result.output.strip()[:200]}", []
        lines = files["out"].read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        body = lines[len(header):]
        if header[:2] != [f"# posmine {self.pm.version}", f"# command: {command}"]:
            return f"cli {command}: bad header {header[:2]}", []
        if not body or body[0] != columns or len(body) - 1 != rows:
            return f"cli {command}: {len(body) - 1} rows under {body[:1]}, expected {rows}", []
        return None, body[1:]

    def _check_cli_stake(self, op, p, res) -> Outcome:
        err, rows = self._cli_rows(*res, "stake", "round,stake", STAKE_ROUNDS)
        if err is None:
            err = self._stake_error(p[0], p[1], [float(r.split(",")[1]) for r in rows])
        return Outcome(STAKE_ROUNDS, 0, rows[-1] if rows else "", err)

    def _check_cli_simulate(self, op, p, res) -> Outcome:
        columns = "round,creator,miner2_action,miner1_action,chain_tip,height,r1,r2,capitulated"
        err, rows = self._cli_rows(*res, "simulate", columns, CLI_SIM_ROUNDS)
        if err is None:
            dot = res[1]["tree"].read_text()
            if not (dot.startswith("digraph blocktree {") and dot.rstrip().endswith("}")):
                err = "cli simulate: --emit-tree did not write a DOT graph"
        return Outcome(CLI_SIM_ROUNDS, 0, rows[-1] if rows else "", err)

    def _check_cli_revenue(self, op, p, res) -> Outcome:
        columns = "alpha,strategy,method,estimate,stderr,rounds,games,cycles,seed"
        err, rows = self._cli_rows(*res, "revenue", columns, 1)
        if err is None:
            f = rows[0].split(",")
            self._pool_games((p[0], p[1], LIMINF_ROUNDS), float(f[3]), float(f[4]), int(f[6]))
        return Outcome(LIMINF_ROUNDS * LIMINF_GAMES, 0, rows[0] if rows else "", err)

    # -- whole-run checks -------------------------------------------------

    def pooled_errors(self) -> list[str]:
        """Each cell's estimates pooled over the run against the closed form:
        a bias too small for one op shows up here."""
        errs = []
        for key, (sw_est, sw) in sorted(self.pooled.items()):
            est, se = sw_est / sw, sw ** -0.5
            if key[0] == "renewal":
                expect = self.closed[key[1]](key[2])
            else:
                expect = lead_value(key[2], key[3], key[4])[0]
            errs.append(self._within(f"pooled {key}", est, expect, Z_MAX * se))
        for (s, a, rounds), (n, sx, sxx) in sorted(self.liminf_games.items()):
            if n < 8:
                continue
            mean = sx / n
            se = (max(0.0, sxx - n * mean * mean) / (n - 1) / n) ** 0.5
            # games stop mid-cycle, so held blocks go uncounted: O(1/rounds) bias
            tol = Z_MAX * se + 10.0 / rounds
            errs.append(self._within(f"liminf {s}@{a} over {n} games", mean, self.closed[s](a), tol))
        return [e for e in errs if e]

    def liminf_pool_error(self, op: Op, pt, workers: int) -> Optional[str]:
        """mc_revenue_liminf promises the same estimate at any worker count."""
        s, a = op.params[0], op.params[1]
        other = self.pm.analysis.mc_revenue_liminf(
            s, a, LIMINF_ROUNDS, LIMINF_GAMES, seed=op.seed, threads=workers
        )
        if (other.estimate, other.stderr) != (pt.estimate, pt.stderr):
            return (
                f"liminf {s}@{a} seed {op.seed}: {pt.estimate!r} at 1 worker, "
                f"{other.estimate!r} at {workers}"
            )
        return None


class Digest:
    """sha256 over the seeded outputs of the first ``limit`` ops, so that
    runs of different lengths with one seed still agree."""

    def __init__(self, limit: int):
        self.limit = limit
        self.ops = 0
        self._h = hashlib.sha256()

    def add(self, op: Op, summary: str) -> None:
        if self.ops < self.limit:
            self._h.update(f"{op.index}:{op.kind}:{summary}\n".encode())
            self.ops += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def make_tmpdir(out_dir: Path) -> Path:
    d = out_dir / f"tmp-{os.getpid()}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d
