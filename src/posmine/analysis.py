"""Closed-form revenues, random-walk facts, and Monte Carlo estimators.

Closed forms are exact rational functions of the stake fraction alpha,
valid on (0, 1/2).  Monte Carlo revenue comes in two flavors: the long-run
chain-share of many independent finite games (`mc_revenue_liminf`) and the
renewal-reward ratio over settle-to-settle cycles (`mc_revenue_renewal`);
the two must agree within joint error for recurrent strategies.  The
remaining checks replay single long games: chain growth rate, decay of the
one-shot potential reward, and the dynamic-stake variant where the creator
probability follows Miner 1's coin balance.

Renewal cycles, long-game totals, growth series, the decay check and
dynamic-stake runs of the stock strategies are played by
`strategies.StockStepper` (through `iter_cycles`, `run_totals` and
`make_stepper`), which builds no block tree; the decay check reads the
one-shot advantage off the stepper's node.  `mc_value` starts from a given
block tree, so its `make_stepper` is always the engine.  Every round loop
draws as the engine's: Miner 1 creates a round iff `rand() < alpha` (the
live share in stake runs).  Estimators take a strategy or its
name; a cycle or episode over its round cap raises `NonRecurrent` (from
`strategies`).  Fixed tolerances: `crossover` to 1e-9, growth slack 0.01,
decay threshold 0.02, ruin walks cut at -80.

Importing this module loads neither numpy nor the process pool.  numpy is
imported on the first call of `mc_walk_stats`, `mc_ruin_probability`,
`growth_rate_check` or `mc_revenue_liminf` (which keeps numpy's pairwise
mean and std, so seeded estimates stay bit-identical), and
`concurrent.futures` only when a liminf job runs on more than one worker.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .blocktree import MINER1, GameState
from .strategies import (
    DomainError,
    NonRecurrent,
    _check_rounds,
    _draw_source,
    derive_seed,
    iter_cycles,
    make_stepper,
    make_strategy,
    run_totals,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DomainError",
    "NoSignChange",
    "NonRecurrent",
    "MajorityStake",
    "rev_frontier",
    "rev_sm_closed",
    "rev_nsm_closed",
    "crossover",
    "walk_stats",
    "ruin_probability",
    "tie_break_bound",
    "sm_lead_reward",
    "mc_walk_stats",
    "mc_ruin_probability",
    "RevenuePoint",
    "ValueEstimate",
    "mc_revenue_liminf",
    "mc_revenue_renewal",
    "mc_value",
    "GrowthReport",
    "growth_rate_check",
    "DecayReport",
    "potential_reward_decay_check",
    "StakeSeries",
    "stake_dynamics",
]


class NoSignChange(ValueError):
    """Bisection bracket does not straddle a root."""


class MajorityStake(RuntimeError):
    """A dynamic-stake run left Miner 1 with half the coins or more, where
    the game has no strategic regime (and withholding need never settle)."""

    def __init__(self, round_: int, share: float):
        super().__init__(f"Miner 1's stake share reached {share!r} >= 1/2 at round {round_}")
        self.round = round_
        self.share = share


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must be in (0, 1/2), got {alpha}")
    return alpha


def _check_count(name: str, n: int) -> None:
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")


# ---------------------------------------------------------------------------
# closed forms


def rev_frontier(alpha: float) -> float:
    """Honest mining earns exactly the stake share."""
    return _check_alpha(alpha)


def rev_sm_closed(alpha: float) -> float:
    """Long-run chain share of the withhold-and-overtake strategy."""
    a = _check_alpha(alpha)
    num = a * a * (4 + a * (-9 + a * 4))
    den = 1 + a * (-1 + a * (-2 + a))
    return num / den


def rev_nsm_closed(alpha: float) -> float:
    """Long-run chain share of the patient (fork-recycling) variant."""
    a = _check_alpha(alpha)
    num = a * a * (
        4 + a * (-12 + a * (15 + a * (-12 + a * (-4 + a * (18 + a * (-13 + a * 3))))))
    )
    den = 1 + a * (
        -2 + a * (1 + a * (1 + a * (-14 + a * (36 + a * (-50 + a * (40 + a * (-17 + a * 3)))))))
    )
    return num / den


def crossover(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisect for the stake fraction where f(alpha) = alpha, to a bracket
    narrower than 1e-9."""
    g_lo = f(lo) - lo
    g_hi = f(hi) - hi
    if not (g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo):
        raise NoSignChange(f"no strict sign change of f(a)-a on [{lo}, {hi}]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        g_mid = f(mid) - mid
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# random-walk facts


def walk_stats(alpha: float) -> tuple[float, float, float]:
    """(up-steps, down-steps, duration) expectations for the catch-up walk
    started one above the absorbing level."""
    a = _check_alpha(alpha)
    return a / (1 - 2 * a), (1 - a) / (1 - 2 * a), 1 / (1 - 2 * a)


def ruin_probability(alpha: float, lead: int) -> float:
    """Chance the lagging miner ever makes up a deficit of ``lead``."""
    a = _check_alpha(alpha)
    if lead < 0:
        raise DomainError(f"lead must be >= 0, got {lead}")
    return (a / (1 - a)) ** lead


def tie_break_bound(alpha: float, ell: int) -> float:
    """Upper bound on the chance a width-``ell`` tie ever flips the chain."""
    a = _check_alpha(alpha)
    if ell not in (0, 1, 2):
        raise DomainError(f"ell must be 0, 1 or 2, got {ell}")
    return (a / (1 - a)) ** ell


def sm_lead_reward(alpha: float) -> float:
    """Expected Miner-1 blocks created over a two-ahead overtake cycle."""
    a = _check_alpha(alpha)
    return 2 + a / (1 - 2 * a)


def mc_walk_stats(
    alpha: float, walks: int = 10**6, seed: Optional[int] = None
) -> tuple[float, float, float]:
    """Empirical (up, down, duration) means over seeded catch-up walks."""
    import numpy as np

    _check_alpha(alpha)
    _check_count("walks", walks)
    rng = np.random.default_rng(seed)
    pos = np.ones(walks, dtype=np.int64)
    ups = steps = 0
    while pos.size:
        up = rng.random(pos.size) < alpha
        ups += int(np.count_nonzero(up))
        steps += pos.size
        pos += np.where(up, 1, -1)
        pos = pos[pos > 0]
    ex = ups / walks
    etau = steps / walks
    return ex, etau - ex, etau


def mc_ruin_probability(
    alpha: float, lead: int, walks: int = 10**6, seed: Optional[int] = None
) -> float:
    """Empirical chance of erasing a deficit of ``lead`` (each walk is
    truncated at -80, which contributes a vanishing bias)."""
    import numpy as np

    _check_alpha(alpha)
    _check_count("walks", walks)
    if lead <= 0:
        return 1.0
    rng = np.random.default_rng(seed)
    pos = np.zeros(walks, dtype=np.int64)
    hits = 0
    while pos.size:
        pos += np.where(rng.random(pos.size) < alpha, 1, -1)
        hit = pos >= lead
        hits += int(np.count_nonzero(hit))
        pos = pos[~hit & (pos > -80)]
    return hits / walks


# ---------------------------------------------------------------------------
# Monte Carlo revenue


@dataclass(frozen=True)
class RevenuePoint:
    alpha: float
    strategy: str
    method: str  # closed_form | mc_liminf | mc_renewal
    estimate: float
    stderr: Optional[float] = None
    rounds: Optional[int] = None
    games: Optional[int] = None
    cycles: Optional[int] = None
    seed: Optional[int] = None


def _liminf_one(args: tuple[str, float, int, int]) -> float:
    strategy_id, alpha, rounds, seed = args
    tot = run_totals(make_strategy(strategy_id), alpha, rounds, seed)
    return tot.t1 / tot.height if tot.height else 0.0


# A liminf job of fewer rounds in all stays in-process.  Measured (Python 3.11, 2 cores,
# 4-64 games, best of 7, 1 vs 2 workers): a pool start-up costs 10-17 ms; below it nsm
# (the slowest) lost at most 7 ms in-process, above it frontier at most 15 ms in a pool.
_POOL_MIN_ROUNDS = 100_000


def _workers(threads: Optional[int], games: int, rounds: int) -> int:
    if threads is not None:
        _check_count("threads", threads)
        return threads
    if games * rounds < _POOL_MIN_ROUNDS:
        return 1
    return min(os.cpu_count() or 1, games)


def mc_revenue_liminf(
    strategy_id: str,
    alpha: float,
    rounds: int,
    games: int,
    seed: Optional[int] = None,
    threads: Optional[int] = None,
) -> RevenuePoint:
    """Mean terminal chain share over independent seeded games.

    The games run on ``min(threads, games)`` worker processes, in this one
    for 1.  By default a job under ``_POOL_MIN_ROUNDS`` games x rounds runs
    in-process, a larger one on ``min(os.cpu_count(), games)`` workers.  RNG
    streams are keyed by (seed, game index), so every worker count agrees;
    with no seed the call draws one base from OS entropy for all its games.
    """
    import numpy as np

    _check_alpha(alpha)
    _check_count("rounds", rounds)
    _check_count("games", games)
    base = seed if seed is not None else random.SystemRandom().getrandbits(64)
    jobs = [(strategy_id, alpha, rounds, derive_seed(base, i)) for i in range(games)]
    n = min(_workers(threads, games, rounds), games)
    if n == 1:
        revs = [_liminf_one(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n) as pool:
            revs = list(pool.map(_liminf_one, jobs, chunksize=max(1, games // (4 * n))))
    arr = np.asarray(revs)
    stderr = float(arr.std(ddof=1) / math.sqrt(games)) if games > 1 else None
    return RevenuePoint(
        alpha=alpha,
        strategy=strategy_id,
        method="mc_liminf",
        estimate=float(arr.mean()),
        stderr=stderr,
        rounds=rounds,
        games=games,
        seed=seed,
    )


def mc_revenue_renewal(
    strategy,
    alpha: float,
    cycles: int,
    seed: Optional[int] = None,
    cycle_cap: int = 10**6,
) -> RevenuePoint:
    """Renewal-reward estimate sum(R1)/sum(R1+R2) over settle-to-settle
    cycles, with a delta-method standard error.  A cycle that reaches
    ``cycle_cap`` rounds raises :class:`NonRecurrent` (from
    ``iter_cycles``); any other error of the strategy propagates as is."""
    _check_alpha(alpha)
    _check_count("cycles", cycles)
    strategy = make_strategy(strategy)
    n = 0
    sx = sy = sxx = syy = sxy = 0.0
    for cyc in iter_cycles(strategy, alpha, seed, cycle_cap=cycle_cap):
        x = float(cyc.r1)
        y = float(cyc.r1 + cyc.r2)
        sx += x
        sy += y
        sxx += x * x
        syy += y * y
        sxy += x * y
        n += 1
        if n >= cycles:
            break
    theta = sx / sy if sy else 0.0
    stderr = None
    if n > 1 and sy > 0:
        ybar = sy / n
        var = max(0.0, (sxx - 2 * theta * sxy + theta * theta * syy) / n)
        stderr = math.sqrt(var / n) / ybar
    return RevenuePoint(
        alpha=alpha,
        strategy=getattr(strategy, "name", str(strategy)),
        method="mc_renewal",
        estimate=theta,
        stderr=stderr,
        cycles=n,
        seed=seed,
    )


@dataclass(frozen=True)
class ValueEstimate:
    estimate: float
    stderr: float
    episodes: int
    lam: float
    alpha: float


def mc_value(
    strategy,
    start: GameState,
    lam: float,
    alpha: float,
    episodes: int,
    seed: Optional[int] = None,
    cap_rounds: int = 10**6,
) -> ValueEstimate:
    """Monte Carlo weighted game reward (1-lam)*R1 - lam*R2 accumulated
    from ``start`` until the strategy settles; ``lam`` must lie in [0, 1].

    Each episode steps ``make_stepper(strategy, start.clone())``, Miner 1
    creating a round iff ``rand() < alpha``; R1 and R2 are the settle's
    chain counts less ``start``'s.  An episode unsettled after
    ``cap_rounds`` rounds raises :class:`NonRecurrent`."""
    _check_alpha(alpha)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lam must be in [0, 1], got {lam}")
    _check_count("episodes", episodes)
    strategy = make_strategy(strategy)
    rand = _draw_source(seed)
    s1 = start.chain_owned(MINER1)
    s2 = start.tip_height() - s1
    total = 0.0
    total_sq = 0.0
    for _ in range(episodes):
        step = make_stepper(strategy, start.clone()).step
        for _ in range(cap_rounds):
            settled = step(rand() < alpha)
            if settled is not None:
                break
        else:
            raise NonRecurrent(f"episode exceeded {cap_rounds} rounds")
        v = (1 - lam) * (settled[0] - s1) - lam * (settled[1] - s2)
        total += v
        total_sq += v * v
    mean = total / episodes
    var = max(0.0, total_sq / episodes - mean * mean)
    stderr = math.sqrt(var / episodes)
    return ValueEstimate(mean, stderr, episodes, lam, alpha)


# ---------------------------------------------------------------------------
# long-game checks


@dataclass
class GrowthReport:
    holds: bool
    bound: float
    tail_min: float
    series: np.ndarray  # chain height / round number, per round


def growth_rate_check(
    strategy, alpha: float, rounds: int, seed: Optional[int] = None
) -> GrowthReport:
    """Chain height per round must stay above (1 - alpha) - 0.01 (the
    report's ``bound``) over the second half of the run."""
    import numpy as np

    _check_alpha(alpha)
    _check_count("rounds", rounds)
    strategy = make_strategy(strategy)
    heights = [0] * rounds
    run_totals(strategy, alpha, rounds, seed, heights_out=heights)
    series = np.array(heights, dtype=np.int64) / np.arange(1, rounds + 1)
    tail = series[rounds // 2 :]
    tail_min = float(tail.min()) if tail.size else 0.0
    bound = (1 - alpha) - 0.01
    return GrowthReport(holds=tail_min >= bound, bound=bound, tail_min=tail_min, series=series)


@dataclass
class DecayReport:
    holds: bool
    eps: float
    tail_max: float


def potential_reward_decay_check(
    strategy,
    alpha: float,
    rounds: int,
    seed: Optional[int] = None,
    creators=None,
) -> DecayReport:
    """One-shot publishable advantage divided by the round number must fall
    below 0.02 (the report's ``eps``) over the second half of the run.

    The rounds are played by ``strategies.make_stepper``, whose
    ``potential_reward()`` gives the advantage after each round: read off
    the node for the stock strategies, ``blocktree.potential_reward`` of the
    engine's state for any other."""
    _check_alpha(alpha)
    _check_count("rounds", rounds)
    strategy = make_strategy(strategy)
    stepper = make_stepper(strategy)
    step, pot = stepper.step, stepper.potential_reward
    rand = _draw_source(seed, creators, rounds)
    tail_max = 0.0
    for i in range(1, rounds + 1):
        step(rand() < alpha)
        if i > rounds // 2:
            ratio = pot() / i
            if ratio > tail_max:
                tail_max = ratio
    return DecayReport(holds=tail_max < 0.02, eps=0.02, tail_max=tail_max)


# ---------------------------------------------------------------------------
# dynamic stake


@dataclass
class StakeSeries:
    alpha0: float
    coins0: int
    fractions: list[float] = field(default_factory=list)

    @property
    def final(self) -> float:
        return self.fractions[-1] if self.fractions else self.alpha0


def stake_dynamics(
    strategy,
    alpha0: float,
    coins: int,
    rounds: int,
    seed: Optional[int] = None,
) -> StakeSeries:
    """Replay a game where the creator draw follows Miner 1's live coin
    share; every block locked into the chain at a settle mints one coin to
    its creator.  (Blocks only mint once they can no longer be forked.)

    ``strategy`` is a name or a strategy object; the rounds are played by
    ``strategies.make_stepper``, Miner 1 creating a round iff ``rand() <
    frac``, its share before the round.  Raises :class:`MajorityStake` at
    the first settle that leaves Miner 1 with a share of 1/2 or more."""
    _check_alpha(alpha0)
    if coins < 1:
        raise DomainError("need at least one initial coin")
    _check_rounds(rounds)
    strategy = make_strategy(strategy)
    step = make_stepper(strategy).step
    rand = _draw_source(seed)
    m1 = round(alpha0 * coins)
    total = coins
    out = StakeSeries(alpha0=alpha0, coins0=coins)
    fractions = out.fractions
    frac = m1 / total
    if frac >= 0.5:
        raise DomainError(f"{coins} coins at alpha0 {alpha0} give Miner 1 a share of {frac} >= 1/2")
    for r in range(1, rounds + 1):
        settled = step(rand() < frac)
        if settled is not None:
            m1 += settled[0]
            total += settled[0] + settled[1]
            frac = m1 / total
            if frac >= 0.5:
                raise MajorityStake(r, frac)
        fractions.append(frac)
    return out
