"""Closed-form revenues, random-walk facts, and Monte Carlo estimators.

Closed forms are exact rational functions of the stake fraction alpha,
valid on (0, 1/2).  Monte Carlo revenue comes in two flavors: the long-run
chain-share of many independent finite games (`mc_revenue_liminf`) and the
renewal-reward ratio over settle-to-settle cycles (`mc_revenue_renewal`);
the two must agree within joint error for recurrent strategies.  The
remaining checks replay single long games: chain growth rate, decay of the
one-shot potential reward, and the dynamic-stake variant where the creator
probability follows Miner 1's coin balance.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .blocktree import GameState, MINER1, MINER2, potential_reward
from .strategies import (
    Engine,
    _creator_stream,
    derive_seed,
    iter_cycles,
    make_strategy,
    run_totals,
)

__all__ = [
    "DomainError",
    "NoSignChange",
    "NonRecurrent",
    "BadThreadCount",
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


class DomainError(ValueError):
    """Argument outside the strategic regime 0 < alpha < 1/2."""


class NoSignChange(ValueError):
    """Bisection bracket does not straddle a root."""


class NonRecurrent(RuntimeError):
    """A cycle or episode exceeded the round cap without settling."""


class BadThreadCount(ValueError):
    """POSMINE_THREADS is set to something other than an integer."""


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must be in (0, 1/2), got {alpha}")
    return alpha


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


def crossover(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Bisect for the stake fraction where f(alpha) = alpha."""
    g_lo = f(lo) - lo
    g_hi = f(hi) - hi
    if not (g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo):
        raise NoSignChange(f"no strict sign change of f(a)-a on [{lo}, {hi}]")
    while hi - lo > tol:
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
    _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    pos = np.ones(walks, dtype=np.int64)
    ups = np.zeros(walks, dtype=np.int64)
    steps = np.zeros(walks, dtype=np.int64)
    alive = np.arange(walks)
    while alive.size:
        up = rng.random(alive.size) < alpha
        pos[alive] += np.where(up, 1, -1)
        ups[alive] += up
        steps[alive] += 1
        alive = alive[pos[alive] > 0]
    ex = float(ups.mean())
    etau = float(steps.mean())
    return ex, etau - ex, etau


def mc_ruin_probability(
    alpha: float,
    lead: int,
    walks: int = 10**6,
    seed: Optional[int] = None,
    floor: int = 80,
) -> float:
    """Empirical chance of erasing a deficit of ``lead`` (walk truncated at
    ``-floor``, which contributes a vanishing bias)."""
    _check_alpha(alpha)
    if lead <= 0:
        return 1.0
    rng = np.random.default_rng(seed)
    pos = np.zeros(walks, dtype=np.int64)
    won = np.zeros(walks, dtype=bool)
    alive = np.arange(walks)
    while alive.size:
        up = rng.random(alive.size) < alpha
        pos[alive] += np.where(up, 1, -1)
        p = pos[alive]
        hit = p >= lead
        won[alive[hit]] = True
        alive = alive[~hit & (p > -floor)]
    return float(won.mean())


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


def _workers(threads: Optional[int]) -> int:
    if threads is None:
        env = os.environ.get("POSMINE_THREADS")
        try:
            threads = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise BadThreadCount(f"POSMINE_THREADS must be an integer, got {env!r}") from None
    return max(1, threads)


def mc_revenue_liminf(
    strategy_id: str,
    alpha: float,
    rounds: int,
    games: int,
    seed: Optional[int] = None,
    threads: Optional[int] = None,
) -> RevenuePoint:
    """Mean terminal chain share over independent seeded games.

    Per-game RNG streams are keyed by (seed, game index), so the result is
    identical no matter how many workers split the games.
    """
    _check_alpha(alpha)
    base = seed if seed is not None else 0
    jobs = [
        (strategy_id, alpha, rounds, derive_seed(base, i)) for i in range(games)
    ]
    n = _workers(threads)
    if n <= 1 or games < 4:
        revs = [_liminf_one(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(n, games)) as pool:
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
    cycles, with a delta-method standard error."""
    _check_alpha(alpha)
    if isinstance(strategy, str):
        strategy = make_strategy(strategy)
    n = 0
    sx = sy = sxx = syy = sxy = 0.0
    try:
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
    except RuntimeError as e:
        raise NonRecurrent(str(e)) from e
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
    from ``start`` until the strategy settles."""
    _check_alpha(alpha)
    if isinstance(strategy, str):
        strategy = make_strategy(strategy)
    creators = _creator_stream(alpha, seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(episodes):
        eng = Engine(strategy, state=start.clone())
        r1_sum = r2_sum = 0
        steps = 0
        capped = False
        while not capped:
            _, _, r1, r2, capped = eng.play(next(creators))
            r1_sum += r1
            r2_sum += r2
            steps += 1
            if steps > cap_rounds:
                raise NonRecurrent(f"episode exceeded {cap_rounds} rounds")
        v = (1 - lam) * r1_sum - lam * r2_sum
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
    strategy,
    alpha: float,
    rounds: int,
    seed: Optional[int] = None,
    slack: float = 0.01,
) -> GrowthReport:
    """Chain height per round must stay above (1 - alpha) - slack over the
    second half of the run."""
    _check_alpha(alpha)
    if isinstance(strategy, str):
        strategy = make_strategy(strategy)
    heights = np.zeros(rounds, dtype=np.int64)
    run_totals(strategy, alpha, rounds, seed, heights_out=heights)
    series = heights / np.arange(1, rounds + 1)
    tail = series[rounds // 2 :]
    tail_min = float(tail.min()) if tail.size else 0.0
    bound = (1 - alpha) - slack
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
    eps: float = 0.02,
) -> DecayReport:
    """One-shot publishable advantage divided by the round number must fall
    below eps over the second half of the run."""
    _check_alpha(alpha)
    if isinstance(strategy, str):
        strategy = make_strategy(strategy)
    eng = Engine(strategy)
    stream = _creator_stream(alpha, seed, creators, rounds)
    tail_max = 0.0
    for i in range(1, rounds + 1):
        eng.play(next(stream))
        if i > rounds // 2:
            ratio = potential_reward(eng.state) / i
            if ratio > tail_max:
                tail_max = ratio
    return DecayReport(holds=tail_max < eps, eps=eps, tail_max=tail_max)


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
    strategy_id: str,
    alpha0: float,
    coins: int,
    rounds: int,
    seed: Optional[int] = None,
) -> StakeSeries:
    """Replay a game where the creator draw follows Miner 1's live coin
    share; every block locked into the chain at a settle mints one coin to
    its creator.  (Blocks only mint once they can no longer be forked.)"""
    _check_alpha(alpha0)
    if coins < 1:
        raise DomainError("need at least one initial coin")
    strategy = make_strategy(strategy_id)
    eng = Engine(strategy)
    rng = random.Random(seed)
    m1 = round(alpha0 * coins)
    total = coins
    minted_t1 = 0
    minted_h = 0
    out = StakeSeries(alpha0=alpha0, coins0=coins)
    frac = m1 / total
    for _ in range(rounds):
        creator = MINER1 if rng.random() < frac else MINER2
        _, _, _, _, capped = eng.play(creator)
        if capped:
            d_t1 = eng.locked_t1 - minted_t1
            d_h = eng.locked_h - minted_h
            m1 += d_t1
            total += d_h
            minted_t1 = eng.locked_t1
            minted_h = eng.locked_h
            frac = m1 / total
        out.fractions.append(frac)
    return out
