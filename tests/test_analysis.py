
import concurrent.futures
import math
import os

import pytest
from hypothesis import given, strategies as st

from posmine import analysis
from posmine.analysis import (
    DomainError,
    NoSignChange,
    NonRecurrent,
    crossover,
    growth_rate_check,
    mc_revenue_liminf,
    mc_revenue_renewal,
    mc_ruin_probability,
    mc_value,
    mc_walk_stats,
    potential_reward_decay_check,
    rev_frontier,
    rev_nsm_closed,
    rev_sm_closed,
    ruin_probability,
    sm_lead_reward,
    stake_dynamics,
    tie_break_bound,
    walk_stats,
)
from posmine.blocktree import MINER1, MINER2, begin_round, initial_state
from posmine.strategies import Scripted, WithholdOvertake
from posmine.blocktree import GENESIS, PublishPath
from posmine.blocktree import WAIT, attach_action
from posmine.strategies import (
    Engine,
    Frontier,
    PatientWithholdOvertake,
    StockStepper,
    _creator_stream,
    derive_seed,
    make_stepper,
)

M1, M2 = MINER1, MINER2


# --- closed forms -------------------------------------------------------------


def test_frontier_revenue_is_the_stake():
    for a in (0.05, 0.25, 0.49):
        assert rev_frontier(a) == a


def test_withhold_revenue_equals_stake_at_one_third():
    third = 1.0 / 3.0
    assert abs(rev_sm_closed(third) - third) < 1e-12


def test_withhold_revenue_spot_value():
    assert rev_sm_closed(0.35) == pytest.approx(0.3665085124197599, abs=1e-14)


def test_patient_revenue_spot_value():
    assert rev_nsm_closed(0.35) == pytest.approx(0.37134451104719307, abs=1e-14)


def test_withhold_beats_stake_only_above_one_third():
    assert rev_sm_closed(0.30) < 0.30
    assert rev_sm_closed(0.34) > 0.34
    assert rev_nsm_closed(0.32) < 0.32
    assert rev_nsm_closed(0.33) > 0.33


@pytest.mark.parametrize("fn", [rev_frontier, rev_sm_closed, rev_nsm_closed])
@pytest.mark.parametrize("bad", [0.0, 0.5, -0.1, 1.2])
def test_closed_forms_reject_out_of_range_stake(fn, bad):
    with pytest.raises(DomainError):
        fn(bad)


def test_crossover_of_withhold_is_one_third():
    x = crossover(rev_sm_closed, 0.25, 0.45)
    assert x == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_crossover_of_patient_variant():
    x = crossover(rev_nsm_closed, 0.25, 0.45)
    assert x == pytest.approx(0.327726986112711, abs=1e-6)


def test_where_patient_variant_stops_paying_extra():
    # g(a) = rev_nsm - rev_sm changes sign between 0.40 and 0.45; feed the
    # bisection a function whose fixed point sits at that crossing.
    x = crossover(lambda a: rev_nsm_closed(a) - rev_sm_closed(a) + a, 0.40, 0.45)
    assert x == pytest.approx(0.432701, abs=2e-6)


def test_crossover_needs_a_strict_sign_change():
    with pytest.raises(NoSignChange):
        crossover(rev_sm_closed, 0.35, 0.45)  # above the root on both ends
    with pytest.raises(NoSignChange):
        crossover(rev_frontier, 0.1, 0.4)  # f(a) - a is identically zero


# --- random-walk facts --------------------------------------------------------


def test_walk_expectations_at_a_quarter():
    up, down, dur = walk_stats(0.25)
    assert (up, down, dur) == (0.5, 1.5, 2.0)


def test_walk_identities():
    for a in (0.1, 0.25, 0.4):
        up, down, dur = walk_stats(a)
        assert down - up == pytest.approx(1.0, rel=1e-12)
        assert dur == pytest.approx(up + down, rel=1e-12)


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_tie_break_bound_matches_catch_up_chance(ell):
    assert tie_break_bound(0.3, ell) == ruin_probability(0.3, ell)


def test_catch_up_chance_values():
    assert ruin_probability(0.25, 0) == 1.0
    assert ruin_probability(0.25, 2) == pytest.approx((1.0 / 3.0) ** 2, rel=1e-12)
    with pytest.raises(DomainError):
        ruin_probability(0.25, -1)
    with pytest.raises(DomainError):
        tie_break_bound(0.25, 3)


def test_two_ahead_cycle_reward():
    assert sm_lead_reward(0.25) == 2.5


def test_empirical_walk_means_match_closed_forms():
    up, down, dur = mc_walk_stats(0.3, walks=40000, seed=5)
    eu, ed, et = walk_stats(0.3)
    assert up == pytest.approx(eu, rel=0.05)
    assert down == pytest.approx(ed, rel=0.05)
    assert dur == pytest.approx(et, rel=0.05)


def test_empirical_catch_up_chance():
    p = mc_ruin_probability(0.3, 2, walks=40000, seed=6)
    assert p == pytest.approx(ruin_probability(0.3, 2), abs=0.01)
    assert mc_ruin_probability(0.3, 0, walks=10, seed=1) == 1.0


@pytest.mark.parametrize("walks", [0, -4])
def test_walk_estimators_need_at_least_one_walk(walks):
    # an empty sample used to come back as nan, with numpy warnings
    with pytest.raises(DomainError, match=f"walks must be >= 1, got {walks}"):
        mc_walk_stats(0.3, walks=walks, seed=1)
    for lead in (0, 2):
        with pytest.raises(DomainError, match=f"walks must be >= 1, got {walks}"):
            mc_ruin_probability(0.3, lead, walks=walks, seed=1)


@given(a=st.floats(0.02, 0.48))
def test_catch_up_chance_recursion(a):
    r1 = ruin_probability(a, 1)
    assert ruin_probability(a, 2) == pytest.approx(r1 * r1, rel=1e-9)
    # one step: win now, or fall one further behind and climb back twice
    assert r1 == pytest.approx(a + (1 - a) * ruin_probability(a, 2), rel=1e-9)


@given(lo=st.floats(0.05, 0.30), hi=st.floats(0.36, 0.49))
def test_crossover_is_bracket_independent(lo, hi):
    assert crossover(rev_sm_closed, lo, hi) == pytest.approx(1.0 / 3.0, abs=1e-7)


# --- Monte Carlo revenue ------------------------------------------------------


def test_renewal_estimate_tracks_closed_form():
    pt = mc_revenue_renewal("sm", 0.3, cycles=20000, seed=11)
    assert pt.method == "mc_renewal"
    assert pt.strategy == "sm"
    assert pt.cycles == 20000
    assert pt.estimate == pytest.approx(rev_sm_closed(0.3), abs=0.01)
    assert pt.stderr is not None and pt.stderr < 0.01


def test_renewal_estimate_for_honest_play():
    pt = mc_revenue_renewal("frontier", 0.25, cycles=20000, seed=12)
    assert pt.estimate == pytest.approx(0.25, abs=0.01)


def test_renewal_raises_when_cycles_never_close():
    with pytest.raises(NonRecurrent):
        mc_revenue_renewal(Scripted([]), 0.3, cycles=5, seed=1, cycle_cap=50)


class _FaultyFrontier(Frontier):
    """Frontier whose every move is a program fault, played on the Engine."""

    def decide(self, half):
        raise RuntimeError("strategy bug")


def test_renewal_lets_a_strategy_fault_through():
    # only a cycle over its cap is NonRecurrent; a fault keeps its own type
    with pytest.raises(RuntimeError, match="^strategy bug$") as err:
        mc_revenue_renewal(_FaultyFrontier(), 0.3, cycles=5, seed=1)
    assert type(err.value) is RuntimeError


def test_non_recurrent_is_the_strategies_error():
    from posmine import strategies

    assert analysis.NonRecurrent is strategies.NonRecurrent
    with pytest.raises(strategies.NonRecurrent, match="^cycle exceeded 50 rounds without settling$"):
        next(strategies.iter_cycles(Scripted([]), 0.3, seed=1, cycle_cap=50))


def test_make_strategy_passes_a_strategy_through():
    from posmine.strategies import make_strategy

    nsm = PatientWithholdOvertake()
    assert make_strategy(nsm) is nsm


def test_liminf_estimate_and_fields():
    pt = mc_revenue_liminf("frontier", 0.3, rounds=800, games=6, seed=2, threads=1)
    assert pt.method == "mc_liminf"
    assert pt.games == 6 and pt.rounds == 800
    assert pt.estimate == pytest.approx(0.3, abs=0.05)


def test_liminf_is_identical_across_worker_counts():
    one = mc_revenue_liminf("sm", 0.35, rounds=600, games=8, seed=9, threads=1)
    four = mc_revenue_liminf("sm", 0.35, rounds=600, games=8, seed=9, threads=4)
    assert one.estimate == four.estimate
    assert one.stderr == four.stderr
    via_env = mc_revenue_liminf("sm", 0.35, rounds=600, games=8, seed=9)
    assert via_env.estimate == one.estimate


def test_unseeded_liminf_draws_a_fresh_base_per_call(monkeypatch):
    bases = []

    def spy(seed, index):
        bases.append(seed)
        return derive_seed(seed, index)

    monkeypatch.setattr(analysis, "derive_seed", spy)
    first = mc_revenue_liminf("frontier", 0.3, rounds=10, games=2)
    second = mc_revenue_liminf("frontier", 0.3, rounds=10, games=2)
    assert bases[0] == bases[1] and bases[2] == bases[3]  # one base per call
    assert bases[0] != bases[2]
    assert first.seed is None and second.seed is None


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_the_worker_count_follows_the_job_size(monkeypatch, cpus):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    workers, least = analysis._workers, analysis._POOL_MIN_ROUNDS
    assert workers(None, 4, least // 4 - 1) == 1
    assert workers(None, 4, least // 4) == min(cpus, 4)
    assert workers(None, 1, least) == 1  # one game, one worker
    assert workers(None, 64, least) == min(cpus, 64)
    assert workers(1, 64, least) == 1
    assert workers(3, 1, 10) == 3


@pytest.mark.parametrize("threads", [0, -3])
def test_liminf_rejects_a_worker_count_below_one(threads):
    with pytest.raises(DomainError, match=f"threads must be >= 1, got {threads}"):
        mc_revenue_liminf("frontier", 0.3, rounds=10, games=4, threads=threads)


def test_a_large_liminf_job_uses_the_pool_and_agrees_with_one_worker(monkeypatch):
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    rounds = analysis._POOL_MIN_ROUNDS // 4
    pooled = mc_revenue_liminf("frontier", 0.3, rounds=rounds, games=4, seed=5)
    assert pools == [2]
    one = mc_revenue_liminf("frontier", 0.3, rounds=rounds, games=4, seed=5, threads=1)
    assert pools == [2]
    assert (pooled.estimate, pooled.stderr) == (one.estimate, one.stderr)


def test_no_more_workers_than_games(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one game started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    pt = mc_revenue_liminf("frontier", 0.3, rounds=10, games=1, seed=1, threads=3)
    assert pt.games == 1 and pt.stderr is None


# --- weighted game value ------------------------------------------------------


def test_value_from_a_fresh_game_is_zero_at_the_fair_rate():
    lam = rev_sm_closed(0.25)
    v = mc_value("sm", initial_state(), lam, 0.25, episodes=5000, seed=3)
    assert abs(v.estimate) <= 4 * v.stderr + 1e-9


def test_value_from_a_two_block_lead():
    # two unpublished strategic blocks over a bare chain: the overtake always
    # lands, so the value is (2 + a/(1-2a)) * (1 - lam) for any lam
    start = initial_state()
    begin_round(start, M1)
    begin_round(start, M1)
    expect_r1 = 2 + 0.25 / 0.5
    for lam in (0.25, rev_sm_closed(0.25)):
        v = mc_value(WithholdOvertake(), start, lam, 0.25, episodes=4000, seed=4)
        assert v.estimate == pytest.approx(expect_r1 * (1 - lam), abs=5 * v.stderr + 1e-9)


def test_value_of_a_script_from_a_start_state():
    # every episode starts at round 3, where the script publishes the two held
    # blocks over the bare chain: they beat Miner 2's one possible block
    start = initial_state()
    begin_round(start, M1)
    begin_round(start, M1)
    script = Scripted([(3, PublishPath(frozenset({1, 2}), GENESIS), True)])
    v = mc_value(script, start, 0.4, 0.3, episodes=5, seed=1)
    assert (v.estimate, v.stderr, v.episodes) == (pytest.approx(2 * 0.6), 0.0, 5)
    with pytest.raises(NonRecurrent):  # a script that never settles
        mc_value(Scripted([]), initial_state(), 0.3, 0.3, 5, seed=1, cap_rounds=50)


def engine_loop_value(strategy, start, lam, alpha, episodes, seed=None, cap_rounds=10**6):
    """``mc_value``'s episode loop before it stepped ``make_stepper``: one
    ``Engine`` per episode, summing every round's r1 and r2; kept as the
    oracle for the stepper loop."""
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
    return mean, math.sqrt(var / episodes)


def chain_start(held):
    """Miner 1's block 1 and Miner 2's block 2 on the public chain, then
    ``held`` private Miner-1 blocks."""
    state = initial_state()
    begin_round(state, M1)
    attach_action(state, M1, PublishPath(frozenset({1}), GENESIS))
    begin_round(state, M2)
    attach_action(state, M2, PublishPath(frozenset({2}), 1))
    for _ in range(held):
        begin_round(state, M1)
    return state


def race_start():
    """One held Miner-1 block against Miner 2's published block 2."""
    state = initial_state()
    begin_round(state, M1)
    begin_round(state, M2)
    attach_action(state, M2, PublishPath(frozenset({2}), GENESIS))
    return state


def lead_start(k):
    state = initial_state()
    for _ in range(k):
        begin_round(state, M1)
    return state


# (strategy factory, start, alpha, episodes): the start's chain counts are
# not zero, or the script publishes mid-episode, or both
VALUE_CASES = {
    "frontier-on-a-chain": (Frontier, lambda: chain_start(0), 0.35, 400),
    "script-publishes-mid-episode": (
        # held blocks 3 and 4 go onto Miner 1's chain block at round 6,
        # overtaking only if Miner 2 made neither block 5 nor block 6
        lambda: Scripted([(6, PublishPath(frozenset({3, 4}), 1), False), (9, WAIT, True)]),
        lambda: chain_start(2), 0.45, 300,
    ),
    "sm-from-a-race": (WithholdOvertake, race_start, 0.35, 600),
    "nsm-from-a-race": (PatientWithholdOvertake, race_start, 0.4, 600),
    "nsm-from-a-three-block-lead": (PatientWithholdOvertake, lambda: lead_start(3), 0.3, 300),
}


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_value_equals_the_engine_loop(case, lam):
    make, start, alpha, episodes = VALUE_CASES[case]
    v = mc_value(make(), start(), lam, alpha, episodes, seed=5)
    assert (v.estimate, v.stderr) == engine_loop_value(make(), start(), lam, alpha, episodes, seed=5)


def test_value_episode_cap_is_inclusive():
    # every episode settles on its fifth round
    script, start = Scripted([(5, WAIT, True)]), initial_state()
    v = mc_value(script, start, 0.3, 0.3, 3, seed=2, cap_rounds=5)
    assert (v.estimate, v.stderr) == engine_loop_value(script, start, 0.3, 0.3, 3, seed=2, cap_rounds=5)
    for value in (mc_value, engine_loop_value):
        with pytest.raises(NonRecurrent, match="^episode exceeded 4 rounds$"):
            value(script, start, 0.3, 0.3, 3, seed=2, cap_rounds=4)


@pytest.mark.parametrize("cls", [Frontier, WithholdOvertake, PatientWithholdOvertake])
def test_a_start_always_gets_the_engine(cls):
    assert isinstance(make_stepper(cls()), StockStepper)
    for start in (initial_state(), lead_start(2)):
        if cls is Frontier and start.unpublished_1:
            continue  # frontier never withholds
        engine = make_stepper(cls(), start)
        assert isinstance(engine, Engine) and engine.state is start


@pytest.mark.parametrize("episodes", [0, -3])
def test_value_needs_at_least_one_episode(episodes):
    with pytest.raises(DomainError, match="episodes"):
        mc_value("sm", initial_state(), 0.3, 0.25, episodes=episodes, seed=3)


# --- long-game checks ---------------------------------------------------------


def test_honest_chain_grows_every_round():
    rep = growth_rate_check("frontier", 0.3, rounds=2000, seed=7)
    assert rep.holds
    assert rep.tail_min == 1.0
    assert rep.series.shape == (2000,)


def test_withhold_chain_growth_stays_near_opponent_rate():
    rep = growth_rate_check("sm", 0.25, rounds=6000, seed=8)
    assert rep.holds
    assert rep.tail_min >= rep.bound == (1 - 0.25) - 0.01


def test_publishable_advantage_dies_off_for_recurrent_play():
    rep = potential_reward_decay_check("nsm", 0.35, rounds=3000, seed=9)
    assert rep.holds
    assert rep.tail_max < rep.eps


def test_honest_play_has_no_publishable_advantage():
    rep = potential_reward_decay_check("frontier", 0.3, rounds=400, seed=10)
    assert rep.holds and rep.tail_max == 0.0


def test_a_hoarder_on_a_lucky_stream_fails_the_decay_check():
    # every round is a strategic block and none is ever published, so the
    # one-shot advantage at round n is n itself
    rep = potential_reward_decay_check(
        Scripted([]), 0.3, rounds=300, creators=[M1] * 300
    )
    assert not rep.holds
    assert rep.tail_max == 1.0


@pytest.mark.parametrize("rounds", [0, -5])
@pytest.mark.parametrize("check", [growth_rate_check, potential_reward_decay_check])
def test_long_game_checks_need_at_least_one_round(check, rounds):
    # a check over no rounds would pass (decay) or fail (growth) on nothing
    with pytest.raises(DomainError, match="rounds"):
        check("sm", 0.3, rounds=rounds, seed=1)


# --- dynamic stake ------------------------------------------------------------


def test_honest_stake_holds_its_level():
    out = stake_dynamics("frontier", 0.33, coins=100000, rounds=30000, seed=13)
    assert len(out.fractions) == 30000
    assert out.final == pytest.approx(0.33, abs=0.01)
    assert out.alpha0 == 0.33 and out.coins0 == 100000


def test_stake_dynamics_rejects_bad_arguments():
    with pytest.raises(DomainError):
        stake_dynamics("frontier", 0.33, coins=0, rounds=10)
    with pytest.raises(DomainError):
        stake_dynamics("frontier", 0.6, coins=100, rounds=10)
