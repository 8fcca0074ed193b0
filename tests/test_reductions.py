import pytest

from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    PublishPath,
    WAIT,
    begin_round,
    initial_state,
)
from posmine.strategies import (
    Frontier,
    Scripted,
    UnreachableState,
    make_strategy,
    run_game,
)
from posmine.structure import classify_trace
from posmine.reductions import (
    DeferredPublicationPlan,
    InnerNotTimeserving,
    NotForkingCheckpoint,
    SigmaMap,
    W0NonPositive,
    checkpoint_preserve_case1,
    lcm_reduce,
    lcm_step_reduce,
    orderly_reduce,
)
from conftest import TopHeavyRacer, non_lcm_script, play_rounds, script_from_trace

M1, M2 = MINER1, MINER2


# --- sigma bookkeeping ----------------------------------------------------------


def test_sigma_is_identity_by_default():
    s = SigmaMap()
    assert s(7) == 7
    s.set(3, 5)
    assert s(3) == 5
    s.set(3, 3)  # resetting to identity drops the entry
    assert s.diff == {}


def test_sigma_bijection_check_catches_collisions():
    s = SigmaMap()
    s.set(3, 5)
    s.set(4, 5)
    with pytest.raises(AssertionError):
        s.check_bijection()
    t = SigmaMap()
    t.set(3, 5)  # 5 is also a fixed point of the domain below
    with pytest.raises(AssertionError):
        t.check_bijection(domain=[3, 5])


# --- orderly reduction ------------------------------------------------------------


def test_orderly_reduction_swaps_in_the_smallest_blocks():
    creators = [M1, M1, M2, M1]
    moves = [(4, PublishPath(frozenset({2, 4}), GENESIS), True)]
    inner = run_game(Scripted(moves), 0.3, 4, creators=creators)
    red = run_game(
        orderly_reduce(Scripted(moves), check=True), 0.3, 4, creators=creators
    )
    assert red.m1_actions[3] == PublishPath(frozenset({1, 2}), GENESIS)
    assert red.revenue_series() == inner.revenue_series()
    assert classify_trace(red).orderly.holds
    assert not classify_trace(inner).orderly.holds


def test_orderly_reduction_fixes_frontier():
    a = run_game(Frontier(), 0.35, 300, seed=8)
    b = run_game(orderly_reduce(Frontier(), check=True), 0.35, 300, seed=8)
    assert a.m1_actions == b.m1_actions
    assert a.revenue_series() == b.revenue_series()


@pytest.mark.parametrize("name", ["sm", "nsm"])
def test_orderly_reduction_fixes_the_builtin_strategies(name):
    a = run_game(make_strategy(name), 0.4, 500, seed=3)
    b = run_game(orderly_reduce(make_strategy(name), check=True), 0.4, 500, seed=3)
    assert a.m1_actions == b.m1_actions
    assert a.revenue_series() == b.revenue_series()


def test_orderly_reduction_on_a_settling_non_orderly_racer():
    # the racer abandons its oldest blocks at every settle, so the two
    # games prune their pools differently; revenue must still match
    for seed in (1, 2, 3):
        inner = run_game(TopHeavyRacer(), 0.4, 3000, seed=seed)
        moves = script_from_trace(inner)
        replay = run_game(Scripted(moves), 0.4, 3000, seed=seed)
        assert replay.revenue_series() == inner.revenue_series()
        red = run_game(
            orderly_reduce(Scripted(moves), check=True), 0.4, 3000, seed=seed
        )
        assert red.revenue_series() == inner.revenue_series()
        report = classify_trace(red)
        assert report.orderly.holds, report.orderly.violations[:2]
        assert not classify_trace(inner).orderly.holds


def test_wrapper_rejects_a_non_timeserving_inner():
    moves = [(2, PublishPath(frozenset({1}), GENESIS), False)]  # tie-losing
    with pytest.raises(InnerNotTimeserving):
        run_game(orderly_reduce(Scripted(moves)), 0.3, 2, creators=[M1, M2])


def test_wrapper_only_attaches_to_a_fresh_game(race_state):
    with pytest.raises(UnreachableState):
        orderly_reduce(Frontier()).attach(race_state)


# An inner move of no block: once at round 2 of three rounds, and once before a
# settling three-block publish (creators, the script after the move).
EMPTY_MOVE_GAMES = [
    ([1, 2, 1], []),
    ([1, 1, 2, 1, 2], [(4, PublishPath(frozenset({1, 2, 4}), GENESIS), True)]),
]


@pytest.mark.parametrize("creators, rest", EMPTY_MOVE_GAMES)
@pytest.mark.parametrize("wrap", [orderly_reduce, lambda s: lcm_reduce(s, 5)], ids=["orderly", "lcm"])
def test_an_inner_publish_of_no_block_plays_as_a_wait(wrap, creators, rest):
    def play(move):
        script = Scripted([(2, move, False), *rest])
        return run_game(wrap(script), 0.3, len(creators), creators=creators)

    want = play(WAIT)
    got = play(PublishPath(frozenset(), GENESIS))
    assert (got.heights, got.r1) == (want.heights, want.r1)


# --- lcm reductions ----------------------------------------------------------------


def test_step_reduction_rebases_one_round():
    creators, moves = non_lcm_script()
    inner = run_game(Scripted(moves), 0.3, 5, creators=creators)
    red = run_game(
        lcm_step_reduce(Scripted(moves), step_round=4, check=True),
        0.3,
        5,
        creators=creators,
    )
    # round 5 forks from the chain block at the dead base's height
    assert red.m1_actions[4] == PublishPath(frozenset({4, 5}), 2)
    assert red.heights == inner.heights  # re-basing preserves every height
    ri, rr = inner.revenue_series(), red.revenue_series()
    assert all(y >= x for x, y in zip(ri, rr))
    assert rr[-1] == ri[-1] + 1 / inner.heights[-1]  # one opponent block less


def test_full_lcm_reduction_dominates_and_is_lcm():
    creators, moves = non_lcm_script()
    inner = run_game(Scripted(moves), 0.3, 5, creators=creators)
    red = run_game(
        lcm_reduce(Scripted(moves), horizon=5, check=True), 0.3, 5, creators=creators
    )
    assert red.heights == inner.heights
    assert all(y >= x for x, y in zip(inner.revenue_series(), red.revenue_series()))
    report = classify_trace(red)
    assert report.lcm.holds
    assert report.orderly.holds
    assert not classify_trace(inner).lcm.holds


def test_lcm_reduction_stops_rebasing_past_the_horizon():
    creators, moves = non_lcm_script()
    red = run_game(
        lcm_reduce(Scripted(moves), horizon=3, check=True), 0.3, 5, creators=creators
    )
    # round 5 is past the horizon, so the dead base goes through unchanged
    assert red.m1_actions[4] == PublishPath(frozenset({4, 5}), 1)
    assert not classify_trace(red).lcm.holds


def test_lcm_reduction_on_the_racer_keeps_per_round_dominance():
    for seed in (5, 6):
        inner = run_game(TopHeavyRacer(), 0.4, 3000, seed=seed)
        moves = script_from_trace(inner)
        red = run_game(
            lcm_reduce(Scripted(moves), horizon=3000, check=True),
            0.4,
            3000,
            seed=seed,
        )
        ri, rr = inner.revenue_series(), red.revenue_series()
        assert all(y >= x - 1e-12 for x, y in zip(ri, rr))
        report = classify_trace(red)
        assert report.lcm.holds and report.orderly.holds


# --- deferred publication plans -------------------------------------------------------


@pytest.fixture
def forked_checkpoint_state():
    # chain 0-1 with Miner 2's block 1 as the top checkpoint; Miner 1
    # holds {2, 3, 4} and wants to fork the checkpoint off from genesis
    st = initial_state()
    play_rounds(st, [M2, M1, M1, M1])
    return st


def test_case1_builds_the_waiting_plan(forked_checkpoint_state):
    action = PublishPath(frozenset({2, 3, 4}), GENESIS)
    plan = checkpoint_preserve_case1(forked_checkpoint_state, action)
    assert plan.base == 1
    assert plan.core == frozenset({2, 3, 4})
    assert plan.start_round == 4
    assert plan.w0 == 2


def test_case1_rejects_non_forking_actions(forked_checkpoint_state):
    # base at the checkpoint itself does not fork it off
    with pytest.raises(NotForkingCheckpoint):
        checkpoint_preserve_case1(
            forked_checkpoint_state, PublishPath(frozenset({2, 3, 4}), 1)
        )
    with pytest.raises(ValueError):
        checkpoint_preserve_case1(forked_checkpoint_state, WAIT)


def test_case1_needs_enough_blocks_to_wait_out():
    st = initial_state()
    play_rounds(st, [M2, M1])
    with pytest.raises(W0NonPositive):
        checkpoint_preserve_case1(st, PublishPath(frozenset({2}), GENESIS))


def test_plan_ticks_down_and_fires(forked_checkpoint_state):
    action = PublishPath(frozenset({2, 3, 4}), GENESIS)
    plan = checkpoint_preserve_case1(forked_checkpoint_state, action)
    assert plan.tick(M2) is None  # w 2 -> 1
    assert plan.tick(M1) is None  # interim block 6, w -> 2
    assert plan.tick(M2) is None  # w -> 1
    fired = plan.tick(M2)  # w -> 0: publish
    assert fired == PublishPath(frozenset({2, 3, 4, 6}), 1)
    assert plan.interim == [6]
    with pytest.raises(RuntimeError):
        plan.tick(M2)


def test_plan_execute_matches_the_walk_expectation(forked_checkpoint_state):
    action = PublishPath(frozenset({2, 3, 4}), GENESIS)
    alpha = 0.3
    taus, inter = [], []
    for i in range(4000):
        plan = checkpoint_preserve_case1(forked_checkpoint_state, action)
        out = plan.execute(alpha, seed=i)
        taus.append(out.tau)
        inter.append(out.interim_m1)
    w0 = 2
    expect_tau = w0 / (1 - 2 * alpha)
    expect_int = w0 * alpha / (1 - 2 * alpha)
    assert abs(sum(taus) / len(taus) - expect_tau) < 0.15
    assert abs(sum(inter) / len(inter) - expect_int) < 0.1
