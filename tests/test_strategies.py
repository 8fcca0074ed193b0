
import pytest
from hypothesis import given, settings, strategies as st

from posmine.blocktree import (
    GENESIS,
    HalfState,
    MINER1,
    MINER2,
    PublishPath,
    WAIT,
    initial_state,
)
from posmine.strategies import (
    Engine,
    Frontier,
    PatientWithholdOvertake,
    Scripted,
    ScriptError,
    ScriptExhaustedMismatch,
    StrategyDecision,
    UnreachableState,
    WithholdOvertake,
    derive_seed,
    format_action,
    iter_cycles,
    make_strategy,
    parse_script,
    run_game,
    run_totals,
)
from conftest import play_rounds

M1, M2 = MINER1, MINER2


def totals(trace):
    return sum(trace.r1), sum(trace.r2), trace.heights[-1]


# --- frontier ----------------------------------------------------------------


def test_frontier_publishes_immediately_and_always_settles():
    tr = run_game(Frontier(), 0.3, 6, creators=[M1, M2, M1, M1, M2, M2])
    assert all(tr.cap_flags)
    assert totals(tr) == (3, 3, 6)
    assert tr.m1_actions[0] == PublishPath(frozenset({1}), GENESIS)
    # after the capitulation each new block lands on the relabeled genesis
    assert tr.m1_actions[2] == PublishPath(frozenset({3}), GENESIS)


def test_frontier_attach_rejects_withheld_blocks():
    st0 = initial_state()
    play_rounds(st0, [M1])
    with pytest.raises(UnreachableState):
        Frontier().attach(st0)


# --- withhold-overtake (sm) ---------------------------------------------------


def test_sm_wins_a_one_block_race():
    tr = run_game(WithholdOvertake(), 0.3, 3, creators=[M1, M2, M1])
    assert tr.m1_actions[2] == PublishPath(frozenset({1, 3}), GENESIS)
    assert tr.cap_flags == [False, False, True]
    assert totals(tr) == (2, 0, 2)


def test_sm_folds_a_lost_race():
    tr = run_game(WithholdOvertake(), 0.3, 3, creators=[M1, M2, M2])
    assert all(a == WAIT for a in tr.m1_actions)
    assert tr.cap_flags == [False, False, True]
    assert totals(tr) == (0, 2, 2)


def test_sm_publishes_lead_when_opponent_is_one_behind():
    tr = run_game(WithholdOvertake(), 0.3, 5, creators=[M1, M1, M2, M2, M2])
    assert tr.m1_actions[2] == PublishPath(frozenset({1, 2}), GENESIS)
    assert tr.cap_flags == [False, False, True, True, True]
    assert totals(tr) == (2, 2, 4)


def test_sm_waits_with_a_deep_lead():
    tr = run_game(WithholdOvertake(), 0.3, 5, creators=[M1, M1, M1, M2, M2])
    assert tr.m1_actions[3] == WAIT
    assert tr.m1_actions[4] == PublishPath(frozenset({1, 2, 3}), GENESIS)
    assert totals(tr) == (3, 0, 3)
    assert tr.heights == [0, 0, 0, 1, 3]


def test_sm_settles_when_miner2_opens():
    tr = run_game(WithholdOvertake(), 0.3, 1, creators=[M2])
    assert tr.cap_flags == [True]
    assert totals(tr) == (0, 1, 1)


def test_sm_attach_adopts_a_race():
    st0 = initial_state()
    play_rounds(st0, [M1, M2])
    won = StrategyDecision(PublishPath(frozenset({1, 3}), GENESIS), True)
    for creator, expect in ((M1, won), (M2, StrategyDecision(WAIT, True))):
        strat = WithholdOvertake()
        strat.attach(st0)
        st = play_rounds(st0.clone(), [creator])
        assert strat.decide(HalfState(st, creator, 3)) == expect


# --- patient variant (nsm) -----------------------------------------------------


def test_nsm_stalls_instead_of_folding():
    tr = run_game(PatientWithholdOvertake(), 0.3, 3, creators=[M1, M2, M2])
    assert tr.cap_flags == [False, False, False]
    assert totals(tr) == (0, 2, 2)


def test_nsm_wins_the_two_for_two_fork():
    tr = run_game(PatientWithholdOvertake(), 0.3, 5, creators=[M1, M2, M2, M1, M1])
    assert tr.m1_actions[4] == PublishPath(frozenset({1, 4, 5}), GENESIS)
    assert tr.cap_flags == [False] * 4 + [True]
    assert totals(tr) == (3, 0, 3)


def test_nsm_restarts_one_level_up_when_miner2_goes_three_deep():
    tr = run_game(PatientWithholdOvertake(), 0.3, 6, creators=[M1, M2, M2, M1, M2, M1])
    # the oldest held block (1) is written off; blocks 4 and 6 fork from
    # Miner 2's second block
    assert tr.m1_actions[5] == PublishPath(frozenset({4, 6}), 3)
    assert tr.cap_flags[5]
    assert totals(tr) == (2, 2, 4)


def test_nsm_folds_after_a_failed_stall():
    tr = run_game(PatientWithholdOvertake(), 0.3, 4, creators=[M1, M2, M2, M2])
    assert tr.cap_flags == [False, False, False, True]
    assert totals(tr) == (0, 3, 3)


# --- engine accounting ---------------------------------------------------------


@pytest.mark.parametrize("name", ["frontier", "sm", "nsm"])
def test_totals_match_between_the_two_runners(name):
    tr = run_game(make_strategy(name), 0.35, 1500, seed=11)
    tot = run_totals(make_strategy(name), 0.35, 1500, seed=11)
    assert (tot.t1, tot.t2, tot.height) == totals(tr)
    assert tot.caps == sum(tr.cap_flags)


def test_revenue_series_is_t1_over_height():
    tr = run_game(make_strategy("sm"), 0.35, 400, seed=2)
    series = tr.revenue_series()
    assert len(series) == 400
    t1 = 0
    for i in range(400):
        t1 += tr.r1[i]
        if tr.heights[i]:
            assert series[i] == t1 / tr.heights[i]
    assert 0.0 <= tr.final_revenue() <= 1.0


def test_heights_never_decrease():
    tr = run_game(make_strategy("nsm"), 0.4, 2000, seed=5)
    assert all(a <= b for a, b in zip(tr.heights, tr.heights[1:]))


def test_engine_survives_restart_from_capitulation():
    eng = Engine(make_strategy("sm"))
    for c in [M1, M2, M1, M2, M2, M1, M1, M2]:
        eng.play(c)
    assert eng.t1_total() + eng.t2_total() == eng.height_total()


def test_iter_cycles_partitions_the_run():
    n = 0
    for stats in iter_cycles(make_strategy("sm"), 0.35, seed=9):
        n += 1
        assert stats.rounds >= 1
        assert stats.r1 >= 0 and stats.r2 >= 0
        if n == 50:
            break
    assert n == 50


def test_iter_cycles_raises_when_no_cycle_closes():
    silent = Scripted([])  # waits forever, never settles
    gen = iter_cycles(silent, 0.35, seed=1, cycle_cap=200)
    with pytest.raises(RuntimeError):
        next(gen)


# --- seeds, scripts, formatting -------------------------------------------------


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(123, 0) == derive_seed(123, 0)
    seen = {derive_seed(123, i) for i in range(100)}
    assert len(seen) == 100


def test_run_game_is_deterministic_per_seed():
    a = run_game(make_strategy("nsm"), 0.35, 300, seed=42)
    b = run_game(make_strategy("nsm"), 0.35, 300, seed=42)
    assert a.creators == b.creators
    assert a.m1_actions == b.m1_actions
    assert a.revenue_series() == b.revenue_series()


def test_scripted_replays_and_rejects_misfits():
    tr = run_game(
        Scripted([(3, PublishPath(frozenset({2, 3}), GENESIS), True)]),
        0.3,
        3,
        creators=[M2, M1, M1],
    )
    assert totals(tr) == (2, 0, 2)
    bad = Scripted([(1, PublishPath(frozenset({7}), GENESIS), False)])
    with pytest.raises(ScriptExhaustedMismatch):
        run_game(bad, 0.3, 1, creators=[M1])


def test_script_rounds_must_increase():
    with pytest.raises(ValueError):
        Scripted([(2, WAIT, True), (2, WAIT, False)])


def test_parse_script_round_trip(tmp_path):
    text = "2 wait cap\n3 publish 1,3 -> 0\n5 publish 4 -> 3 cap\n"
    moves = parse_script(text)
    assert moves[0] == (2, WAIT, True)
    assert moves[1] == (3, PublishPath(frozenset({1, 3}), GENESIS), False)
    assert moves[2] == (5, PublishPath(frozenset({4}), 3), True)
    p = tmp_path / "moves.script"
    p.write_text(text)
    strat = make_strategy(f"scripted:@{p}")
    assert strat.moves == moves


def test_parse_script_error_lines():
    with pytest.raises(ScriptError) as err:
        parse_script("1 wait\nbogus line\n")
    assert err.value.line == 2


def test_make_strategy_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_strategy("greedy")


def test_format_action_strings():
    assert format_action(WAIT) == "wait"
    assert format_action(PublishPath(frozenset({3, 1}), 0)) == "publish:1,3->0"


# --- property tests --------------------------------------------------------------


@given(
    st.sampled_from(["frontier", "sm", "nsm"]),
    st.lists(st.sampled_from([M1, M2]), min_size=1, max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_reward_deltas_telescope(name, creators):
    tr = run_game(make_strategy(name), 0.35, len(creators), creators=creators)
    t1, t2, h = totals(tr)
    assert t1 + t2 == h
    assert t1 >= 0 and t2 >= 0
    assert all(x <= y for x, y in zip(tr.heights, tr.heights[1:]))


@given(st.lists(st.sampled_from([M1, M2]), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_frontier_owns_exactly_its_creations(creators):
    tr = run_game(Frontier(), 0.35, len(creators), creators=creators)
    t1, t2, h = totals(tr)
    assert t1 == creators.count(M1)
    assert t2 == creators.count(M2)
    assert h == len(creators)
