import pytest
from hypothesis import given, settings, strategies as hst

from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    Publish,
    PublishPath,
    PublishSet,
    WAIT,
    apply_action,
    begin_round,
    initial_state,
    parse_statefile,
)
from posmine.strategies import Scripted, make_strategy, run_game
from posmine.structure import (
    NoCheckpointAbove,
    checkpoint_inequality,
    checkpoint_lift,
    checkpoint_override_check,
    checkpoint_reward_bound,
    checkpoints,
    classify_trace,
    fork_ownership_check,
    is_lcm,
    is_orderly,
    is_safe_lift,
    is_timeserving,
    is_trimmed,
    replay_trace,
)
from conftest import play_rounds
from test_value_pins import CREATORS, MOVES

M1, M2 = MINER1, MINER2


# --- checkpoints -------------------------------------------------------------


def test_example_figure_checkpoints(example_fig_state):
    assert checkpoints(example_fig_state) == [0, 1, 5, 7]


def test_genesis_is_always_a_checkpoint():
    assert checkpoints(initial_state()) == [0]


def test_first_opponent_block_is_a_checkpoint():
    st = initial_state()
    play_rounds(st, [M2])
    assert checkpoints(st) == [0, 1]


def test_withheld_block_delays_the_checkpoint():
    st = initial_state()
    play_rounds(st, [M1, M2])  # block 1 withheld, block 2 on the chain
    assert checkpoints(st) == [0]
    # publishing the withheld block empties the window; the chain block
    # becomes a checkpoint (the tie-losing block 1 stays off the chain)
    apply_action(st, M1, PublishPath(frozenset({1}), GENESIS), in_place=True)
    assert checkpoints(st) == [0, 2]


def test_checkpoint_needs_matching_chain_presence():
    # two withheld blocks need two Miner-1 chain blocks in the window
    st = initial_state()
    play_rounds(st, [M1, M1, M2, M2])
    assert checkpoints(st) == [0]


def test_checkpoints_after_capitulation_start_from_the_new_genesis(example_fig_state):
    from posmine.blocktree import capitulate

    after = capitulate(example_fig_state, 3)  # chain block 4 becomes genesis
    assert after.offset == 4
    assert checkpoints(after) == [0, 5, 7]


# --- window inequalities -------------------------------------------------------


def test_checkpoint_inequality_holds_on_the_example(example_fig_state):
    verdict = checkpoint_inequality(example_fig_state)
    assert verdict
    assert verdict.witness == ""


def test_checkpoint_inequality_flags_a_stuffed_window():
    # hand-built (unreachable) state: Miner 2 "withholds" two blocks between
    # two checkpoints, so the open-window count beats the chain count
    text = (
        "posmine-state v1 round 4 offset 0\n"
        "block 0 creator 0 parent - published 0\n"
        "block 1 creator 2 parent 0 published 1\n"
        "block 2 creator 2 parent - published -\n"
        "block 3 creator 2 parent - published -\n"
        "block 4 creator 2 parent 1 published 4\n"
    )
    verdict = checkpoint_inequality(parse_statefile(text))
    assert not verdict
    assert "(i)" in verdict.witness


def test_reward_bound_holds_on_the_example(example_fig_state):
    assert checkpoint_reward_bound(example_fig_state)


def test_reward_bound_on_running_games():
    for name in ("sm", "nsm"):
        tr = run_game(make_strategy(name), 0.4, 300, seed=3)
        state = replay_trace(tr, [])
        assert checkpoint_reward_bound(state)
        assert checkpoint_inequality(state)


# --- action classifiers ----------------------------------------------------------


@pytest.fixture
def tie_state():
    st = initial_state()
    play_rounds(st, [M1, M2])  # held {1}; chain 0-2
    return st


def test_tie_loss_is_not_timeserving_but_is_trimmed(tie_state):
    act = PublishPath(frozenset({1}), GENESIS)
    assert is_timeserving(tie_state, act) is False
    assert is_orderly(tie_state, act) is True
    assert is_lcm(tie_state, act) is True
    # the displaced chain child of the base is Miner 2's block
    assert is_trimmed(tie_state, act) is True


def test_tip_extension_is_timeserving_and_trimmed(tie_state):
    begin_round(tie_state, M1)  # block 3
    act = PublishPath(frozenset({3}), 2)
    assert is_timeserving(tie_state, act) is True
    assert is_trimmed(tie_state, act) is True  # the base is the tip


def test_overtake_from_genesis_is_timeserving(race_state):
    act = PublishPath(frozenset({3, 4}), 2)
    assert is_timeserving(race_state, act)
    assert is_orderly(race_state, act)
    assert is_lcm(race_state, act)


def test_orderly_wants_the_smallest_blocks(race_state):
    assert is_orderly(race_state, PublishPath(frozenset({3}), 2)) is True
    assert is_orderly(race_state, PublishPath(frozenset({4}), 2)) is False


def test_wait_counts_as_every_class(race_state):
    for fn in (is_timeserving, is_orderly, is_lcm, is_trimmed):
        assert fn(race_state, WAIT) is True


def test_non_path_publish_set_fails_the_path_classes(tie_state):
    begin_round(tie_state, M1)  # block 3 joins block 1 in the pool
    forest = PublishSet(frozenset({1, 3}), ((1, 0), (3, 0)))
    assert is_orderly(tie_state, forest) is False
    assert is_lcm(tie_state, forest) is False
    assert is_trimmed(tie_state, forest) is False


def test_lcm_requires_a_chain_base():
    creators = [M2, M1, M1, M1, M1]
    st = initial_state()
    play_rounds(st, creators)
    apply_action(st, M1, PublishPath(frozenset({2, 3}), GENESIS), in_place=True)
    # block 1 fell off the chain; forking from it is not longest-chain mining
    act = PublishPath(frozenset({4, 5}), 1)
    assert is_timeserving(st, act) is True
    assert is_lcm(st, act) is False


def test_trimmed_rejects_a_base_below_an_own_chain_block():
    st = initial_state()
    play_rounds(st, [M2, M1, M1, M1])
    apply_action(st, M1, PublishPath(frozenset({2}), 1), in_place=True)  # chain 0-1-2
    act = PublishPath(frozenset({3, 4}), 1)  # skips own chain block 2
    assert is_trimmed(st, act) is False
    act2 = PublishPath(frozenset({3, 4}), 2)  # extends the tip instead
    assert is_trimmed(st, act2) is True


# --- checkpoint lift ---------------------------------------------------------------


def test_checkpoint_lift_rebases_to_the_top_checkpoint(example_fig_state):
    begin_round(example_fig_state, M1)  # 8
    begin_round(example_fig_state, M1)  # 9
    orig = PublishPath(frozenset({2, 8, 9}), 1)
    lifted = checkpoint_lift(example_fig_state, orig)
    assert lifted == PublishPath(frozenset({8, 9}), 7)
    assert is_safe_lift(example_fig_state, orig, lifted) is True


def test_checkpoint_lift_requires_a_checkpoint_above(tie_state):
    with pytest.raises(NoCheckpointAbove):
        checkpoint_lift(tie_state, PublishPath(frozenset({1}), GENESIS))


# --- trace replay and property monitors ------------------------------------------------


def test_replay_rebuilds_the_final_state():
    # replay re-checks the recorded per-round heights internally
    tr = run_game(make_strategy("sm"), 0.35, 200, seed=7)
    state = replay_trace(tr, [])
    assert state.round == 200
    assert state.tip_height() <= tr.heights[-1]


@pytest.mark.parametrize("name", ["frontier", "sm", "nsm"])
def test_builtin_strategies_satisfy_every_property(name):
    tr = run_game(make_strategy(name), 0.35, 2000, seed=1)
    report = classify_trace(tr)
    for prop, verdict in report.as_dict().items():
        assert verdict.holds, (prop, verdict.violations[:3])
    assert report.all_hold()


def test_frontier_capitulates_every_round():
    tr = run_game(make_strategy("frontier"), 0.35, 500, seed=4)
    assert all(tr.cap_flags)


def test_out_of_order_publish_is_flagged():
    moves = [(4, PublishPath(frozenset({2, 4}), GENESIS), True)]
    tr = run_game(Scripted(moves), 0.3, 4, creators=[M1, M1, M2, M1])
    report = classify_trace(tr)
    assert not report.orderly.holds
    assert report.orderly.violations[0].round == 4
    assert report.timeserving.holds
    # skipping over held block 3 also makes the publish non-exhaustive,
    # and the action reaches finality, so opportunism is violated too
    assert not report.opportunistic.holds


def test_withholding_past_finality_is_opportunism_violation():
    # publish one of two held blocks; it wins the chain and a later
    # capitulation locks it in, so the held-back sibling breaks the promise
    moves = [
        (2, PublishPath(frozenset({1}), GENESIS), False),
        (4, WAIT, True),
    ]
    tr = run_game(Scripted(moves), 0.3, 4, creators=[M1, M1, M2, M2])
    report = classify_trace(tr)
    assert not report.opportunistic.holds


def test_losing_fork_is_vacuously_unopportunistic():
    # a tie-losing publish never reaches the chain, so no promise is broken
    moves = [(3, PublishPath(frozenset({1}), GENESIS), False)]
    tr = run_game(Scripted(moves), 0.3, 4, creators=[M1, M1, M2, M2])
    report = classify_trace(tr)
    assert report.opportunistic.holds


def test_checkpoint_born_under_a_loose_block_breaks_recurrence():
    # block 1 withheld keeps block 2 from ever becoming a checkpoint; a
    # throwaway publish of block 1 clears the window while block 4 is
    # still private, so the checkpoint is defined under a loose block
    moves = [(4, PublishPath(frozenset({1}), GENESIS), False)]
    tr = run_game(Scripted(moves), 0.3, 4, creators=[M1, M2, M2, M1])
    report = classify_trace(tr)
    assert not report.checkpoint_recurrent.holds
    assert report.checkpoint_recurrent.violations[0].round == 4


@pytest.mark.parametrize(
    "action,label",
    [(PublishPath(frozenset(), GENESIS), "publish:->0"), (PublishSet(frozenset(), ()), "publishset:")],
)
def test_a_publish_of_no_block_is_classified(action, label):
    # the engine applies it as a no-op, and every classifier and monitor
    # reads it as a Wait
    tr = run_game(Scripted([(2, action, False)]), 0.3, 3, creators=[M1, M2, M1])
    report = classify_trace(tr).as_dict()
    failed = {k: [(w.round, w.detail) for w in v.violations] for k, v in report.items() if not v.holds}
    assert failed == {}, f"{label} flagged"
    override = checkpoint_override_check(tr)
    assert fork_ownership_check(tr).holds and override.holds and override.skipped == []


@pytest.mark.parametrize("action", [PublishPath(frozenset(), GENESIS), PublishSet(frozenset(), ())])
@pytest.mark.parametrize("classifier", [is_timeserving, is_orderly, is_lcm, is_trimmed])
def test_each_classifier_answers_a_publish_of_no_block_as_a_wait(classifier, action):
    # Miner 1 withholds block 1 under Miner 2's chain 0-2
    st = play_rounds(initial_state(), [M1, M2])
    assert classifier(st, action) is classifier(st, WAIT) is True


def _failures(trace):
    report = classify_trace(trace).as_dict()
    return {k: [(w.round, w.detail) for w in v.violations] for k, v in report.items() if not v.holds}


@pytest.mark.parametrize(
    "capped,failed",
    [
        (True, {"opportunistic": [(2, "Publish(1 on 0)")],
                "checkpoint_recurrent": [(2, "unpublished [2] above new checkpoint 1")]}),
        (False, {"checkpoint_recurrent": [(2, "unpublished [2] above new checkpoint 1")]}),
    ],
)
def test_a_count_publish_is_classified(capped, failed):
    # Publish(count, base) names no blocks: the monitor watches what it desugars to
    tr = run_game(Scripted([(2, Publish(1, GENESIS), capped)]), 0.3, 5, creators=[M1, M1, M2, M2, M2])
    assert _failures(tr) == failed


def test_the_pinned_script_trace_is_classified():
    # every action type, Publish(2, GENESIS) at round 13 included
    tr = run_game(Scripted(MOVES), 0.3, len(CREATORS), creators=CREATORS)
    set4, set6 = (4, "publishset:1->0;2->1;4->1"), (6, "publishset:6->4")
    assert _failures(tr) == {
        "timeserving": [set4, set6], "orderly": [set4], "lcm": [set4, set6], "trimmed": [set4, set6],
        "checkpoint_recurrent": [(10, "checkpoints moved: [0, 1, 2, 5, 7, 8] -> [0, 1, 2, 5, 7, 9, 10]")],
    }


@pytest.mark.parametrize("name", ["frontier", "sm", "nsm"])
def test_fork_ownership_and_override_monitors_pass(name):
    tr = run_game(make_strategy(name), 0.45, 2000, seed=6)
    fo = fork_ownership_check(tr)
    assert fo.holds, fo.violations[:3]
    if name != "frontier":  # frontier never forks, so there is nothing to pair
        assert fo.checked > 0
    ov = checkpoint_override_check(tr)
    assert ov.holds, ov.violations[:3]


# --- property test: the classifier suite stays green on random creator streams ----


@given(
    hst.sampled_from(["sm", "nsm"]),
    hst.lists(hst.sampled_from([M1, M2]), min_size=10, max_size=120),
)
@settings(max_examples=80, deadline=None)
def test_builtin_strategies_hold_on_any_creator_stream(name, creators):
    tr = run_game(make_strategy(name), 0.35, len(creators), creators=creators)
    report = classify_trace(tr)
    assert report.all_hold(), {
        k: v.violations[:2] for k, v in report.as_dict().items() if not v.holds
    }
    state = replay_trace(tr, [])
    assert checkpoint_inequality(state)
    assert checkpoint_reward_bound(state)
