import pytest
from hypothesis import given, settings, strategies as st

from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    BadHeight,
    BackwardEdge,
    BlockTreeError,
    DanglingEdge,
    EdgeCardinality,
    InvalidAction,
    NotOwned,
    Publish,
    PublishPath,
    PublishSet,
    StatefileError,
    UnknownBlock,
    WAIT,
    ancestors,
    attach_action,
    begin_round,
    canonical_equal,
    capitulate,
    chain_path,
    desugar,
    format_statefile,
    height,
    initial_state,
    on_chain,
    parse_statefile,
    potential_reward,
    potential_reward_exhaustive,
    successors,
    to_dot,
    validate_action,
)
from posmine.strategies import Engine, make_strategy
from creator_reference import creator_stream as _creator_stream
from conftest import LadderRacer, TopHeavyRacer, play_rounds


def test_initial_state():
    st0 = initial_state()
    assert st0.tip() == GENESIS
    assert st0.tip_height() == 0
    assert st0.round == 0
    assert st0.chain_owned(MINER1) == 0
    assert st0.chain_owned(MINER2) == 0


def test_begin_round_labels_and_pools():
    st0 = initial_state()
    assert begin_round(st0, MINER1) == 1
    assert begin_round(st0, MINER2) == 2
    assert st0.unpublished_1 == {1}
    assert st0.unpublished_2 == {2}
    assert st0.creator[1] == MINER1
    with pytest.raises(ValueError):
        begin_round(st0, 0)


@pytest.mark.parametrize("query", [height, ancestors, on_chain, successors])
def test_a_query_on_an_unknown_block_raises_unknown_block(race_state, query):
    with pytest.raises(UnknownBlock) as err:
        query(race_state, 99)
    assert isinstance(err.value, KeyError) and isinstance(err.value, BlockTreeError)
    assert str(err.value) == "block 99 is not in the tree" and err.value.block == 99


def test_desugar_path_chains_blocks(race_state):
    flat = desugar(race_state, MINER1, PublishPath(frozenset({3, 4}), 2))
    assert flat.blocks == frozenset({3, 4})
    assert flat.edges == ((3, 2), (4, 3))


def test_desugar_publish_takes_oldest(race_state):
    flat = desugar(race_state, MINER1, Publish(1, 2))
    assert flat.blocks == frozenset({3})
    with pytest.raises(InvalidAction):
        desugar(race_state, MINER1, Publish(3, 2))
    with pytest.raises(InvalidAction):
        desugar(race_state, MINER1, Publish(0, 2))


def test_validation_not_owned(race_state):
    # block 1 is published, block 9 unknown: ownership is checked first
    with pytest.raises(NotOwned):
        validate_action(race_state, MINER1, PublishSet(frozenset({1, 3}), ((1, 9), (3, 9))))


def test_validation_dangling_edge(race_state):
    with pytest.raises(DanglingEdge):
        validate_action(race_state, MINER1, PublishSet(frozenset({3}), ((3, 9),)))


def test_validation_backward_edge(race_state):
    # (3, 4) targets a block in the publish set, so it is not dangling,
    # but it points forward in label order
    with pytest.raises(BackwardEdge):
        validate_action(race_state, MINER1, PublishSet(frozenset({3, 4}), ((4, 3), (3, 4))))


def test_validation_edge_cardinality(race_state):
    with pytest.raises(EdgeCardinality):
        validate_action(
            race_state, MINER1, PublishSet(frozenset({3, 4}), ((3, 0), (3, 1)))
        )
    # an edge that re-parents a block outside the publish set
    with pytest.raises(EdgeCardinality):
        validate_action(
            race_state, MINER1, PublishSet(frozenset({3}), ((3, 0), (1, 0)))
        )


def test_tie_goes_to_the_earlier_publish():
    st0 = initial_state()
    play_rounds(st0, [MINER2, MINER1])  # chain 0-1, Miner 1 holds 2
    attach_action(st0, MINER1, PublishPath(frozenset({2}), GENESIS))
    assert st0.tip() == 1  # same height, block 1 was published earlier
    assert st0.chain_owned(MINER1) == 0


def test_strictly_longer_branch_displaces_tip():
    st0 = initial_state()
    play_rounds(st0, [MINER2, MINER1, MINER1])
    attach_action(st0, MINER1, PublishPath(frozenset({2, 3}), GENESIS))
    assert st0.tip() == 3
    assert st0.tip_height() == 2
    assert st0.chain_owned(MINER1) == 2
    assert chain_path(st0) == [GENESIS, 2, 3]
    assert not on_chain(st0, 1)


def test_same_round_sibling_tie_respects_publish_order(race_state):
    # two fresh siblings at height 3 in one action: the first one applied
    # (smallest label) wins the tie
    attach_action(race_state, MINER1, PublishSet(frozenset({3, 4}), ((3, 2), (4, 2))))
    assert race_state.tip() == 3


def test_successors_and_chain_helpers(race_state):
    attach_action(race_state, MINER1, PublishPath(frozenset({3, 4}), 2))
    assert successors(race_state, 2) == [3, 4]
    assert on_chain(race_state, 4)
    assert chain_path(race_state) == [0, 1, 2, 3, 4]


def test_capitulate_locks_a_prefix(race_state):
    attach_action(race_state, MINER1, PublishPath(frozenset({3, 4}), 2))
    after = capitulate(race_state, 2)
    assert after.offset == 2
    assert after.tip() == 4
    assert after.tip_height() == 2
    assert sorted(after.parent) == [3, 4]
    assert after.parent[3] == GENESIS  # re-pointed at the new genesis
    assert after.round == race_state.round


def test_capitulate_bad_height(race_state):
    with pytest.raises(BadHeight):
        capitulate(race_state, 3)
    with pytest.raises(BadHeight):
        capitulate(race_state, -1)


def test_capitulate_prunes_hopeless_private_blocks():
    st0 = initial_state()
    play_rounds(st0, [MINER1, MINER2, MINER2, MINER2])  # chain 0-2-3-4, held {1}
    assert st0.tip_height() == 3
    kept = capitulate(st0, 0)
    assert kept.unpublished_1 == {1}  # can still stack to height 1
    gone = capitulate(st0, 2)
    assert gone.unpublished_1 == set()  # label 1 cannot reach height 3


def test_capitulate_keeps_stackable_private_blocks():
    st0 = initial_state()
    play_rounds(st0, [MINER2, MINER1, MINER1])  # chain 0-1, held {2, 3}
    after = capitulate(st0, 1)
    # both held blocks stack on block 1 (height 1) to reach height 3
    assert after.unpublished_1 == {2, 3}


def test_potential_reward_lead_state(race_state):
    # publishing {3, 4} on the tip adds two owned blocks
    assert potential_reward(race_state) == 2
    assert potential_reward_exhaustive(race_state) == 2


def test_potential_reward_overtake_counts_displaced_opponent():
    st0 = initial_state()
    play_rounds(st0, [MINER2, MINER1, MINER1])
    # overtake from genesis: +2 own; simply extending: +2 as well
    assert potential_reward(st0) == 2
    st1 = initial_state()
    play_rounds(st1, [MINER2, MINER2, MINER1, MINER1, MINER1])
    # stack 3 on genesis: chain becomes all-Miner-1, |+3|; on tip: also 3
    assert potential_reward(st1) == 3
    assert potential_reward_exhaustive(st1) == 3


def test_potential_reward_empty_pool():
    st0 = initial_state()
    play_rounds(st0, [MINER2, MINER2])
    assert potential_reward(st0) == 0


def test_statefile_round_trip(example_fig_state):
    text = format_statefile(example_fig_state)
    again = parse_statefile(text)
    assert canonical_equal(example_fig_state, again)
    assert format_statefile(again) == text


def test_statefile_errors_carry_line_numbers():
    with pytest.raises(StatefileError) as err:
        parse_statefile("posmine-state v1 round 1 offset 0\nblock x creator 1 parent - published -\n")
    assert "line 2" in str(err.value)
    with pytest.raises(StatefileError):
        parse_statefile("not-a-header\n")


def test_statefile_rejects_states_no_game_reaches():
    head = "posmine-state v1 round 3 offset 0\nblock 0 creator 0 parent - published 0\n"
    for body, line, message in [
        ("block 1 creator 1 parent 0 published 5\nblock 2 creator 2 parent 1 published 2\n",
         3, "block 1 published in round 5, outside 1..3"),
        ("block 2 creator 2 parent 0 published 1\n", 3, "block 2 published in round 1, outside 2..3"),
        ("block 1 creator 1 parent 0 published 3\nblock 2 creator 2 parent 1 published 2\n",
         4, "block 2 was published before its parent 1"),
        ("block -1 creator 1 parent - published -\n", 3, "block label must be >= 0, got -1"),
    ]:
        with pytest.raises(StatefileError, match=f"^line {line}: {message}$"):
            parse_statefile(head + body)
    for text in [
        "posmine-state v1 round -1 offset 0\nblock 0 creator 0 parent - published 0\n",
        "posmine-state v1 round 3 offset -2\nblock 0 creator 0 parent - published 0\n",
        "posmine-state v1 round 3 offset 0\nblock 0 creator 0 parent - published 1\n",
        "posmine-state v1 round 3 offset 0\nblock 0 creator 0 parent - published -\n",
    ]:
        with pytest.raises(StatefileError):
            parse_statefile(text)


def test_whole_file_checks_name_the_offending_block_line():
    # the checks that need every block read still point at the block's own line
    head = "posmine-state v1 round 3 offset 0\nblock 0 creator 0 parent - published 0\n"
    for body, line in [
        ("block 1 creator 1 parent - published -\n# note\nblock 2 creator 2 parent 1 published 2\n", 5),
        ("block 2 creator 2 parent 1 published 2\nblock 1 creator 1 parent 0 published 3\n", 3),
        ("block 1 creator 2 parent 0 published 1\n\nblock 9 creator 1 parent - published -\n"
         "block 7 creator 1 parent - published -\n", 6),
    ]:
        with pytest.raises(StatefileError) as err:
            parse_statefile(head + body)
        assert err.value.line == line, str(err.value)


@pytest.mark.parametrize(
    "strategy", ["frontier", "sm", "nsm", LadderRacer(), TopHeavyRacer()],
    ids=["frontier", "sm", "nsm", "ladder", "topheavy"],
)
def test_every_played_state_is_a_valid_statefile(strategy):
    # the parser's reachability rules hold on every state the engine plays
    for seed in range(3):
        eng = Engine(make_strategy(strategy))
        for _, creator in zip(range(150), _creator_stream(0.42, seed)):
            assert canonical_equal(eng.state, parse_statefile(format_statefile(eng.state)))
            eng.play(creator)


def test_to_dot_mentions_every_block(example_fig_state):
    dot = to_dot(example_fig_state)
    for b in example_fig_state.creator:
        assert f"n{b}" in dot
    assert dot.startswith("digraph")


# --- property tests ---------------------------------------------------------


@st.composite
def small_games(draw):
    """A short random game: frontier Miner 2, Miner 1 withholds everything."""
    creators = draw(st.lists(st.sampled_from([MINER1, MINER2]), min_size=1, max_size=8))
    state = initial_state()
    play_rounds(state, creators)
    return state


@given(small_games())
@settings(max_examples=200, deadline=None)
def test_fast_potential_reward_matches_exhaustive(state):
    assert potential_reward(state) == potential_reward_exhaustive(state)


@given(small_games(), st.data())
@settings(max_examples=200, deadline=None)
def test_any_valid_publish_keeps_parents_older(state, data):
    pool = sorted(state.unpublished_1)
    if not pool:
        return
    blocks = data.draw(st.sets(st.sampled_from(pool), min_size=1))
    bases = [b for b in state.parent] + [GENESIS] + list(blocks)
    base = data.draw(st.sampled_from(sorted(set(bases))))
    try:
        flat = validate_action(state, MINER1, PublishPath(frozenset(blocks), base))
    except InvalidAction:
        return
    after = state.clone()
    attach_action(after, MINER1, flat)
    for child, parent in after.parent.items():
        assert parent < child
    assert after.tip_height() >= state.tip_height()


@given(small_games())
@settings(max_examples=100, deadline=None)
def test_capitulate_to_zero_is_identity_on_the_tree(state):
    again = capitulate(state, 0)
    assert canonical_equal(state, again)
    assert again.unpublished_1 == state.unpublished_1
    assert again.unpublished_2 == state.unpublished_2


@given(small_games())
@settings(max_examples=100, deadline=None)
def test_statefile_round_trip_random(state):
    assert canonical_equal(state, parse_statefile(format_statefile(state)))
