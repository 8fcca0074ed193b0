"""The settle fast paths against the bodies they replaced, kept here as
they stood before: `capitulate` at the tip height against the general
settle it skips, and the one-merge survivor scan against `_max_reachable`,
which re-sorted the pool and scanned every published block per withheld
block."""

import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings, strategies as hst

from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    BadHeight,
    GameState,
    _rebuild_caches,
    capitulate,
    format_statefile,
)
from posmine.strategies import Engine, make_strategy
from conftest import LadderRacer, TopHeavyRacer


def _max_reachable(state: GameState, b: int) -> int:
    """Greatest height ``b`` can get from one Miner-1-style publish by its owner."""
    if state.is_published(b):
        return state._heights[b]
    owner = state.creator[b]
    pool = sorted(state.unpublished(owner))
    i_b = bisect_right(pool, b)
    best = 0
    for v in state.published_blocks():
        if v < b:
            stack = i_b - bisect_right(pool, v)
            h = state._heights[v] + stack
            if h > best:
                best = h
    return best


def reference_capitulate(state: GameState, c: int) -> GameState:
    """The general settle: survivors by height and reachability, re-pointed,
    re-ranked and re-cached."""
    if c < 0 or c > state.tip_height():
        raise BadHeight(f"no chain block at height {c}")
    g = state._tip
    while state._heights[g] > c:
        g = state.parent[g]

    keep_pub = {v for v in state.parent if state._heights[v] >= c + 1}
    keep_u1 = {u for u in state.unpublished_1 if _max_reachable(state, u) >= c + 1}
    keep_u2 = {u for u in state.unpublished_2 if _max_reachable(state, u) >= c + 1}

    s = GameState()
    s.round = state.round
    s.offset = state.offset if g == GENESIS else g
    s.unpublished_1 = keep_u1
    s.unpublished_2 = keep_u2
    for u in keep_u1 | keep_u2:
        s.creator[u] = state.creator[u]

    for v in sorted(keep_pub):
        anc = state.parent[v]
        while anc != GENESIS and anc not in keep_pub:
            anc = state.parent[anc]
        target = anc if anc in keep_pub else GENESIS
        s.creator[v] = state.creator[v]
        s.parent[v] = target
    for v in sorted(keep_pub, key=state._pub_seq.__getitem__):
        s._pub_seq[v] = (state._pub_seq[v][0], len(s._pub_seq))
    _rebuild_caches(s)
    return s


FIELDS = (
    "parent", "unpublished_1", "unpublished_2", "creator", "round", "offset",
    "_heights", "_chain_m1", "_pub_seq", "_tip",
)


def assert_same_settle(state: GameState, c: int) -> None:
    fast, ref = capitulate(state, c), reference_capitulate(state, c)
    for name in FIELDS:
        assert getattr(fast, name) == getattr(ref, name), (name, c, state)
    assert format_statefile(fast) == format_statefile(ref)


class SettleEverywhere:
    """Observer: before the engine's own settle decision, settles a copy of
    each round's state at the tip and ``depth`` below it, both ways."""

    def __init__(self, depth: int):
        self.depth = depth
        self.rounds = 0

    def round_end(self, state, new_blocks, settled, round_no) -> None:
        tip_h = state.tip_height()
        assert_same_settle(state, tip_h)
        assert_same_settle(state, max(0, tip_h - self.depth))
        self.rounds += 1


STRATEGIES = {
    "frontier": lambda: make_strategy("frontier"),
    "sm": lambda: make_strategy("sm"),
    "nsm": lambda: make_strategy("nsm"),
    "ladder": LadderRacer,
    "topheavy": TopHeavyRacer,
}


@given(
    hst.sampled_from(sorted(STRATEGIES)),
    hst.floats(min_value=0.05, max_value=0.48),
    hst.integers(min_value=0, max_value=2**32 - 1),
    hst.integers(min_value=1, max_value=300),
    hst.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_settle_at_the_tip_matches_the_general_settle(name, alpha, seed, rounds, depth):
    rng = random.Random(seed)
    obs = SettleEverywhere(depth)
    eng = Engine(STRATEGIES[name](), observers=[obs])
    for _ in range(rounds):
        eng.play(MINER1 if rng.random() < alpha else MINER2)
    assert obs.rounds == rounds


def test_settle_at_the_tip_keeps_the_withheld_blocks_that_can_still_win():
    # Miner 2 owns the chain 0-2-3 and withholds 4; Miner 1 withholds 1 and
    # 5.  Settling at height 2, block 1 reaches at most height 1 and is
    # dropped, while 4 and 5 can each still reach height 3 on top of 3.
    # (An engine game never has a Miner-2 block withheld.)
    state = GameState()
    for n, who in ((1, MINER1), (2, MINER2), (3, MINER2), (4, MINER2), (5, MINER1)):
        state.round = n
        state.creator[n] = who
        state.unpublished(who).add(n)
    state._publish_one(2, GENESIS)
    state._publish_one(3, 2)
    settled = capitulate(state, 2)
    assert (settled.unpublished_1, settled.unpublished_2) == ({5}, {4})
    assert settled.creator == {GENESIS: 0, 4: MINER2, 5: MINER1}
    assert settled.parent == {} and settled._tip == GENESIS
    assert settled.offset == 3
    for c in (2, 1, 0):
        assert_same_settle(state, c)


def test_settle_above_the_tip_is_still_refused():
    with pytest.raises(BadHeight):
        capitulate(GameState(), 1)


@given(
    hst.integers(min_value=0, max_value=60),
    hst.integers(min_value=0, max_value=60),
    hst.integers(min_value=0, max_value=40),
    hst.integers(min_value=0, max_value=2**32 - 1),
)
@example(60, 60, 40, 0)
@example(60, 0, 0, 1)
@settings(max_examples=80, deadline=None)
def test_survivor_merge_matches_max_reachable(n1, n2, n_pub, seed):
    # Both pools withheld, interleaved with a published tree of random
    # forks; every settle height from genesis to the tip.
    rng = random.Random(seed)
    roles = [MINER1] * n1 + [MINER2] * n2 + [GENESIS] * n_pub
    rng.shuffle(roles)
    state = GameState()
    state.round = len(roles)
    published = [GENESIS]
    for b, role in enumerate(roles, 1):
        state.creator[b] = role or rng.choice((MINER1, MINER2))
        if role:
            state.unpublished(role).add(b)
        else:
            state._publish_one(b, rng.choice(published))
            published.append(b)
    for c in range(state.tip_height() + 1):
        fast = capitulate(state, c)
        for pool, kept in ((state.unpublished_1, fast.unpublished_1), (state.unpublished_2, fast.unpublished_2)):
            assert kept == {u for u in pool if _max_reachable(state, u) >= c + 1}, (c, state)
        assert_same_settle(state, c)
