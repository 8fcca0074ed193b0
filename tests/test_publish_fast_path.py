"""The publish fast path against the bodies it replaced, kept here as they
stood before: `validate_action`, which desugared every action and ran the
generic edge checks, and `attach_action`, which published through a
block -> parent dict in ascending label order.  A `PublishPath` now skips
the desugar and the generic checks.  On positions of random games, on
their live actions and on probe paths (well-formed or not), both must give
an equal `PublishSet` (the same edge tuple) or raise the same exception
type with the same args, and attaching must leave equal trees.  Also here:
the engine's observer hooks and `mc_value`'s argument checks."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as hst

from posmine.analysis import DomainError, mc_value
from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    BackwardEdge,
    DanglingEdge,
    EdgeCardinality,
    NotOwned,
    Publish,
    PublishPath,
    PublishSet,
    Wait,
    attach_action,
    begin_round,
    desugar,
    initial_state,
    validate_action,
)
from posmine.strategies import Engine, make_strategy
from conftest import LadderRacer, TopHeavyRacer

# ---------------------------------------------------------------------------
# the bodies before the fast path


def reference_validate_action(state, miner, action):
    flat = desugar(state, miner, action)
    if isinstance(flat, Wait):
        return flat
    own = state.unpublished(miner)
    for b in sorted(flat.blocks):
        if b not in own:
            raise NotOwned(b)
    for v, t in flat.edges:
        if not (state.is_published(t) or t in flat.blocks):
            raise DanglingEdge((v, t))
    for v, t in flat.edges:
        if not v > t:
            raise BackwardEdge((v, t))
    outgoing = {}
    for v, _ in flat.edges:
        outgoing[v] = outgoing.get(v, 0) + 1
    for b in sorted(flat.blocks):
        if outgoing.get(b, 0) != 1:
            raise EdgeCardinality(b)
    for v in sorted(outgoing):
        if v not in flat.blocks:
            raise EdgeCardinality(v)
    return flat


def reference_attach_action(state, miner, action):
    flat = reference_validate_action(state, miner, action)
    if not isinstance(flat, Wait):
        parent_of = dict(flat.edges)
        for b in sorted(flat.blocks):
            state._publish_one(b, parent_of[b])
    return flat


TREE = ("parent", "unpublished_1", "unpublished_2", "_pub_seq", "_heights", "_chain_m1", "_tip")


def outcome(fn, state, miner, action):
    try:
        return fn(state, miner, action)
    except Exception as e:  # the type and args are what is compared
        return type(e), e.args


def assert_same(state, miner, action):
    fast = outcome(validate_action, state, miner, action)
    ref = outcome(reference_validate_action, state, miner, action)
    assert fast == ref, (action, state)
    if isinstance(ref, PublishSet):
        assert fast.edges == ref.edges and fast.blocks == ref.blocks
        a, b = state.clone(), state.clone()
        assert attach_action(a, miner, action) == reference_attach_action(b, miner, action)
        for name in TREE:
            assert getattr(a, name) == getattr(b, name), (name, action, state)
    return ref


def probes(state, rng):
    """Publish paths on ``state``: the live kinds and every malformed shape."""
    pool = sorted(state.unpublished_1)
    published = sorted(state.published_blocks())
    theirs = [b for b in state.creator if state.creator[b] == MINER2]
    unknown = state.round + 1
    out = [
        PublishPath(frozenset(), rng.choice(published)),
        PublishPath(frozenset(), unknown),
        PublishPath(frozenset({unknown}), GENESIS),
    ]
    if theirs:
        out.append(PublishPath(frozenset({rng.choice(theirs)}), GENESIS))
    for _ in range(3 if pool else 0):
        blocks = rng.sample(pool, rng.randint(1, len(pool)))
        low, high = min(blocks), max(blocks)
        chosen = frozenset(blocks)
        below = [v for v in published if v < low]
        others = [b for b in pool if b not in chosen]
        out += [
            PublishPath(chosen, rng.choice(below)),  # well-formed
            PublishPath(chosen, below[-1]),
            PublishPath(chosen, rng.choice(published)),  # may sit above the smallest block
            PublishPath(chosen, low),  # base equal to a block
            PublishPath(chosen, high),  # base in the set, above the smallest
            PublishPath(chosen, unknown),  # unknown base
            PublishPath(chosen, -1),
            PublishPath(chosen | {unknown}, GENESIS),  # unknown block
            Publish(len(blocks), rng.choice(below)),
        ]
        if others:
            out.append(PublishPath(chosen, rng.choice(others)))  # unpublished base
        if theirs:
            out.append(PublishPath(chosen | {rng.choice(theirs)}, GENESIS))  # a block of Miner 2's
        # the same edges as an explicit set, listed newest first
        flat = desugar(state, MINER1, PublishPath(chosen, rng.choice(below)))
        out.append(PublishSet(flat.blocks, flat.edges[::-1]))
    return out


class Prober:
    """Observer: compares both bodies on the live action and on probes, at
    each half-round and at each round end before the settle."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.valid = 0

    def check(self, state, action=None) -> None:
        actions = probes(state, self.rng)
        if action is not None and not isinstance(action, Wait):
            actions.append(action)
        for a in actions:
            if isinstance(assert_same(state, MINER1, a), PublishSet):
                self.valid += 1
        # Miner 2 withholds nothing in an engine game
        for a in actions[:4]:
            assert_same(state, MINER2, a)

    def half(self, state, creator, block, action) -> None:
        self.check(state, action)

    def round_end(self, state, new_blocks, settled, round_no) -> None:
        self.check(state)


STRATEGIES = {
    "sm": lambda: make_strategy("sm"),
    "nsm": lambda: make_strategy("nsm"),
    "ladder": LadderRacer,
    "topheavy": TopHeavyRacer,
}


@given(
    hst.sampled_from(sorted(STRATEGIES)),
    hst.floats(min_value=0.05, max_value=0.48),
    hst.integers(min_value=0, max_value=2**32 - 1),
    hst.integers(min_value=1, max_value=200),
)
@settings(max_examples=120, deadline=None)
def test_publish_paths_match_the_generic_checks(name, alpha, seed, rounds):
    rng = random.Random(seed)
    obs = Prober(seed)
    eng = Engine(STRATEGIES[name](), observers=[obs])
    for _ in range(rounds):
        eng.play(MINER1 if rng.random() < alpha else MINER2)
    assert obs.valid > 0


def test_malformed_paths_raise_what_the_generic_checks_raise():
    # Miner 2 owns the chain 0-1-2; Miner 1 holds 3 and 4; Miner 2 holds 5.
    state = initial_state()
    for who in (MINER2, MINER2, MINER1, MINER1, MINER2):
        n = begin_round(state, who)
        if n < 3:
            state._publish_one(n, state.tip())
    cases = [
        (PublishPath(frozenset({3, 4}), 2), PublishSet(frozenset({3, 4}), ((3, 2), (4, 3)))),
        (PublishPath(frozenset({4}), 0), PublishSet(frozenset({4}), ((4, 0),))),
        (PublishPath(frozenset(), 99), PublishSet(frozenset(), ())),
        (PublishPath(frozenset({3, 5}), 2), (NotOwned, ("block 5 is not an unpublished block of the acting miner",))),
        (PublishPath(frozenset({1, 4}), 0), (NotOwned, ("block 1 is not an unpublished block of the acting miner",))),
        (PublishPath(frozenset({3, 7}), 2), (NotOwned, ("block 7 is not an unpublished block of the acting miner",))),
        (PublishPath(frozenset({4}), 3), (DanglingEdge, ("edge 4->3 points outside the tree and the published set",))),
        (PublishPath(frozenset({3}), 9), (DanglingEdge, ("edge 3->9 points outside the tree and the published set",))),
        (PublishPath(frozenset({3, 4}), 3), (BackwardEdge, ("edge 3->3 must point to a strictly earlier block",))),
        (PublishPath(frozenset({3, 4}), 4), (BackwardEdge, ("edge 3->4 must point to a strictly earlier block",))),
    ]
    for action, expect in cases:
        assert assert_same(state, MINER1, action) == expect
    assert assert_same(state, MINER2, PublishPath(frozenset({5}), 2)) == PublishSet(frozenset({5}), ((5, 2),))
    assert assert_same(state, MINER2, PublishPath(frozenset({3}), 2))[0] is NotOwned


def test_an_explicit_set_listed_newest_first_still_attaches_oldest_first():
    state = initial_state()
    for _ in range(3):
        begin_round(state, MINER1)
    action = PublishSet(frozenset({1, 2, 3}), ((3, 1), (2, 1), (1, GENESIS)))
    assert_same(state, MINER1, action)
    attach_action(state, MINER1, action)
    assert state._pub_seq == {GENESIS: (0, 0), 1: (3, 1), 2: (3, 2), 3: (3, 3)}
    assert state._tip == 2


# ---------------------------------------------------------------------------
# engine hooks and mc_value arguments


class Counter:
    def __init__(self):
        self.counts = [0, 0, 0]

    def half(self, state, creator, block, action):
        self.counts[0] += 1

    def round_end(self, state, new_blocks, settled, round_no):
        self.counts[1] += 1

    def capitulated(self, state):
        self.counts[2] += 1


@pytest.mark.parametrize("wrap", [list, tuple, iter, lambda obs: (o for o in obs)])
def test_every_hook_fires_whatever_iterable_holds_the_observers(wrap):
    obs = Counter()
    eng = Engine(make_strategy("sm"), observers=wrap([obs]))
    for creator in (1, 2, 2, 1, 2, 2, 2):
        eng.play(creator)
    assert obs.counts == [7, 7, 3]


@pytest.mark.parametrize("lam", [math.nan, -0.1, 1.5, math.inf, -math.inf])
def test_value_rejects_a_weight_outside_the_unit_interval(lam):
    with pytest.raises(DomainError, match="lam"):
        mc_value("sm", initial_state(), lam, 0.25, episodes=10, seed=3)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_value_accepts_the_unit_interval_ends(lam):
    v = mc_value("sm", initial_state(), lam, 0.25, episodes=10, seed=3)
    assert v.lam == lam and math.isfinite(v.estimate)
