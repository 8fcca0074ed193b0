"""The one audit observer against the observers it replaced.

`audit_reference` keeps the five observers and the per-position checkpoint
cache as they stood; on every game here the audit's three reports must
equal theirs, and its checkpoint cache must equal `checkpoints` at every
position.  The games cover the stock strategies, both racers, both
reduction wrappers and a seeded random mover whose moves reach every branch
of a publish: paths on any published base, one block on the tip, fork-shaped
and two-base `PublishSet`s, `Publish(count, base)`, empty publishes and
settles at any time."""

import random

from hypothesis import given, settings, strategies as hst

from posmine import structure
from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    WAIT,
    Publish,
    PublishPath,
    PublishSet,
)
from posmine.reductions import lcm_reduce, orderly_reduce
from posmine.strategies import Engine, Scripted, StrategyDecision, make_strategy, run_game
from posmine.structure import _Audit, checkpoints
import audit_reference as ref
from conftest import LadderRacer, TopHeavyRacer

CHECKS = ("props", "fork", "override")  # the audit's reports, in `ref._RUNS` order


class RandomMover:
    """Test double: a seeded Miner 1 that picks a random valid move each
    round, and settles now and then."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self.rng = random.Random(self.seed)

    def attach(self, state) -> None:
        pass

    def decide(self, half) -> StrategyDecision:
        st, rng = half.state, self.rng
        bases = sorted(st.published_blocks())
        base = rng.choice(bases[-3:] + bases[:1] + [st.tip()])
        pool = sorted(b for b in st.unpublished_1 if b > base)
        kind = rng.randrange(8)
        if kind == 0:
            action = rng.choice([PublishPath(frozenset(), base), PublishSet(frozenset(), ())])
        elif not pool or kind < 3:
            action = WAIT
        elif kind == 3:
            action = PublishPath(frozenset(rng.sample(pool, rng.randint(1, len(pool)))), base)
        elif kind == 4:
            action = PublishPath(frozenset(pool[:1]), st.tip()) if pool[0] > st.tip() else WAIT
        elif kind == 5:
            action = Publish(rng.randint(1, len(pool)), base)
        elif len(pool) < 2:
            action = WAIT
        else:
            a, b = sorted(rng.sample(pool, 2))
            # a fork on one base, or b on a second, lower-or-higher published base
            other = rng.choice([v for v in bases if v < b])
            action = PublishSet(frozenset({a, b}), ((a, base), (b, rng.choice([base, other]))))
        return StrategyDecision(action, rng.random() < 0.06)


class CacheCheck:
    """Observer: the audit's checkpoint cache equals `checkpoints` at every
    half-round and round end, hands back the same list object while nothing
    new is published on the same state, and a new one for a new state."""

    def __init__(self):
        self.cache = _Audit()._checkpoints
        self.last = None  # (state, publish count, list)

    def _position(self, state):
        cps = self.cache(state)
        assert cps == checkpoints(state)
        n = len(state._pub_round)
        if self.last is not None:
            last_state, last_n, last_cps = self.last
            if last_state is state and last_n == n:
                assert cps is last_cps
            if last_state is not state:  # a settle's new state is recomputed
                assert cps is not last_cps
        self.last = (state, n, cps)

    def half(self, state, creator, block, action):
        self._position(state)

    def round_end(self, state, new_blocks, settled, round_no):
        self._position(state)


def reference_reports(trace, checks=CHECKS):
    """The reports of today's observers, sharing one checkpoint cache as the
    shared replay did."""
    cps = ref._RoundCheckpoints()
    runs = dict(zip(CHECKS, (r(cps) for r in ref._RUNS)))
    structure.replay_trace(trace, [obs for c in checks for obs in runs[c][1]])
    return [runs[c][0] for c in checks]


def audit_reports(trace):
    audit = _Audit()
    structure.replay_trace(trace, [audit])
    return [getattr(audit, c) for c in CHECKS]


INNER = {
    "frontier": lambda: make_strategy("frontier"),
    "sm": lambda: make_strategy("sm"),
    "nsm": lambda: make_strategy("nsm"),
    "ladder": LadderRacer,
    "topheavy": TopHeavyRacer,
}
WRAP = {
    "none": lambda inner, rounds: inner,
    "orderly": lambda inner, rounds: orderly_reduce(inner),
    "lcm": lambda inner, rounds: lcm_reduce(inner, horizon=rounds),
}

alphas = hst.floats(min_value=0.05, max_value=0.49)
seeds = hst.integers(min_value=0, max_value=2**32 - 1)


@given(hst.sampled_from(sorted(INNER)), hst.sampled_from(sorted(WRAP)), alphas, seeds,
       hst.integers(min_value=1, max_value=400))
@settings(max_examples=120, deadline=None)
def test_audit_reports_equal_the_reference_observers(inner, wrap, alpha, seed, rounds):
    trace = run_game(WRAP[wrap](INNER[inner](), rounds), alpha, rounds, seed=seed)
    assert audit_reports(trace) == reference_reports(trace)


@given(seeds, alphas, hst.integers(min_value=1, max_value=300))
@settings(max_examples=150, deadline=None)
def test_random_moves_give_the_reference_reports(seed, alpha, rounds):
    trace = run_game(RandomMover(seed), alpha, rounds, seed=seed)
    audit = audit_reports(trace)
    assert audit == reference_reports(trace)
    for report, check in zip(audit, CHECKS):  # each reference observer alone
        assert [report] == reference_reports(trace, (check,))


@given(seeds, alphas, hst.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_checkpoint_cache_equals_checkpoints_at_every_position(seed, alpha, rounds):
    rng = random.Random(seed)
    obs = CacheCheck()
    eng = Engine(RandomMover(seed), observers=[obs])
    for _ in range(rounds):
        eng.play(MINER1 if rng.random() < alpha else MINER2)


def scripted(creators, moves):
    """The audit's and the reference's reports on a scripted game."""
    trace = run_game(Scripted(moves), 0.5, len(creators), creators=creators)
    return audit_reports(trace), reference_reports(trace)


def test_a_watch_knocked_off_and_back_on_is_not_judged():
    # 1 goes on genesis, 2-3 knock it off, 4-5 bring it back: its watch
    # ended in round 4, so the settle in round 6 judges only 5's full publish
    creators = [1, 1, 1, 1, 1, 2]
    moves = [
        (3, PublishPath(frozenset({1}), GENESIS), False),
        (4, PublishPath(frozenset({2, 3}), GENESIS), False),
        (5, PublishPath(frozenset({4, 5}), 1), False),
        (6, PublishPath(frozenset(), GENESIS), True),
    ]
    audit, want = scripted(creators, moves)
    assert audit == want
    assert audit[0].opportunistic.holds


def test_moved_checkpoints_are_seen_after_a_recompute():
    # Miner 2's block 1 is a checkpoint until Miner 1's 2-3-4 replaces it
    creators = [2, 1, 1, 1]
    moves = [(4, PublishPath(frozenset({2, 3, 4}), GENESIS), False)]
    audit, want = scripted(creators, moves)
    assert audit == want
    assert [w.round for w in audit[0].checkpoint_recurrent.violations] == [4]


def test_a_fork_of_one_block_recomputes_the_checkpoints():
    # Miner 1's block 1 forks off the chain 0-2-3: one new publication, but
    # not on the tip, and it empties the pool that kept 2 from being one
    creators = [1, 2, 2, 1]
    moves = [(4, PublishPath(frozenset({1}), GENESIS), False)]
    obs = CacheCheck()
    eng = Engine(Scripted(moves), observers=[obs])
    for c in creators:
        eng.play(c)
    assert checkpoints(eng.state) == [GENESIS, 2, 3]
    audit, want = scripted(creators, moves)
    assert audit == want
