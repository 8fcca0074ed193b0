"""The replay and shadow-game fast paths against the bodies they replaced,
kept here as they stood before: the path reader and the timeserving test
(which desugared every action), the checkpoint scan (which walked the chain
through `chain_path` and bisected an empty pool too), the fork-ownership
check's ancestor walk (a set of ancestors back to genesis), the override
check (which called `is_trimmed` again and set-tested the checkpoints)
and the reduction wrappers' rank pairing (redone every round).  Each pair
must give the same value, or raise the same exception type, at every
half-round and round end of random games, and on malformed actions."""

import os
import random
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hst

from posmine import structure
from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    HalfState,
    PublishPath,
    PublishSet,
    Wait,
    begin_round,
    chain_path,
    desugar,
    on_chain,
    successors,
)
from posmine.reductions import (
    LcmReduction,
    LcmStepReduction,
    OrderlyReduction,
    _check_sigma_coupling,
    _ShadowWrapper,
)
from posmine.strategies import Engine, format_action, make_strategy, run_game
from posmine.structure import (
    MonitorReport,
    Witness,
    _as_path,
    _Audit,
    checkpoints,
    is_timeserving,
    is_trimmed,
)
from audit_reference import _ForkOwnershipMonitor
from conftest import LadderRacer, TopHeavyRacer

# ---------------------------------------------------------------------------
# the bodies before the fast paths


def reference_as_path(state, action):
    flat = desugar(state, MINER1, action)
    if isinstance(flat, Wait):
        return None
    blocks = sorted(flat.blocks)
    parents = dict(flat.edges)
    if len(flat.edges) != len(blocks) or not blocks or blocks[0] not in parents:
        return None
    for prev, v in zip(blocks, blocks[1:]):
        if parents.get(v) != prev:
            return None
    return blocks, parents[blocks[0]]


def reference_is_timeserving(state, action):
    flat = desugar(state, MINER1, action)
    if isinstance(flat, Wait):
        return True
    parents = dict(flat.edges)
    heights = {}
    for v in sorted(flat.blocks):
        p = parents[v]
        heights[v] = (heights[p] if p in heights else state._heights[p]) + 1
    tip, tip_h = state.tip(), state.tip_height()
    for v in sorted(flat.blocks):
        if heights[v] > tip_h:
            tip, tip_h = v, heights[v]
    new_chain = set()
    b = tip
    while True:
        new_chain.add(b)
        if b == GENESIS:
            break
        b = parents[b] if b in parents else state.parent[b]
    return flat.blocks <= new_chain


def reference_checkpoints(state):
    u1 = sorted(state.unpublished_1)
    cps = [GENESIS]
    last = GENESIS
    t1_since = 0
    for v in chain_path(state)[1:]:
        if state.creator[v] == MINER1:
            t1_since += 1
        if t1_since >= bisect_right(u1, v) - bisect_right(u1, last):
            cps.append(v)
            last = v
            t1_since = 0
    return cps


class ReferenceForkMonitor(_ForkOwnershipMonitor):
    def _check_pair(self, state, b, other, round_no):
        pair = (b, other)
        chain_side = [q for q in pair if on_chain(state, q)]
        if not chain_side:
            return
        self.report.checked += 1
        q = chain_side[0]
        tilde = pair[1] if q == pair[0] else pair[0]
        x, y = q, tilde
        seen = set()
        while x != GENESIS:
            seen.add(x)
            x = state.parent[x]
        seen.add(GENESIS)
        r = y
        while r not in seen:
            r = state.parent[r]
        v = q
        while v != r:
            if state.creator[v] != MINER1:
                self.report.hit(round_no, f"blocks {q} and {tilde} at equal height, "
                                          f"but {v} on the chain side is Miner 2's")
                return
            v = state.parent[v]


class ReferenceOverrideMonitor:
    def __init__(self, report):
        self.report = report
        self.pending = None

    def half(self, state, creator, block, action):
        self.pending = None
        if isinstance(action, Wait):
            return
        path = reference_as_path(state, action)
        if path is None or not is_trimmed(state, action):
            self.report.skipped.append(Witness(state.round, format_action(action)))
            return
        base = path[1]
        cps = set(reference_checkpoints(state))
        if base in cps or any(s in cps for s in successors(state, base)):
            self.pending = (state.round, format_action(action))

    def round_end(self, state, new_blocks, capped, round_no):
        if self.pending is None:
            return
        rnd, label = self.pending
        self.pending = None
        self.report.checked += 1
        if state.tip() not in reference_checkpoints(state):
            self.report.hit(rnd, label)


def reference_advance(self, half):
    n = begin_round(self.shadow, half.creator)
    if half.creator == MINER2:
        self.shadow._publish_one(n, self.shadow.tip())
    sh_u = sorted(self.shadow.unpublished_1)
    re_u = sorted(half.state.unpublished_1)
    if len(sh_u) > len(re_u):
        raise RuntimeError("shadow game diverged from the real game")
    for b, target in zip(sh_u, re_u):
        self.sigma.set(b, target)
    if self.check:
        _check_sigma_coupling(self.sigma, self.shadow, half.state)
    return HalfState(self.shadow, half.creator, n)


# ---------------------------------------------------------------------------
# comparison helpers


def outcome(fn, *args):
    """The value ``fn`` returns, or the type of the exception it raises."""
    try:
        return "value", fn(*args)
    except Exception as e:  # the exception type is the outcome compared
        return "raises", type(e)


def probe_actions(state):
    """Publishes to try at a position, well-formed and not: a path of the
    k smallest withheld blocks above each published block (timeserving or
    not), the newest withheld blocks, the same path as an explicit edge
    set, a fork-shaped and a gapped edge set, an empty block set, and a
    path on an unpublished or unknown base."""
    u1 = sorted(state.unpublished_1)
    bases = sorted(state.published_blocks())
    actions = []
    for base in bases[-4:] + bases[:2]:
        pool = [b for b in u1 if b > base]
        for k in sorted({1, 2, len(pool)}):
            if 0 < k <= len(pool):
                actions.append(PublishPath(frozenset(pool[:k]), base))
        if len(pool) >= 2:
            actions.append(PublishPath(frozenset(pool[-2:]), base))
            a, b = pool[0], pool[1]
            actions.append(PublishSet(frozenset({a, b}), ((a, base), (b, a))))
            actions.append(PublishSet(frozenset({a, b}), ((a, base), (b, base))))
            actions.append(PublishSet(frozenset({a, b}), ((b, a),)))
    actions.append(PublishPath(frozenset(), GENESIS))
    unpublished = sorted(state.unpublished_1 | state.unpublished_2)
    for base in unpublished[:2] + [state.round + 5]:
        actions.append(PublishPath(frozenset(u1[:1]), base))
        actions.append(PublishPath(frozenset(), base))
    return actions


def assert_same_paths(state, actions):
    for action in actions:
        assert outcome(_as_path, state, action) == outcome(reference_as_path, state, action), action
        assert outcome(is_timeserving, state, action) == outcome(
            reference_is_timeserving, state, action
        ), action


def equal_height_pairs(state):
    by_height = {}
    for b in state.parent:
        by_height.setdefault(state._heights[b], []).append(b)
    for peers in by_height.values():
        for i, b in enumerate(peers):
            for other in peers[:i]:
                yield b, other


def audit_fork(report):
    """The audit observer with only its fork-ownership check, filling ``report``."""
    audit = _Audit(("fork",))
    audit.fork = report
    return audit


def fork_outcome(monitor_class, state, b, other):
    report = MonitorReport()
    monitor_class(report)._check_pair(state, b, other, state.round)
    return report


class CompareEverywhere:
    """Observer: at every half-round and round end, checks each fast path
    against its reference body on the live position."""

    def __init__(self):
        self.cache = _Audit(())._checkpoints
        self.positions = 0

    def _position(self, state):
        want = reference_checkpoints(state)
        assert checkpoints(state) == want
        assert self.cache(state) == want
        assert_same_paths(state, probe_actions(state))
        for b, other in equal_height_pairs(state):
            assert fork_outcome(audit_fork, state, b, other) == fork_outcome(
                ReferenceForkMonitor, state, b, other
            )
        self.positions += 1

    def half(self, state, creator, block, action):
        self._position(state)
        assert_same_paths(state, [action])

    def round_end(self, state, new_blocks, settled, round_no):
        self._position(state)


STRATEGIES = {
    "frontier": lambda: make_strategy("frontier"),
    "sm": lambda: make_strategy("sm"),
    "nsm": lambda: make_strategy("nsm"),
    "ladder": LadderRacer,
    "topheavy": TopHeavyRacer,
}

games = hst.tuples(
    hst.sampled_from(sorted(STRATEGIES)),
    hst.floats(min_value=0.05, max_value=0.48),
    hst.integers(min_value=0, max_value=2**32 - 1),
    hst.integers(min_value=1, max_value=150),
)


# ---------------------------------------------------------------------------
# structure


@given(games)
@settings(max_examples=150, deadline=None)
def test_fast_paths_match_their_references_at_every_position(game):
    name, alpha, seed, rounds = game
    rng = random.Random(seed)
    obs = CompareEverywhere()
    eng = Engine(STRATEGIES[name](), observers=[obs])
    for _ in range(rounds):
        eng.play(MINER1 if rng.random() < alpha else MINER2)
    assert obs.positions == 2 * rounds


@given(games)
@settings(max_examples=100, deadline=None)
def test_monitors_match_their_references(game):
    name, alpha, seed, rounds = game
    trace = run_game(STRATEGIES[name](), alpha, rounds * 4, seed=seed)
    reports = [MonitorReport() for _ in range(4)]
    audit = _Audit(("fork", "override"))
    audit.fork, audit.override = reports[0], reports[2]
    structure.replay_trace(trace, [
        audit,
        ReferenceForkMonitor(reports[1]),
        ReferenceOverrideMonitor(reports[3]),
    ])
    assert reports[0] == reports[1]
    assert reports[2] == reports[3]


def test_malformed_actions_give_the_same_outcome(race_state, example_fig_state):
    # race_state: Miner 2 owns 0-1-2, Miner 1 holds 3 and 4
    for state in (race_state, example_fig_state):
        u1 = sorted(state.unpublished_1)
        published = sorted(state.published_blocks())
        unknown = state.round + 3
        actions = [
            PublishPath(frozenset(), GENESIS),
            PublishPath(frozenset(), unknown),
            PublishPath(frozenset(u1[:1]), unknown),
            PublishPath(frozenset(u1[:2]), u1[0]),  # base among the blocks
            PublishPath(frozenset(u1[-1:]), u1[0]),  # base withheld
            PublishPath(frozenset({published[-1]}), GENESIS),  # a published block again
            PublishPath(frozenset({unknown}), GENESIS),
            PublishSet(frozenset(), ()),
            PublishSet(frozenset(u1[:1]), ()),
            PublishSet(frozenset(u1[:1]), ((u1[0], unknown),)),
        ]
        actions += probe_actions(state)
        assert_same_paths(state, actions)


# ---------------------------------------------------------------------------
# reductions


class Recording:
    """Mixin: records sigma after every round's pairing."""

    def reset(self):
        super().reset()
        self.pairings = []

    def _advance(self, half):
        out = self._advance_body(half)
        self.pairings.append(dict(self.sigma.diff))
        return out


def recording(wrapper_class, advance):
    return type(
        f"Recording{wrapper_class.__name__}",
        (Recording, wrapper_class),
        {"_advance_body": advance},
    )


WRAPPERS = {
    "orderly": lambda cls, inner: cls(inner),
    "lcm": lambda cls, inner: cls(inner, horizon=60),
    "lcm-step": lambda cls, inner: cls(inner, step_round=20),
}
WRAPPER_CLASSES = {"orderly": OrderlyReduction, "lcm": LcmReduction, "lcm-step": LcmStepReduction}


def play_wrapped(kind, inner_name, advance, alpha, seed, rounds, check=False):
    cls = recording(WRAPPER_CLASSES[kind], advance)
    wrapper = WRAPPERS[kind](cls, STRATEGIES[inner_name]())
    wrapper.check = check
    try:
        trace = run_game(wrapper, alpha, rounds, seed=seed)
        result = ("trace", trace.m1_actions, trace.heights, trace.r1)
    except Exception as e:  # the failure, its type and message, is compared
        result = ("raises", type(e), str(e))
    return result, wrapper.pairings


@given(
    hst.sampled_from(sorted(WRAPPERS)),
    hst.sampled_from(sorted(STRATEGIES)),
    hst.floats(min_value=0.05, max_value=0.48),
    hst.integers(min_value=0, max_value=2**32 - 1),
    hst.integers(min_value=1, max_value=200),
)
@settings(max_examples=150, deadline=None)
def test_pairing_matches_the_full_re_pairing(kind, inner, alpha, seed, rounds):
    fast = play_wrapped(kind, inner, _ShadowWrapper._advance, alpha, seed, rounds)
    ref = play_wrapped(kind, inner, reference_advance, alpha, seed, rounds)
    assert fast == ref


@pytest.mark.parametrize("inner", sorted(STRATEGIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_checked_orderly_reduction_passes_with_the_fast_pairing(inner, seed):
    fast = play_wrapped("orderly", inner, _ShadowWrapper._advance, 0.4, seed, 600, check=True)
    ref = play_wrapped("orderly", inner, reference_advance, 0.4, seed, 600, check=True)
    assert fast == ref
    assert fast[0][0] == "trace"


# ---------------------------------------------------------------------------
# optimised Python

OPTIMISED_RUN = """
import hashlib
from posmine.reductions import CouplingBroken, lcm_reduce, orderly_reduce
from posmine.strategies import make_strategy, run_game
from posmine.structure import (
    ReplayDiverged, checkpoint_override_check, classify_trace, fork_ownership_check,
)
from conftest import LadderRacer

def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()

trace = run_game(LadderRacer(), 0.4, 800, seed=1)
print(digest((classify_trace(trace).as_dict(), fork_ownership_check(trace),
              checkpoint_override_check(trace))))
trace.heights[399] += 1
try:
    classify_trace(trace)
except ReplayDiverged as e:
    print(type(e).__name__, e)
game = run_game(orderly_reduce(make_strategy("nsm"), check=True), 0.45, 1500, seed=4)
print(digest((game.m1_actions, game.revenue_series())))
try:
    run_game(lcm_reduce(LadderRacer(), horizon=400, check=True), 0.4, 600, seed=3)
except CouplingBroken as e:
    print(type(e).__name__, e)
"""


def test_fast_paths_behave_the_same_under_optimised_python():
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    runs = [
        subprocess.run([sys.executable, *flags, "-c", OPTIMISED_RUN], capture_output=True,
                       text=True, env=env, timeout=300)
        for flags in ([], ["-O"])
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    normal, optimised = (proc.stdout.splitlines() for proc in runs)
    assert optimised == normal
    # as the code before the fast paths printed it
    assert normal == [
        "c53fa7f6939b6f6d04531f60d29396cfcd8043542c3cc6b7f4efe1d791433076",
        "ReplayDiverged replay diverged at round 400: recorded height 255, replayed 254",
        "b23126d83183f7b4d7e074d5e7efddbb085cc4b879e789e163e44c8044f7a9b8",
        "CouplingBroken edge mismatch at shadow block 197",
    ]
