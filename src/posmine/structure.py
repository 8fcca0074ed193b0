"""Checkpoints and structural classifiers over states, actions, and traces.

A checkpoint is a chain block by which Miner 1 has published (into the
longest chain) at least as many of its blocks as it still withholds,
counting from the previous checkpoint; checkpoints act like provisional
genesis blocks.  The per-action classifiers (timeserving, orderly,
longest-chain mining, trimmed) look at one Miner-1 action against the
mid-round :class:`GameState` (Miner 2 has already acted; pass a
``HalfState``'s ``state``); the trace classifiers replay a recorded game and check
every action, plus the two retrospective properties (opportunistic,
checkpoint-recurrent) that need to see how the game continued.

The three trace checks (:func:`classify_trace`, :func:`fork_ownership_check`,
:func:`checkpoint_override_check`) share one replay per trace: the first of
them called on a trace replays it once with one observer for all three and
keeps the three reports on the trace, next to a snapshot of the lists the
replay read.  A later call reuses them while the trace still matches the
snapshot, replays again when it does not, and always returns a fresh copy.
A replay that raises keeps nothing, so the call raises its error and the
next call replays again.

The replay is kept cheap per round.  Its one observer hooks each round once
per hook and reads each Miner-1 publish once for every check: its label,
its path (a :class:`PublishPath` is read as the path it is, not desugared),
whether its base is on the chain and whether it is trimmed.  It keeps one
checkpoint list: the same list object while nothing is published, stepped
in O(withheld blocks) when the one new publication is a block on the old
tip, and recomputed otherwise (with nothing unpublished ``checkpoints``
returns the chain as it is).  Its opportunistic watch list is rescanned
only on rounds that settle or publish a Miner-1 block.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from typing import Optional

from .blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    Action,
    BlockTreeError,
    GameState,
    PublishPath,
    PublishSet,
    Wait,
    chain_path,
    desugar,
    on_chain,
    successors,
    validate_action,
)
from .strategies import Engine, Scripted, Trace, format_action

__all__ = [
    "NoCheckpointAbove",
    "ReplayDiverged",
    "TraceLengthMismatch",
    "checkpoints",
    "checkpoint_inequality",
    "checkpoint_reward_bound",
    "is_timeserving",
    "is_orderly",
    "is_lcm",
    "is_trimmed",
    "classify_trace",
    "checkpoint_lift",
    "is_safe_lift",
    "checkpoint_override_check",
    "fork_ownership_check",
    "replay_trace",
    "CheckVerdict",
    "Witness",
    "PropertyVerdict",
    "PropertyReport",
    "MonitorReport",
]


class NoCheckpointAbove(BlockTreeError):
    """The action's base has no checkpoint among its chain successors."""


class TraceLengthMismatch(BlockTreeError, ValueError):
    """A trace's per-round lists do not all have one entry per creator."""

    def __init__(self, lengths: dict[str, int]):
        super().__init__(
            "trace lists differ in length: " + ", ".join(f"{k} {v}" for k, v in lengths.items())
        )
        self.lengths = lengths


class ReplayDiverged(BlockTreeError):
    """A replayed round reached a different chain height than recorded."""

    def __init__(self, round: int, expected: int, actual: int):
        super().__init__(
            f"replay diverged at round {round}: recorded height {expected}, replayed {actual}"
        )
        self.round = round
        self.expected = expected
        self.actual = actual


# ---------------------------------------------------------------------------
# checkpoints


def checkpoints(state: GameState) -> list[int]:
    """All defined checkpoints, ascending, starting at genesis.

    Scanning the chain upward, a block v becomes the next checkpoint as
    soon as Miner 1 has at least as many blocks in the chain window since
    the previous checkpoint as it has unpublished blocks in that window
    (window = labels in (previous, v]); the minimum such block wins.  With
    nothing unpublished every chain block is one, so the chain is returned
    as it is.
    """
    parent = state.parent
    b = state._tip
    chain = [b]
    while b != GENESIS:
        b = parent[b]
        chain.append(b)
    chain.reverse()
    if not state.unpublished_1:
        return chain
    u1 = sorted(state.unpublished_1)
    creator = state.creator
    cps = [GENESIS]
    below = t1_since = 0  # unpublished up to the last checkpoint, Miner-1 chain blocks since
    for v in chain[1:]:
        if creator[v] == MINER1:
            t1_since += 1
        upto = bisect_right(u1, v)
        if t1_since >= upto - below:
            cps.append(v)
            below, t1_since = upto, 0
    return cps


@dataclass(frozen=True)
class CheckVerdict:
    holds: bool
    witness: str = ""

    def __bool__(self) -> bool:
        return self.holds


def checkpoint_inequality(state: GameState) -> CheckVerdict:
    """Window-count comparisons between chain blocks and checkpoints.

    For every chain block v and checkpoint P above it (counting all
    unpublished blocks of either miner):
      (i)   v checkpoint:      chain-T1(v, P]  >= unpublished(v, P)
      (ii)  v not, P below v:  chain-T1(P, v]  <  unpublished(P, v]
      (iii) v not, P above v:  chain-T1(v, P]  >  unpublished(v, P]
    Returns the first violated comparison, scanning v upward.
    """
    chain = chain_path(state)
    cset = set(checkpoints(state))
    unp = sorted(state.unpublished_1 | state.unpublished_2)
    # prefix[i] = Miner-1 chain blocks among chain[1..i]
    prefix = [0]
    for v in chain[1:]:
        prefix.append(prefix[-1] + (1 if state.creator[v] == MINER1 else 0))
    idx = {v: i for i, v in enumerate(chain)}

    def chain_t1(a: int, b: int) -> int:  # labels a < b, window (a, b]
        return prefix[idx[b]] - prefix[idx[a]]

    for v in chain:
        later_cps = [p for p in cset if p > v]  # checkpoints are chain blocks
        if v in cset:
            for p in sorted(later_cps):
                lhs = chain_t1(v, p)
                rhs = bisect_left(unp, p) - bisect_right(unp, v)
                if not lhs >= rhs:
                    return CheckVerdict(False, f"(i) at v={v}, P={p}: {lhs} < {rhs}")
        else:
            below = [p for p in cset if p < v]
            if below:
                p = max(below)
                lhs = chain_t1(p, v)
                rhs = bisect_right(unp, v) - bisect_right(unp, p)
                if not lhs < rhs:
                    return CheckVerdict(False, f"(ii) at v={v}, P={p}: {lhs} >= {rhs}")
            for p in sorted(later_cps):
                lhs = chain_t1(v, p)
                rhs = bisect_right(unp, p) - bisect_right(unp, v)
                if not lhs > rhs:
                    return CheckVerdict(False, f"(iii) at v={v}, P={p}: {lhs} <= {rhs}")
    return CheckVerdict(True)


def checkpoint_reward_bound(state: GameState) -> CheckVerdict:
    """Between a checkpoint and any non-checkpoint chain block above it,
    Miner 1 has published into the chain less than half its creations,
    up to one block of slack: chain-T1(P, v] < all-T1(P, v]/2 + 1."""
    chain = chain_path(state)
    cset = set(checkpoints(state))
    t1_all = sorted(b for b, who in state.creator.items() if who == MINER1)
    t1_chain = 0
    last_cp = GENESIS
    count_since: dict[int, int] = {GENESIS: 0}
    for v in chain[1:]:
        if state.creator[v] == MINER1:
            t1_chain += 1
        if v in cset:
            last_cp = v
            count_since[v] = t1_chain
        else:
            lhs = t1_chain - count_since[last_cp]
            created = bisect_right(t1_all, v) - bisect_right(t1_all, last_cp)
            if not lhs < created / 2 + 1:
                return CheckVerdict(False, f"at v={v}, P={last_cp}: {lhs} >= {created}/2 + 1")
    return CheckVerdict(True)


# ---------------------------------------------------------------------------
# per-action classifiers


def _publishes_nothing(action: Action) -> bool:
    """A Wait, or a PublishPath / PublishSet of no block: the engine
    applies either as a no-op, and the classifiers and monitors read it as
    a Wait."""
    return isinstance(action, Wait) or (isinstance(action, (PublishPath, PublishSet)) and not action.blocks)


def _as_path(state: GameState, action: Action) -> Optional[tuple[list[int], int]]:
    """(ascending blocks, base) of a Miner-1 action whose edges form one
    path; None for a Wait or any other shape.  A non-empty
    :class:`PublishPath` is one path by construction and is read directly;
    any other action is desugared first."""
    if isinstance(action, PublishPath):
        return (sorted(action.blocks), action.base) if action.blocks else None
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


def is_timeserving(state: GameState, action: Action) -> bool:
    """Do all published blocks land on the longest chain immediately?

    Ties against already-published blocks are lost (first published wins),
    so e.g. matching the current tip's height is not good enough.  A
    :class:`PublishPath` of Miner 1's own unpublished blocks on a published
    base below them is one path from that base, so it lands exactly when
    its top block outgrows the tip; any other action is validated (an
    invalid one raises what :func:`validate_action` raises) and its new
    chain walked.
    """
    if isinstance(action, PublishPath) and action.blocks and action.blocks <= state.unpublished_1:
        base = action.base
        if base in state._heights and base < min(action.blocks):
            return state._heights[base] + len(action.blocks) > state._heights[state._tip]
    flat = validate_action(state, MINER1, action)
    if isinstance(flat, Wait):
        return True
    parents = dict(flat.edges)
    heights: dict[int, int] = {}
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


def is_orderly(state: GameState, action: Action) -> bool:
    """Are the published blocks the smallest available ones above the base?"""
    if _publishes_nothing(action):
        return True
    path = _as_path(state, action)
    return path is not None and _smallest_above(state, *path)


def _smallest_above(state: GameState, blocks: list[int], base: int) -> bool:
    """Are ``blocks`` (ascending) the smallest withheld Miner-1 blocks above ``base``?"""
    return sorted(b for b in state.unpublished_1 if b > base)[: len(blocks)] == blocks


def is_lcm(state: GameState, action: Action) -> bool:
    """Does the action build on a block of the current longest chain?"""
    if _publishes_nothing(action):
        return True
    path = _as_path(state, action)
    return path is not None and on_chain(state, path[1])


def is_trimmed(state: GameState, action: Action) -> bool:
    """Longest-chain base, and any blocks kicked out start with Miner 2's.

    True when the base is the tip itself, or when the base's immediate
    chain successor was created by Miner 2.
    """
    if _publishes_nothing(action):
        return True
    path = _as_path(state, action)
    return path is not None and _trimmed_base(state, path[1])


def _trimmed_base(state: GameState, base: int) -> bool:
    """Is a publish on ``base`` trimmed: ``base`` on the chain, and the chain
    block above it, if any, Miner 2's?"""
    if not on_chain(state, base):
        return False
    succ = successors(state, base)
    return not succ or state.creator[succ[0]] == MINER2


# ---------------------------------------------------------------------------
# lifts


def checkpoint_lift(state: GameState, action: Action) -> PublishPath:
    """Re-base a fork onto the newest checkpoint above its base.

    Returns PublishPath(Q above the checkpoint, that checkpoint); raises
    :class:`NoCheckpointAbove` when the base has no checkpoint successor.
    """
    path = _as_path(state, action)
    if path is None:
        raise ValueError("checkpoint_lift needs a path-shaped publish action")
    blocks, base = path
    cps = set(checkpoints(state))
    above = [c for c in successors(state, base) if c in cps]
    if not above:
        raise NoCheckpointAbove(f"no checkpoint above block {base}")
    c = max(above)
    return PublishPath(frozenset(b for b in blocks if b > c), c)


def is_safe_lift(state: GameState, original: Action, lifted: Action) -> bool:
    """Does the lift recover at least as many Miner-1 chain blocks as it
    drops from the publish set?"""
    o = _as_path(state, original)
    l = _as_path(state, lifted)
    if o is None or l is None:
        raise ValueError("safe-lift comparison needs path-shaped actions")
    (q, v), (q2, v2) = o, l
    kept = set(successors(state, v)) - set(successors(state, v2))
    regained = sum(1 for b in kept if state.creator[b] == MINER1)
    dropped = len(set(q) - set(q2))
    return regained >= dropped


# ---------------------------------------------------------------------------
# trace replay and monitors


@dataclass(frozen=True)
class Witness:
    round: int
    detail: str


@dataclass
class PropertyVerdict:
    holds: bool = True
    violations: list[Witness] = field(default_factory=list)

    def hit(self, round_no: int, detail: str) -> None:
        self.holds = False
        self.violations.append(Witness(round_no, detail))


@dataclass
class PropertyReport:
    timeserving: PropertyVerdict = field(default_factory=PropertyVerdict)
    orderly: PropertyVerdict = field(default_factory=PropertyVerdict)
    lcm: PropertyVerdict = field(default_factory=PropertyVerdict)
    trimmed: PropertyVerdict = field(default_factory=PropertyVerdict)
    opportunistic: PropertyVerdict = field(default_factory=PropertyVerdict)
    checkpoint_recurrent: PropertyVerdict = field(default_factory=PropertyVerdict)

    def as_dict(self) -> dict[str, PropertyVerdict]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def all_hold(self) -> bool:
        return all(v.holds for v in self.as_dict().values())


@dataclass
class MonitorReport(PropertyVerdict):
    skipped: list[Witness] = field(default_factory=list)
    checked: int = 0


def replay_trace(trace: Trace, observers: list) -> GameState:
    """Re-run a recorded game through :class:`Engine`, with the recorded
    Miner-1 moves as a :class:`Scripted` strategy and ``observers`` hooked
    into every round (see :class:`Engine` for the hooks).

    Each round's chain height is checked against the trace's recorded
    heights (unless there are none); the first mismatch raises
    :class:`ReplayDiverged`.  A trace whose ``m1_actions``, ``cap_flags``
    or non-empty ``heights`` do not have one entry per creator raises
    :class:`TraceLengthMismatch` before the first round.

    The trace checks below call it once per trace between them (see the
    module docstring); it keeps no state of its own.
    """
    names = ("creators", "m1_actions", "cap_flags") + (("heights",) if trace.heights else ())
    lengths = {name: len(getattr(trace, name)) for name in names}
    if len(set(lengths.values())) > 1:
        raise TraceLengthMismatch(lengths)
    moves = [
        (i + 1, action, settled)
        for i, (action, settled) in enumerate(zip(trace.m1_actions, trace.cap_flags))
        if settled or not isinstance(action, Wait)
    ]
    eng = Engine(Scripted(moves), observers=observers)
    for i, creator in enumerate(trace.creators):
        eng.play(creator)
        if trace.heights and eng.height_total() != trace.heights[i]:
            raise ReplayDiverged(i + 1, trace.heights[i], eng.height_total())
    return eng.state


class _Audit:
    """The observer of the three trace checks: it fills ``props`` (the six
    properties of :func:`classify_trace`), ``fork`` and ``override`` (the
    two monitors).  See the module docstring for what the checks share.
    """

    def __init__(self) -> None:
        self.props = PropertyReport()
        self.fork = MonitorReport()
        self.override = MonitorReport()
        self.acted = False  # Miner 1 published in this round
        # opportunistic: (round, top, was_full, label) of publishes not yet final
        self.watch: list[tuple[int, int, bool, str]] = []
        self.prev: list[int] = [GENESIS]  # checkpoints at the last round end or settle
        self.by_height: dict[int, list[int]] = {}  # published blocks of the live state
        self.pending: Optional[tuple[int, str]] = None  # a checkpoint-displacing trimmed fork
        self.cp_key: tuple = (None, 0, GENESIS)  # (state, publish count, tip) of ``cps``
        self.cps: list[int] = []

    def _checkpoints(self, state: GameState) -> list[int]:
        """``checkpoints(state)``, as the same list object until something is
        published.  When the one new publication is a block on the old tip,
        the list is stepped: the old chain stands, and every block created
        or published since is labelled above its tip, so the old checkpoints
        stand and the new tip joins them if its window from the last one
        counts enough.  Any other change (a fork, several blocks, a settle's
        new state) recomputes the list."""
        n, tip = len(state._pub_round), state._tip
        key = self.cp_key
        if key[0] is state:
            if key[1] == n:
                return self.cps
            if key[1] + 1 == n and state.parent.get(tip) == key[2]:
                c = self.cps[-1]
                slack = state._chain_m1[tip] - state._chain_m1[c]  # Miner 1's chain blocks in (c, tip]
                for u in state.unpublished_1:
                    if c < u <= tip:
                        slack -= 1
                        if slack < 0:
                            break
                else:
                    self.cps = self.cps + [tip]
                self.cp_key = (state, n, tip)
                return self.cps
        self.cp_key, self.cps = (state, n, tip), checkpoints(state)
        return self.cps

    def half(self, state: GameState, creator: int, block: int, action: Action) -> None:
        self.pending = None
        self.acted = not _publishes_nothing(action)
        if not self.acted:
            return
        label = format_action(action)
        path = _as_path(state, action)
        lcm = trimmed = False
        if path is not None:
            # one walk down from the tip: is the base on the chain, and
            # whose is the chain block above it?
            base, heights, parent = path[1], state._heights, state.parent
            h, v, above = heights[base], state._tip, None
            while heights[v] > h:
                above, v = v, parent[v]
            lcm = v == base
            trimmed = lcm and (above is None or state.creator[above] == MINER2)
        self._classify(state, action, path, lcm, trimmed, label)
        if not trimmed:
            self.override.skipped.append(Witness(state.round, label))
        # the base and the checkpoints are chain blocks, and labels grow up
        # the chain: a checkpoint sits at or above the base iff the last does
        elif self._checkpoints(state)[-1] >= base:
            self.pending = (state.round, label)

    def _classify(self, state: GameState, action: Action, path, lcm: bool, trimmed: bool, label: str) -> None:
        """The four per-action properties of a Miner-1 publish, and its
        opportunistic watch entry."""
        report, rnd = self.props, state.round
        if path is None:
            flat = desugar(state, MINER1, action)
            blocks = sorted(flat.blocks)
            base = min(t for _, t in flat.edges if t not in flat.blocks)
        else:
            blocks, base = path
        # a valid Miner-1 publish holds only Miner 1's withheld blocks above
        # its base, so it holds all of them iff it is as long as this pool
        pool = sorted(b for b in state.unpublished_1 if b > base)
        if not is_timeserving(state, action):
            report.timeserving.hit(rnd, label)
        if path is None or blocks != pool[: len(blocks)]:
            report.orderly.hit(rnd, label)
        if not lcm:
            report.lcm.hit(rnd, label)
        if not trimmed:
            report.trimmed.hit(rnd, label)
        was_full = len(blocks) == len(pool) and not any(u > base for u in state.unpublished_2)
        self.watch.append((rnd, blocks[-1], was_full, label))

    def round_end(self, state: GameState, new_blocks, capped: bool, round_no: int) -> None:
        props = self.props
        # Opportunistic: a publish whose top block stays on the chain until
        # a settle locks it in must have held every withheld block above
        # its base.  Blocks still live when the trace ends count as not
        # final.  Only a settle or a Miner-1 publish can end a watch: a
        # Miner-2 block on the tip knocks nothing off the chain.
        if self.watch and (capped or self.acted):
            keep = []
            for entry in self.watch:
                if not (state.is_published(entry[1]) and on_chain(state, entry[1])):
                    continue  # knocked off the chain: never final, nothing to check
                if not capped:
                    keep.append(entry)
                elif not entry[2]:  # final now: the full-set condition applies
                    props.opportunistic.hit(entry[0], entry[3])
            self.watch = keep
        # Checkpoint-recurrent: within a settled epoch a checkpoint never
        # moves once it appears, and nothing withheld sits above it then.
        cps, prev = self._checkpoints(state), self.prev
        if cps is not prev:
            if cps[: len(prev)] != prev:
                props.checkpoint_recurrent.hit(round_no, f"checkpoints moved: {prev} -> {cps}")
            elif len(cps) > len(prev):
                first_new = cps[len(prev)]
                loose = [u for u in state.unpublished_1 | state.unpublished_2 if u > first_new]
                if loose:
                    props.checkpoint_recurrent.hit(
                        round_no, f"unpublished {sorted(loose)} above new checkpoint {first_new}"
                    )
            self.prev = cps  # checkpoint lists are never changed once made
        by_height = self.by_height
        for b in new_blocks:
            peers = by_height.get(state._heights[b])
            if peers is None:
                by_height[state._heights[b]] = [b]
                continue
            for other in peers:
                self._check_pair(state, b, other, round_no)
            peers.append(b)
        if self.pending is not None:
            # a trimmed fork that displaced a checkpoint must land one at the
            # tip, the top chain block
            rnd, label = self.pending
            self.pending = None
            self.override.checked += 1
            if self._checkpoints(state)[-1] != state._tip:
                self.override.hit(rnd, label)

    def _check_pair(self, state: GameState, b: int, other: int, round_no: int) -> None:
        """Fork ownership: of two published blocks at one height, the
        chain-side blocks down to their common ancestor must be Miner 1's."""
        if on_chain(state, b):  # at one height, at most one of them is
            q, tilde = b, other
        elif on_chain(state, other):
            q, tilde = other, b
        else:
            return
        self.fork.checked += 1
        # the two share a height, so stepping both down together meets at
        # their common ancestor; the chain side must be Miner 1's until then
        parent, creator = state.parent, state.creator
        v, y = q, tilde
        while v != y:
            if creator[v] != MINER1:
                self.fork.hit(round_no, f"blocks {q} and {tilde} at equal height, "
                                        f"but {v} on the chain side is Miner 2's")
                return
            v, y = parent[v], parent[y]

    def capitulated(self, state: GameState) -> None:
        self.prev = self._checkpoints(state)
        self.by_height = {}  # the engine settles at the tip, so no block is published yet


def _checked(trace: Trace, check: str):
    """A fresh copy of the ``check`` report (``props``, ``fork`` or
    ``override``) from the trace's shared replay.

    The shared replay runs one :class:`_Audit` for all three reports and is
    stored on the trace with a snapshot of ``creators``, ``m1_actions``,
    ``cap_flags`` and ``heights``; it is redone when any of them no longer
    matches.  A replay that raises stores nothing.
    """
    lists = (trace.creators, trace.m1_actions, trace.cap_flags, trace.heights)
    memo = trace._checks
    if memo is None or memo[0] != lists:
        audit = _Audit()
        replay_trace(trace, [audit])
        memo = trace._checks = (tuple(map(list, lists)), audit)
    return copy.deepcopy(getattr(memo[1], check))


def classify_trace(trace: Trace) -> PropertyReport:
    """Evaluate all six structural properties on a recorded game.

    Served by the trace's shared replay (see the module docstring)."""
    return _checked(trace, "props")


def fork_ownership_check(trace: Trace) -> MonitorReport:
    """Assert chain-side fork ownership at every equal-height block pair.

    Served by the trace's shared replay (see the module docstring)."""
    return _checked(trace, "fork")


def checkpoint_override_check(trace: Trace) -> MonitorReport:
    """Assert every checkpoint-displacing trimmed fork re-establishes a
    checkpoint at the new tip; non-trimmed publishes are reported skipped.

    Served by the trace's shared replay (see the module docstring)."""
    return _checked(trace, "override")
