"""Block-tree state model for a two-miner longest-chain mining game.

One block is created per round and is labeled by its round number; genesis
is block 0 and belongs to neither miner.  Within a round the creator is
drawn first, the new block joins the creator's unpublished set, Miner 2
acts, then Miner 1 acts.  Publishing attaches blocks to the tree; each
published block points to exactly one strictly earlier block, and
:func:`attach_action` is the one place an action is validated and attached.

The longest chain is the path to the highest published block, with ties
broken in favor of the block published first (publication order within a
round follows action order, and within one action ascending label).  All
chain rewards, reachability queries, capitulation (forgetting blocks that
can no longer matter), canonical comparison, and the text/DOT
serializations live here.

Block labels are absolute round numbers and survive capitulation; the
``offset`` field records the absolute label that the current genesis stands
for, so a capitulated state still knows where it sits in the full game.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

GENESIS = 0
MINER1 = 1
MINER2 = 2

STATEFILE_MAGIC = "posmine-state"
STATEFILE_VERSION = "v1"


# ---------------------------------------------------------------------------
# errors


class BlockTreeError(Exception):
    """Base class for state-model errors."""


class UnknownBlock(BlockTreeError, KeyError):
    """A query referenced a block the tree does not contain."""

    def __init__(self, block: int):
        super().__init__(block)
        self.block = block

    def __str__(self) -> str:
        return f"block {self.block} is not in the tree"


class BadHeight(BlockTreeError, ValueError):
    """Capitulation height exceeds the current chain height."""


class InvalidAction(BlockTreeError, ValueError):
    """A publish action failed validation.

    Subclasses name the first violated rule, checked in this order:
    ownership, edge targets, edge direction, edge cardinality.
    """


class NotOwned(InvalidAction):
    def __init__(self, block: int):
        super().__init__(f"block {block} is not an unpublished block of the acting miner")
        self.block = block


class DanglingEdge(InvalidAction):
    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"edge {edge[0]}->{edge[1]} points outside the tree and the published set")
        self.edge = edge


class BackwardEdge(InvalidAction):
    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"edge {edge[0]}->{edge[1]} must point to a strictly earlier block")
        self.edge = edge


class EdgeCardinality(InvalidAction):
    def __init__(self, block: int):
        super().__init__(f"block {block} needs exactly one outgoing edge")
        self.block = block


class StatefileError(BlockTreeError, ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# actions


class Wait:
    """Do nothing this round."""

    __slots__ = ()
    _instance: "Wait | None" = None

    def __new__(cls) -> "Wait":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Wait"


WAIT = Wait()


@dataclass(frozen=True)
class PublishSet:
    """Publish ``blocks`` with an explicit edge list ``(source, target)``."""

    blocks: frozenset[int]
    edges: tuple[tuple[int, int], ...]

    def __repr__(self) -> str:
        es = ",".join(f"{v}->{t}" for v, t in self.edges)
        return f"PublishSet({{{','.join(map(str, sorted(self.blocks)))}}}; {es})"


@dataclass(frozen=True)
class PublishPath:
    """Publish ``blocks`` as a single ascending path on top of ``base``.

    The smallest block points to ``base`` and every other block points to
    the largest published-with-it block strictly below it.
    """

    blocks: frozenset[int]
    base: int

    def __repr__(self) -> str:
        return f"PublishPath({{{','.join(map(str, sorted(self.blocks)))}}} on {self.base})"


@dataclass(frozen=True)
class Publish:
    """Publish the ``count`` smallest own unpublished blocks above ``base`` as a path."""

    count: int
    base: int

    def __repr__(self) -> str:
        return f"Publish({self.count} on {self.base})"


Action = Union[Wait, PublishSet, PublishPath, Publish]


def desugar(state: "GameState", miner: int, action: Action) -> Union[Wait, PublishSet]:
    """Rewrite PublishPath / Publish into an explicit PublishSet."""
    if isinstance(action, Wait) or isinstance(action, PublishSet):
        return action
    if isinstance(action, Publish):
        pool = sorted(b for b in state.unpublished(miner) if b > action.base)
        if action.count < 1 or len(pool) < action.count:
            raise InvalidAction(
                f"Publish({action.count} on {action.base}): only {len(pool)} unpublished blocks above the base"
            )
        action = PublishPath(frozenset(pool[: action.count]), action.base)
    if isinstance(action, PublishPath):
        return _path_set(sorted(action.blocks), action.base)
    raise TypeError(f"not an action: {action!r}")


def _path_set(chain: list[int], base: int) -> PublishSet:
    """The explicit form of an ascending path: ``chain[0]`` on ``base``,
    every other block on the one before it."""
    edges = []
    prev = base
    for b in chain:
        edges.append((b, prev))
        prev = b
    return PublishSet(frozenset(chain), tuple(edges))


# ---------------------------------------------------------------------------
# state


class GameState:
    """Mutable game position: the published tree plus both unpublished sets.

    Fields
    ------
    parent:        published non-genesis block -> the block it points to
    unpublished_1, unpublished_2: withheld blocks per miner
    creator:       block -> 0 (genesis), 1 or 2
    round:         last created block's label (absolute)
    offset:        absolute label the current genesis stands for

    ``_pub_seq`` is the only publication record: published block ->
    (round of publication, rank).  Ranks are 0 .. n-1 in publication order
    (genesis first), so a new publish takes rank ``len(_pub_seq)``; clone,
    capitulate and parse_statefile keep them dense, which keeps them
    increasing within every round.  Tie-breaks and canonical comparison
    read the order from it; the statefile's ``published`` column is its
    round.  ``_heights``, ``_chain_m1`` and ``_tip`` are caches of the tree.
    """

    __slots__ = (
        "parent",
        "unpublished_1",
        "unpublished_2",
        "creator",
        "round",
        "offset",
        "_heights",
        "_chain_m1",
        "_pub_seq",
        "_tip",
    )

    def __init__(self) -> None:
        self.parent: dict[int, int] = {}
        self.unpublished_1: set[int] = set()
        self.unpublished_2: set[int] = set()
        self.creator: dict[int, int] = {GENESIS: 0}
        self.round: int = 0
        self.offset: int = 0
        self._heights: dict[int, int] = {GENESIS: 0}
        self._chain_m1: dict[int, int] = {GENESIS: 0}
        self._pub_seq: dict[int, tuple[int, int]] = {GENESIS: (0, 0)}
        self._tip: int = GENESIS

    # -- basic queries ----------------------------------------------------

    def is_published(self, b: int) -> bool:
        return b == GENESIS or b in self.parent

    def knows(self, b: int) -> bool:
        return b in self.creator

    def unpublished(self, miner: int) -> set[int]:
        return self.unpublished_1 if miner == MINER1 else self.unpublished_2

    def published_blocks(self) -> Iterator[int]:
        yield GENESIS
        yield from self.parent

    def tip(self) -> int:
        return self._tip

    def tip_height(self) -> int:
        return self._heights[self._tip]

    def chain_owned(self, miner: int) -> int:
        """Blocks of ``miner`` on the longest chain (genesis excluded)."""
        m1 = self._chain_m1[self._tip]
        return m1 if miner == MINER1 else self._heights[self._tip] - m1

    def clone(self) -> "GameState":
        s = GameState.__new__(GameState)
        s.parent = dict(self.parent)
        s.unpublished_1 = set(self.unpublished_1)
        s.unpublished_2 = set(self.unpublished_2)
        s.creator = dict(self.creator)
        s.round = self.round
        s.offset = self.offset
        s._heights = dict(self._heights)
        s._chain_m1 = dict(self._chain_m1)
        s._pub_seq = dict(self._pub_seq)
        s._tip = self._tip
        return s

    def __repr__(self) -> str:
        pub = sorted(self.parent)
        return (
            f"GameState(round={self.round}, offset={self.offset}, "
            f"tip={self._tip}@{self.tip_height()}, published={pub}, "
            f"u1={sorted(self.unpublished_1)}, u2={sorted(self.unpublished_2)})"
        )

    # -- internal mutation ------------------------------------------------

    def _publish_one(self, b: int, target: int) -> None:
        """Attach one unpublished block; caller has already validated."""
        owner = self.creator[b]
        (self.unpublished_1 if owner == MINER1 else self.unpublished_2).discard(b)
        self.parent[b] = target
        self._pub_seq[b] = (self.round, len(self._pub_seq))
        h = self._heights[target] + 1
        self._heights[b] = h
        self._chain_m1[b] = self._chain_m1[target] + (1 if owner == MINER1 else 0)
        if h > self._heights[self._tip]:
            self._tip = b


def initial_state() -> GameState:
    """The empty game: genesis only, nothing withheld."""
    return GameState()


def begin_round(state: GameState, creator: int) -> int:
    """Advance the round counter and create the round's block for ``creator``."""
    if creator not in (MINER1, MINER2):
        raise ValueError(f"creator must be 1 or 2, got {creator}")
    state.round += 1
    n = state.round
    state.creator[n] = creator
    (state.unpublished_1 if creator == MINER1 else state.unpublished_2).add(n)
    return n


class HalfState(NamedTuple):
    """Mid-round position handed to Miner 1: Miner 2 has already acted.

    A named tuple rather than a frozen dataclass: the engine builds one
    every round, and a tuple takes about half the time to construct."""

    state: GameState
    creator: int
    block: int


# ---------------------------------------------------------------------------
# validation and application


def validate_action(state: GameState, miner: int, action: Action) -> Union[Wait, PublishSet]:
    """Check an action and return its desugared form.

    Violations raise the subclass of :class:`InvalidAction` matching the
    first broken rule: ownership, then edge targets inside the tree or the
    published set, then edge direction, then one-outgoing-edge-per-block.

    A :class:`PublishPath` (the exact type) is checked without desugaring
    first: after ownership, the only edge of an ascending path that can
    break a rule is its first, (smallest block, base).  Every other edge
    points at the block just below it in the set, so it stays inside the
    set, points backwards and leaves one outgoing edge per block.  The
    result is the :class:`PublishSet` that :func:`desugar` builds.
    """
    if type(action) is PublishPath:
        chain = sorted(action.blocks)
        own = state.unpublished_1 if miner == MINER1 else state.unpublished_2
        for b in chain:
            if b not in own:
                raise NotOwned(b)
        if chain:
            first, base = chain[0], action.base
            if not (base == GENESIS or base in state.parent or base in action.blocks):
                raise DanglingEdge((first, base))
            if not first > base:
                raise BackwardEdge((first, base))
        return _path_set(chain, action.base)
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
    outgoing: dict[int, int] = {}
    for v, _ in flat.edges:
        outgoing[v] = outgoing.get(v, 0) + 1
    for b in sorted(flat.blocks):
        if outgoing.get(b, 0) != 1:
            raise EdgeCardinality(b)
    for v in sorted(outgoing):
        if v not in flat.blocks:
            # an edge may not re-parent a block that is not being published
            raise EdgeCardinality(v)
    return flat


def attach_action(state: GameState, miner: int, action: Action) -> Union[Wait, PublishSet]:
    """Validate an action, attach its blocks to ``state`` in place (in
    ascending label order) and return its desugared form."""
    flat = validate_action(state, miner, action)
    if not isinstance(flat, Wait):
        # one edge per block, so ascending edges are ascending blocks
        for b, t in sorted(flat.edges):
            state._publish_one(b, t)
    return flat


def apply_action(state: GameState, miner: int, action: Action, *, in_place: bool = False) -> GameState:
    """Validate and apply an action; returns the successor state.

    By default the input state is left untouched and a modified copy is
    returned; pass ``in_place=True`` to mutate.
    """
    target_state = state if in_place else state.clone()
    attach_action(target_state, miner, action)
    return target_state


# ---------------------------------------------------------------------------
# chain queries


def height(state: GameState, b: int) -> int:
    """Distance from genesis to published block ``b``."""
    try:
        return state._heights[b]
    except KeyError:
        raise UnknownBlock(b) from None


def ancestors(state: GameState, b: int) -> list[int]:
    """Path from published block ``b`` down to genesis, inclusive."""
    if not state.is_published(b):
        raise UnknownBlock(b)
    out = [b]
    while b != GENESIS:
        b = state.parent[b]
        out.append(b)
    return out


def chain_path(state: GameState) -> list[int]:
    """The longest chain from genesis up to the tip, inclusive."""
    return ancestors(state, state._tip)[::-1]


def on_chain(state: GameState, b: int) -> bool:
    """Is published block ``b`` an ancestor of (or equal to) the tip?"""
    h = height(state, b)
    v = state._tip
    while state._heights[v] > h:
        v = state.parent[v]
    return v == b


def successors(state: GameState, b: int) -> list[int]:
    """Chain blocks strictly above ``b``, ascending; empty if ``b`` is off-chain."""
    h = height(state, b)
    out = []
    v = state._tip
    while state._heights[v] > h:
        out.append(v)
        v = state.parent[v]
    if v != b:
        return []
    return out[::-1]


def reward(before: GameState, after: GameState, miner: int) -> int:
    """Change in the miner's longest-chain block count between two states."""
    return after.chain_owned(miner) - before.chain_owned(miner)


# ---------------------------------------------------------------------------
# reachability, capitulation


def _survivors(pool: set[int], published: list[int], heights: dict[int, int], c: int) -> set[int]:
    """The blocks of one withheld pool that a publish by their owner can
    still lift above height ``c``.

    Stacking the pool's blocks in (v, u] on a published v puts u at
    height(v) + the pool count in (v, u], so u survives iff its pool count
    up to u plus the greatest height(v) - pool count up to v, over
    published v < u, is at least c + 1.  ``published`` holds the published
    blocks other than genesis in ascending order; one merge with the sorted
    pool keeps that maximum as it goes.
    """
    keep = set()
    best = 0  # genesis: height 0, below every pool block
    j, n = 0, len(published)
    for count, u in enumerate(sorted(pool), 1):
        while j < n and published[j] < u:
            h = heights[published[j]] - count + 1
            if h > best:
                best = h
            j += 1
        if count + best > c:
            keep.add(u)
    return keep


def capitulate(state: GameState, c: int) -> GameState:
    """Forget every block that can no longer reach above height ``c``.

    The chain block at height ``c`` becomes the new genesis (its absolute
    label is recorded in ``offset``).  Surviving blocks keep their labels;
    a survivor whose parent was forgotten is re-pointed at its nearest
    surviving ancestor, or at genesis.  Raises :class:`BadHeight` if ``c``
    exceeds the chain height.

    Settling at the tip (every settle the engine makes) is the fast path:
    no published block lies above the tip, so the new state is a fresh
    genesis-only tree holding just the withheld survivors, and needs no
    re-ranking and no cache rebuild.
    """
    if c < 0 or c > state.tip_height():
        raise BadHeight(f"no chain block at height {c}")
    g = state._tip
    while state._heights[g] > c:
        g = state.parent[g]

    s = GameState()
    s.round = state.round
    s.offset = state.offset if g == GENESIS else g
    if state.unpublished_1 or state.unpublished_2:
        published = sorted(state.parent)
        s.unpublished_1 = _survivors(state.unpublished_1, published, state._heights, c)
        s.unpublished_2 = _survivors(state.unpublished_2, published, state._heights, c)
        for u in s.unpublished_1 | s.unpublished_2:
            s.creator[u] = state.creator[u]
    if g == state._tip:
        return s

    keep_pub = {v for v in state.parent if state._heights[v] >= c + 1}
    for v in sorted(keep_pub):
        anc = state.parent[v]
        while anc != GENESIS and anc not in keep_pub:
            anc = state.parent[anc]
        target = anc if anc in keep_pub else GENESIS
        s.creator[v] = state.creator[v]
        s.parent[v] = target
    # survivors keep their publication order, re-ranked densely after genesis
    for v in sorted(keep_pub, key=state._pub_seq.__getitem__):
        s._pub_seq[v] = (state._pub_seq[v][0], len(s._pub_seq))
    _rebuild_caches(s)
    return s


def _rebuild_caches(s: GameState) -> None:
    s._heights = {GENESIS: 0}
    s._chain_m1 = {GENESIS: 0}
    for v in sorted(s.parent):
        p = s.parent[v]
        s._heights[v] = s._heights[p] + 1
        s._chain_m1[v] = s._chain_m1[p] + (1 if s.creator[v] == MINER1 else 0)
    s._tip = min(
        s.published_blocks(),
        key=lambda b: (-s._heights[b], s._pub_seq[b][0], s._pub_seq[b][1], b),
    )


# ---------------------------------------------------------------------------
# canonical comparison


def _canonical_form(state: GameState):
    blocks = sorted(state.creator)
    relabel = {b: i for i, b in enumerate(blocks)}
    order = sorted((seq, b) for b, seq in state._pub_seq.items())
    return (
        tuple(relabel[b] for _, b in order),
        tuple(sorted((relabel[v], relabel[t]) for v, t in state.parent.items())),
        frozenset(relabel[u] for u in state.unpublished_1),
        frozenset(relabel[u] for u in state.unpublished_2),
        tuple(state.creator[b] for b in blocks),
    )


def canonical_equal(a: GameState, b: GameState) -> bool:
    """Equality up to an order-preserving relabeling of the blocks.

    Creators, tree edges, both unpublished sets and the relative
    publication order must all match; absolute labels, round numbers and
    offsets are ignored.
    """
    return _canonical_form(a) == _canonical_form(b)


# ---------------------------------------------------------------------------
# potential reward


def potential_reward(state: GameState) -> int:
    """Largest |change in Miner 1's chain count| any single Miner-1 action gives.

    Scans every base on the current chain: stacking ``k`` withheld blocks on
    base ``v`` strictly overtakes the tip iff height(v) + k > height(tip),
    and then Miner 1's count changes by owned-up-to(v) + k - owned(tip).
    Waiting (or any non-winning publish) contributes 0.
    """
    pool = sorted(state.unpublished_1)
    if not pool:
        return 0
    tip_h = state.tip_height()
    tip_m1 = state._chain_m1[state._tip]
    best = 0
    for v in chain_path(state):
        avail = len(pool) - bisect_right(pool, v)
        if avail == 0:
            continue
        k_min = max(1, tip_h - state._heights[v] + 1)
        if k_min > avail:
            continue
        base_gain = state._chain_m1[v] - tip_m1
        for k in (k_min, avail):
            best = max(best, abs(base_gain + k))
    return best


def enumerate_actions(state: GameState, miner: int) -> Iterator[Action]:
    """Yield Wait plus every valid publish action (states of at most 15
    blocks only)."""
    if len(state.creator) > 15:
        raise ValueError(f"state too large to enumerate ({len(state.creator)} blocks)")
    yield WAIT
    own = sorted(state.unpublished(miner))
    published = sorted(state.published_blocks())
    for r in range(1, len(own) + 1):
        for blocks in itertools.combinations(own, r):
            chosen = set(blocks)
            target_sets = []
            for v in blocks:
                targets = [t for t in published if t < v]
                targets += [t for t in blocks if t < v]
                target_sets.append(targets)
            for combo in itertools.product(*target_sets):
                yield PublishSet(frozenset(chosen), tuple(zip(blocks, combo)))


def potential_reward_exhaustive(state: GameState) -> int:
    """Brute-force twin of :func:`potential_reward`; also the test oracle
    (states of at most 15 blocks, as :func:`enumerate_actions`)."""
    best = 0
    for action in enumerate_actions(state, MINER1):
        after = apply_action(state, MINER1, action)
        best = max(best, abs(reward(state, after, MINER1)))
    return best


# ---------------------------------------------------------------------------
# serialization


def format_statefile(state: GameState) -> str:
    """Render a state as the line-oriented text format (see parse_statefile)."""
    lines = [f"{STATEFILE_MAGIC} {STATEFILE_VERSION} round {state.round} offset {state.offset}"]
    for b in sorted(state.creator):
        par = state.parent.get(b)
        pub = state._pub_seq[b][0] if b in state._pub_seq else None
        lines.append(
            "block {} creator {} parent {} published {}".format(
                b,
                state.creator[b],
                "-" if par is None else par,
                "-" if pub is None else pub,
            )
        )
    return "\n".join(lines) + "\n"


def parse_statefile(text: str) -> GameState:
    """Parse the text format:

        posmine-state v1 round <n> offset <k>
        block <id> creator <0|1|2> parent <id|-> published <round|->

    Blocks published in the same round are ordered by ascending label when
    the state is rebuilt (the file does not carry intra-round order).  A
    state no game can reach is rejected: a negative label, round or offset,
    genesis published in a round other than 0, or a block published before
    its own round, after ``round``, or before its parent.
    """
    lines = text.splitlines()
    if not lines:
        raise StatefileError(1, "empty statefile")
    head = lines[0].split()
    if len(head) != 6 or head[0] != STATEFILE_MAGIC or head[2] != "round" or head[4] != "offset":
        raise StatefileError(1, f"bad header, expected '{STATEFILE_MAGIC} {STATEFILE_VERSION} round <n> offset <k>'")
    if head[1] != STATEFILE_VERSION:
        raise StatefileError(1, f"unsupported version {head[1]!r}")
    try:
        rnd, offset = int(head[3]), int(head[5])
    except ValueError:
        raise StatefileError(1, "round and offset must be integers") from None
    if rnd < 0 or offset < 0:
        raise StatefileError(1, "round and offset must be >= 0")

    s = GameState.__new__(GameState)
    s.parent = {}
    s.unpublished_1 = set()
    s.unpublished_2 = set()
    s.creator = {}
    s.round = rnd
    s.offset = offset
    pub_round: dict[int, int] = {}
    line_of: dict[int, int] = {}  # block -> its line, for the checks after the loop

    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8 or parts[0] != "block" or parts[2] != "creator" or parts[4] != "parent" or parts[6] != "published":
            raise StatefileError(i, "expected 'block <id> creator <0|1|2> parent <id|-> published <round|->'")
        try:
            b = int(parts[1])
            who = int(parts[3])
        except ValueError:
            raise StatefileError(i, "block and creator must be integers") from None
        if b < 0:
            raise StatefileError(i, f"block label must be >= 0, got {b}")
        if b in s.creator:
            raise StatefileError(i, f"block {b} defined twice")
        if who not in (0, 1, 2):
            raise StatefileError(i, f"creator must be 0, 1 or 2, got {who}")
        if (who == 0) != (b == GENESIS):
            raise StatefileError(i, "creator 0 is reserved for block 0")
        try:
            par = None if parts[5] == "-" else int(parts[5])
            pub = None if parts[7] == "-" else int(parts[7])
        except ValueError:
            raise StatefileError(i, "parent and published must be integers or '-'") from None
        if b == GENESIS:
            if par is not None:
                raise StatefileError(i, "genesis cannot have a parent")
            if pub != 0:
                raise StatefileError(i, "genesis must be published in round 0")
        elif (par is None) != (pub is None):
            raise StatefileError(i, "parent and published must both be set or both be '-'")
        elif pub is not None and not b <= pub <= rnd:
            raise StatefileError(i, f"block {b} published in round {pub}, outside {b}..{rnd}")
        s.creator[b] = who
        line_of[b] = i
        if pub is None:
            s.unpublished(who).add(b)
            continue
        if par is not None:
            if par >= b:
                raise StatefileError(i, f"parent {par} must be earlier than block {b}")
            s.parent[b] = par
        pub_round[b] = pub

    if GENESIS not in s.creator:
        raise StatefileError(1, "statefile has no genesis block")
    for b, par in sorted(s.parent.items()):
        if par != GENESIS and par not in s.parent:
            raise StatefileError(line_of[b], f"block {b} points at unpublished or unknown block {par}")
        if pub_round[b] < pub_round[par]:
            raise StatefileError(line_of[b], f"block {b} was published before its parent {par}")
    above = [b for b in s.creator if b > s.round]
    if above:
        raise StatefileError(line_of[min(above)], "a block label exceeds the round counter")

    order = sorted(pub_round, key=lambda b: (pub_round[b], b))
    s._pub_seq = {b: (pub_round[b], rank) for rank, b in enumerate(order)}
    _rebuild_caches(s)
    return s


def to_dot(state: GameState) -> str:
    """Graphviz rendering: 'label/height' nodes, Miner 1 double-circled,
    longest-chain edges bold, unpublished blocks dashed."""
    chain = set(chain_path(state))
    out = ["digraph blocktree {", "  rankdir=RL;", '  node [shape=circle, fontsize=10];']
    for b in sorted(state.creator):
        attrs = []
        if state.is_published(b):
            attrs.append(f'label="{b}/{state._heights[b]}"')
        else:
            attrs.append(f'label="{b}/-"')
            attrs.append("style=dashed")
        if state.creator[b] == MINER1:
            attrs.append("peripheries=2")
        out.append(f'  n{b} [{", ".join(attrs)}];')
    for v in sorted(state.parent):
        t = state.parent[v]
        bold = " [style=bold]" if v in chain and t in chain else ""
        out.append(f"  n{v} -> n{t}{bold};")
    out.append("}")
    return "\n".join(out) + "\n"
