"""The trace checks' observers as they stood before one observer took over
their work: the four per-action classifiers, the opportunistic and
checkpoint-recurrent watches, the two monitors and the per-position
checkpoint cache, each filling its own report.  Kept verbatim as the
reference the fused observer in `posmine.structure` must match."""

from typing import Optional

from posmine.blocktree import GENESIS, MINER1, Action, GameState, desugar, on_chain
from posmine.strategies import format_action
from posmine.structure import (
    MonitorReport,
    PropertyReport,
    PropertyVerdict,
    Witness,
    _as_path,
    _publishes_nothing,
    _trimmed_base,
    checkpoints,
    is_lcm,
    is_orderly,
    is_timeserving,
    is_trimmed,
)


class _ActionClassifierMonitor:
    """Checks the four per-action properties on every Miner-1 action."""

    def __init__(self, report: PropertyReport):
        self.report = report

    def half(self, state: GameState, creator: int, block: int, action: Action) -> None:
        if _publishes_nothing(action):
            return
        label = format_action(action)
        if not is_timeserving(state, action):
            self.report.timeserving.hit(state.round, label)
        if not is_orderly(state, action):
            self.report.orderly.hit(state.round, label)
        if not is_lcm(state, action):
            self.report.lcm.hit(state.round, label)
        if not is_trimmed(state, action):
            self.report.trimmed.hit(state.round, label)


class _OpportunisticMonitor:
    """Retrospective check: publishes whose top block ends up final must
    have included every unpublished block above the base.

    Finality is approximated from the trace: the top block stayed on the
    longest chain until a capitulation locked it in.  Blocks still live
    when the trace ends are treated as not-yet-final (verdict is
    empirical either way).
    """

    def __init__(self, verdict: PropertyVerdict):
        self.verdict = verdict
        self.watch: list[tuple[int, int, bool, str]] = []  # (round, top, was_full, label)

    def half(self, state: GameState, creator: int, block: int, action: Action) -> None:
        if _publishes_nothing(action):
            return
        path = _as_path(state, action)
        if path is None:
            flat = desugar(state, MINER1, action)
            blocks = sorted(flat.blocks)
            base = min(t for _, t in flat.edges if t not in flat.blocks)
        else:
            blocks, base = path
        pool = {b for b in (state.unpublished_1 | state.unpublished_2) if b > base}
        was_full = set(blocks) == pool
        self.watch.append((state.round, max(blocks), was_full, format_action(action)))

    def round_end(self, state: GameState, new_blocks, capped: bool, round_no: int) -> None:
        if not self.watch:
            return
        keep = []
        for entry in self.watch:
            rnd, top, was_full, label = entry
            if not (state.is_published(top) and on_chain(state, top)):
                continue  # knocked off the chain: never final, nothing to check
            if capped:
                if not was_full:  # final now: the full-set condition applies
                    self.verdict.hit(rnd, label)
            else:
                keep.append(entry)
        self.watch = keep


class _RoundCheckpoints:
    """``checkpoints(state)`` at most once per position of a replay: the
    replay changes the tree or the pools only by starting a round,
    publishing or settling (a new state), so the state, its round and its
    publish count name the position."""

    __slots__ = ("key", "cps")

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.cps: list[int] = []

    def __call__(self, state: GameState) -> list[int]:
        key = (state, state.round, len(state._pub_seq))
        if key != self.key:
            self.key, self.cps = key, checkpoints(state)
        return self.cps


class _CheckpointRecurrentMonitor:
    """Within each settled epoch: once a checkpoint appears it never moves,
    and at the moment it appears nothing unpublished sits above it."""

    def __init__(self, verdict: PropertyVerdict, cps: _RoundCheckpoints):
        self.verdict = verdict
        self.cps = cps
        self.prev: list[int] = [GENESIS]

    def round_end(self, state: GameState, new_blocks, capped: bool, round_no: int) -> None:
        cps = self.cps(state)
        if cps[: len(self.prev)] != self.prev:
            self.verdict.hit(round_no, f"checkpoints moved: {self.prev} -> {cps}")
        elif len(cps) > len(self.prev):
            first_new = cps[len(self.prev)]
            loose = [u for u in state.unpublished_1 | state.unpublished_2 if u > first_new]
            if loose:
                self.verdict.hit(
                    round_no, f"unpublished {sorted(loose)} above new checkpoint {first_new}"
                )
        self.prev = cps  # checkpoint lists are never changed once made

    def capitulated(self, state: GameState) -> None:
        self.prev = self.cps(state)


class _ForkOwnershipMonitor:
    """When two published blocks share a height, the chain-side blocks
    between their last common ancestor and the chain block must all be
    Miner 1's."""

    def __init__(self, report: MonitorReport):
        self.report = report
        self.by_height: dict[int, list[int]] = {}

    def round_end(self, state: GameState, new_blocks, capped: bool, round_no: int) -> None:
        for b in new_blocks:
            h = state._heights[b]
            peers = self.by_height.setdefault(h, [])
            for other in peers:
                self._check_pair(state, b, other, round_no)
            peers.append(b)

    def _check_pair(self, state: GameState, b: int, other: int, round_no: int) -> None:
        pair = (b, other)
        chain_side = [q for q in pair if on_chain(state, q)]
        if not chain_side:
            return
        self.report.checked += 1
        q = chain_side[0]
        tilde = pair[1] if q == pair[0] else pair[0]
        # the two share a height, so stepping both down together meets at
        # their common ancestor; the chain side must be Miner 1's until then
        parent, creator = state.parent, state.creator
        v, y = q, tilde
        while v != y:
            if creator[v] != MINER1:
                self.report.hit(round_no, f"blocks {q} and {tilde} at equal height, "
                                          f"but {v} on the chain side is Miner 2's")
                return
            v, y = parent[v], parent[y]

    def capitulated(self, state: GameState) -> None:
        self.by_height = {}
        for b in state.parent:
            self.by_height.setdefault(state._heights[b], []).append(b)


class _OverrideMonitor:
    """Trimmed forks that displace a checkpoint must land a new checkpoint
    at the tip."""

    def __init__(self, report: MonitorReport, cps: _RoundCheckpoints):
        self.report = report
        self.cps = cps
        self.pending: Optional[tuple[int, str]] = None

    def half(self, state: GameState, creator: int, block: int, action: Action) -> None:
        self.pending = None
        if _publishes_nothing(action):
            return
        path = _as_path(state, action)
        if path is None or not _trimmed_base(state, path[1]):
            self.report.skipped.append(Witness(state.round, format_action(action)))
            return
        # the base and the checkpoints are chain blocks, and labels grow up
        # the chain: a checkpoint sits at or above the base iff the last does
        if self.cps(state)[-1] >= path[1]:
            self.pending = (state.round, format_action(action))

    def round_end(self, state: GameState, new_blocks, capped: bool, round_no: int) -> None:
        if self.pending is None:
            return
        rnd, label = self.pending
        self.pending = None
        self.report.checked += 1
        if self.cps(state)[-1] != state._tip:  # the tip is the top chain block
            self.report.hit(rnd, label)


def _classifier_run(cps: Optional[_RoundCheckpoints] = None) -> tuple[PropertyReport, list]:
    report = PropertyReport()
    return report, [
        _ActionClassifierMonitor(report),
        _OpportunisticMonitor(report.opportunistic),
        _CheckpointRecurrentMonitor(report.checkpoint_recurrent, cps or _RoundCheckpoints()),
    ]


def _fork_ownership_run(cps: Optional[_RoundCheckpoints] = None) -> tuple[MonitorReport, list]:
    report = MonitorReport()
    return report, [_ForkOwnershipMonitor(report)]


def _override_run(cps: Optional[_RoundCheckpoints] = None) -> tuple[MonitorReport, list]:
    report = MonitorReport()
    return report, [_OverrideMonitor(report, cps or _RoundCheckpoints())]


_RUNS = (_classifier_run, _fork_ownership_run, _override_run)
