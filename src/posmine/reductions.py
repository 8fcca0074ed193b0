"""Strategy-to-strategy transformations that force publishes into shape.

Each wrapper runs the inner strategy on a private shadow game fed the same
creator draws (Miner 2's frontier response is simulated on the shadow), and
translates the inner strategy's publishes into better-shaped actions on the
real game:

* ``orderly_reduce`` keeps the publish base (up to a block-label mapping)
  but swaps the published blocks for the smallest available ones, so every
  emitted publish is orderly.  Revenue is unchanged round for round.
* ``lcm_step_reduce`` re-bases one single round's publish (round N+1) onto
  the longest-chain block of the same height.
* ``lcm_reduce`` folds the alternation "re-base each round, then re-select
  blocks" into one wrapper, so the emitted trace is orderly and sticks to
  longest-chain bases through the horizon.  Revenue weakly improves.

The block-label mapping (sigma) pairs the shadow game's blocks with the
real game's: published blocks are paired when published, and the still
unpublished blocks are paired up by rank after every publish.  Miner-2
blocks always map to themselves.

``checkpoint_preserve_case1`` builds the deferred-publication plan that
replaces a checkpoint-forking publish: wait out a biased random walk, then
publish the checkpoint-lifted blocks plus the Miner-1 blocks created in
the interim, based on the checkpoint itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    Action,
    BlockTreeError,
    GameState,
    HalfState,
    PublishPath,
    Wait,
    WAIT,
    attach_action,
    begin_round,
    capitulate,
    chain_path,
    desugar,
    initial_state,
    successors,
)
from .strategies import StrategyDecision, UnreachableState, _creator_stream
from .structure import _as_path, checkpoints, is_timeserving, is_trimmed

__all__ = [
    "InnerNotTimeserving",
    "NoChainBlockAtHeight",
    "NotForkingCheckpoint",
    "W0NonPositive",
    "SigmaMap",
    "OrderlyReduction",
    "LcmStepReduction",
    "LcmReduction",
    "orderly_reduce",
    "lcm_step_reduce",
    "lcm_reduce",
    "DeferredPublicationPlan",
    "PlanOutcome",
    "checkpoint_preserve_case1",
]


class InnerNotTimeserving(BlockTreeError):
    """The wrapped strategy broke a reduction precondition (with witness)."""


class NoChainBlockAtHeight(BlockTreeError):
    """No longest-chain block sits at the height the re-base needs."""


class NotForkingCheckpoint(BlockTreeError):
    """The action does not displace the most recent checkpoint."""


class W0NonPositive(BlockTreeError):
    """The deferred plan's starting lead is not positive (misuse)."""


class SigmaMap:
    """Sparse bijection between shadow and real block labels.

    Identity except for a finite set of Miner-1 blocks; Miner-2 blocks are
    never entered, so they stay fixed.
    """

    __slots__ = ("diff",)

    def __init__(self) -> None:
        self.diff: dict[int, int] = {}

    def __call__(self, b: int) -> int:
        return self.diff.get(b, b)

    def set(self, b: int, target: int) -> None:
        if target == b:
            self.diff.pop(b, None)
        else:
            self.diff[b] = target

    def prune(self, keep) -> None:
        self.diff = {k: v for k, v in self.diff.items() if keep(k)}

    def check_bijection(self, domain=None) -> None:
        vals = list(self.diff.values())
        assert len(set(vals)) == len(vals), "sigma lost injectivity"
        if domain is not None:
            # an explicit pair aimed at some block's identity image would
            # make two domain blocks collide in the real game
            imgs = [self(b) for b in domain]
            assert len(set(imgs)) == len(imgs), "sigma images collide on the domain"


def _check_sigma_coupling(sigma: SigmaMap, shadow: GameState, real: GameState) -> None:
    """Debug assertions: sigma is a tree isomorphism shadow -> real, fixes
    Miner-2 blocks, and is a rank isomorphism on the unpublished sets."""
    for b, p in shadow.parent.items():
        sb = sigma(b)
        assert sb in real.parent, f"sigma({b})={sb} not published in the real game"
        want = sigma(p) if p != GENESIS else GENESIS
        assert real.parent[sb] == want, f"edge mismatch at shadow block {b}"
    for b in sigma.diff:
        assert shadow.creator.get(b) == MINER1, f"sigma moved non-Miner-1 block {b}"
    sh_u = sorted(shadow.unpublished_1)
    re_u = sorted(real.unpublished_1)
    assert [sigma(b) for b in sh_u] == re_u[: len(sh_u)], (
        "sigma is not the rank pairing on unpublished"
    )
    sigma.check_bijection(shadow.creator.keys())


class _ShadowWrapper:
    """Shared machinery: mirror the creator draws (and Miner 2's frontier
    response) on a private shadow game the inner strategy plays against."""

    def __init__(self, inner, check: bool = False):
        self.inner = inner
        self.check = check
        self.reset()

    def reset(self) -> None:
        self.inner.reset()
        self.shadow = initial_state()
        self.sigma = SigmaMap()

    def attach(self, state: GameState) -> None:
        if state.parent or state.unpublished_1 or state.unpublished_2 or state.round:
            raise UnreachableState(
                "reduction wrappers can only start from the initial state"
            )
        self.reset()

    def _advance(self, half: HalfState) -> HalfState:
        n = begin_round(self.shadow, half.creator)
        if half.creator == MINER2:
            self.shadow._publish_one(n, self.shadow.tip())
        # Settling can prune the two unpublished pools asymmetrically (label
        # order decides what is still stackable), so the real game may carry
        # stale extra blocks the shadow has forgotten.  Those extras are
        # harmless -- they just widen the pool future publishes draw from --
        # but the shadow must never know MORE than the real game holds.
        sh_u = sorted(self.shadow.unpublished_1)
        re_u = sorted(half.state.unpublished_1)
        if len(sh_u) > len(re_u):
            raise RuntimeError("shadow game diverged from the real game")
        for b, target in zip(sh_u, re_u):
            self.sigma.set(b, target)
        if self.check:
            _check_sigma_coupling(self.sigma, self.shadow, half.state)
        return HalfState(self.shadow, half.creator, n)

    def _apply_inner(self, action: Action) -> tuple[list[int], int]:
        """Check that the inner publish is one timeserving path, apply it to
        the shadow game, and return its (ascending blocks, base)."""
        if not is_timeserving(self.shadow, action):
            raise InnerNotTimeserving(
                f"round {self.shadow.round}: inner action {action!r} is not timeserving"
            )
        flat = desugar(self.shadow, MINER1, action)
        path = _as_path(flat)
        if path is None:
            raise InnerNotTimeserving(
                f"round {self.shadow.round}: inner action {action!r} is not a single path"
            )
        attach_action(self.shadow, MINER1, action)
        return path

    def _settle_shadow(self) -> None:
        self.shadow = capitulate(self.shadow, self.shadow.tip_height())
        self.sigma.prune(lambda b: self.shadow.knows(b))

    def _remap(self, half: HalfState, blocks: list[int], base: int) -> list[int]:
        """Pick the real-game publish set: the |blocks| smallest unpublished
        real blocks above the real base, and update sigma's two pairings."""
        real_u = half.state.unpublished_1
        pool = sorted(b for b in real_u if b > base)
        if len(pool) < len(blocks):
            raise InnerNotTimeserving(
                f"round {half.state.round}: only {len(pool)} real blocks above "
                f"{base} for a {len(blocks)}-block publish (coupling broken)"
            )
        chosen = pool[: len(blocks)]
        if self.check:
            old = {b: self.sigma(b) for b in self.shadow.unpublished_1}
            old.update({b: self.sigma(b) for b in blocks})
        for b, target in zip(blocks, chosen):
            self.sigma.set(b, target)
        rest_shadow = sorted(self.shadow.unpublished_1)
        rest_real = sorted(set(real_u) - set(chosen))
        assert len(rest_shadow) <= len(rest_real)
        for b, target in zip(rest_shadow, rest_real):
            self.sigma.set(b, target)
        if self.check:
            for b in blocks:
                assert self.sigma(b) <= old[b], f"published block {b} moved up"
            for b in rest_shadow:
                assert self.sigma(b) >= old[b], f"unpublished block {b} moved down"
            assert [self.sigma(b) for b in rest_shadow] == rest_real[: len(rest_shadow)]
            self.sigma.check_bijection(self.shadow.creator.keys())
        return chosen


class OrderlyReduction(_ShadowWrapper):
    """Emit the inner strategy's publishes with rank-equivalent blocks, so
    every emitted publish takes the smallest available blocks."""

    @property
    def name(self) -> str:
        return f"orderly({self.inner.name})"

    def decide(self, half: HalfState) -> StrategyDecision:
        sh_half = self._advance(half)
        dec = self.inner.decide(sh_half)
        if isinstance(dec.action, Wait):
            if dec.capitulate_to_b0:
                self._settle_shadow()
            return StrategyDecision(WAIT, dec.capitulate_to_b0)
        blocks, u = self._apply_inner(dec.action)
        base = self.sigma(u)
        chosen = self._remap(half, blocks, base)
        if dec.capitulate_to_b0:
            self._settle_shadow()
        return StrategyDecision(
            PublishPath(frozenset(chosen), base), dec.capitulate_to_b0
        )


class LcmStepReduction(_ShadowWrapper):
    """Pass the inner strategy through verbatim, except in round N+1 where
    a publish is re-based onto the longest-chain block at the same height."""

    def __init__(self, inner, step_round: int, check: bool = False):
        super().__init__(inner, check)
        self.step_round = step_round

    @property
    def name(self) -> str:
        return f"lcm-step{self.step_round}({self.inner.name})"

    def decide(self, half: HalfState) -> StrategyDecision:
        sh_half = self._advance(half)
        dec = self.inner.decide(sh_half)
        if isinstance(dec.action, Wait):
            if dec.capitulate_to_b0:
                self._settle_shadow()
            return StrategyDecision(WAIT, dec.capitulate_to_b0)
        blocks, u = self._apply_inner(dec.action)
        u_height = self.shadow._heights[u]
        if half.state.round == self.step_round + 1:
            chain = chain_path(half.state)
            if u_height >= len(chain):
                raise NoChainBlockAtHeight(
                    f"round {half.state.round}: real chain has no block at height {u_height}"
                )
            action = PublishPath(frozenset(blocks), chain[u_height])
        else:
            action = PublishPath(frozenset(blocks), u)
        if dec.capitulate_to_b0:
            self._settle_shadow()
        return StrategyDecision(action, dec.capitulate_to_b0)


class LcmReduction(_ShadowWrapper):
    """Orderly re-selection plus per-round re-basing onto the chain block
    at the inner base's height, through the horizon.

    This folds the round-by-round alternation (re-base round N+1, then
    restore orderliness) into one wrapper: both steps preserve publish
    heights, so the base each layer would pick is the chain block at the
    inner base's shadow height, and composing the rank pairings layer by
    layer collapses into the single shadow-to-real pairing kept here.
    Past the horizon the wrapper stops re-basing and behaves like the
    plain orderly reduction of the last stage.
    """

    def __init__(self, inner, horizon: int, check: bool = False):
        super().__init__(inner, check)
        self.horizon = horizon

    @property
    def name(self) -> str:
        return f"lcm({self.inner.name})"

    def decide(self, half: HalfState) -> StrategyDecision:
        sh_half = self._advance(half)
        dec = self.inner.decide(sh_half)
        if isinstance(dec.action, Wait):
            if dec.capitulate_to_b0:
                self._settle_shadow()
            return StrategyDecision(WAIT, dec.capitulate_to_b0)
        blocks, u = self._apply_inner(dec.action)
        u_height = self.shadow._heights[u]
        if half.state.round <= self.horizon:
            chain = chain_path(half.state)
            if u_height >= len(chain):
                raise NoChainBlockAtHeight(
                    f"round {half.state.round}: real chain has no block at height {u_height}"
                )
            base = chain[u_height]
        else:
            base = self.sigma(u)
        chosen = self._remap(half, blocks, base)
        if dec.capitulate_to_b0:
            self._settle_shadow()
        return StrategyDecision(
            PublishPath(frozenset(chosen), base), dec.capitulate_to_b0
        )


def orderly_reduce(inner, check: bool = False) -> OrderlyReduction:
    return OrderlyReduction(inner, check)


def lcm_step_reduce(inner, step_round: int, check: bool = False) -> LcmStepReduction:
    return LcmStepReduction(inner, step_round, check)


def lcm_reduce(inner, horizon: int, check: bool = False) -> LcmReduction:
    return LcmReduction(inner, horizon, check)


# ---------------------------------------------------------------------------
# deferred publication around a checkpoint fork


@dataclass
class PlanOutcome:
    action: PublishPath
    tau: int
    interim_m1: int


@dataclass
class DeferredPublicationPlan:
    """Wait out the lead, then publish everything onto the checkpoint.

    The lead counter starts at W0 = |Q above the checkpoint| - |chain blocks
    above the checkpoint| - 1, goes up when Miner 1 creates a block and down
    when Miner 2 does.  When it hits zero the plan fires: publish the
    original blocks above the checkpoint plus every interim Miner-1 block,
    based on the checkpoint.
    """

    base: int
    core: frozenset[int]
    start_round: int
    w0: int
    w: int = 0
    ticks: int = 0
    interim: list[int] = field(default_factory=list)
    fired: Optional[PublishPath] = None

    def __post_init__(self) -> None:
        self.w = self.w0

    def tick(self, creator: int) -> Optional[PublishPath]:
        """Advance one round (block label follows the round counter);
        returns the publish action once the lead is gone, else None."""
        if self.fired is not None:
            raise RuntimeError("plan already fired")
        self.ticks += 1
        label = self.start_round + self.ticks
        if creator == MINER1:
            self.w += 1
            self.interim.append(label)
        else:
            self.w -= 1
        if self.w == 0:
            self.fired = PublishPath(self.core | frozenset(self.interim), self.base)
            return self.fired
        return None

    def execute(self, alpha: float, seed: Optional[int] = None,
                max_rounds: int = 10**7) -> PlanOutcome:
        """Drive the plan with fresh creator draws until it fires."""
        creators = _creator_stream(alpha, seed)
        while self.ticks < max_rounds:
            act = self.tick(next(creators))
            if act is not None:
                return PlanOutcome(act, self.ticks, len(self.interim))
        raise RuntimeError(f"plan did not fire within {max_rounds} rounds")


def checkpoint_preserve_case1(
    state: Union[GameState, HalfState], action: Action
) -> DeferredPublicationPlan:
    """Plan the deferred replacement for a checkpoint-forking publish.

    The action must be a trimmed path publish whose base sits below the
    most recent checkpoint (so the publish would knock the checkpoint off
    the chain).  The caller is responsible for the finality of the base.
    """
    if isinstance(state, HalfState):
        state = state.state
    flat = desugar(state, MINER1, action)
    path = None if isinstance(flat, Wait) else _as_path(flat)
    if path is None:
        raise ValueError("deferred plan needs a path-shaped publish action")
    if not is_trimmed(state, action):
        raise NotForkingCheckpoint("action is not trimmed")
    q_blocks, v = path
    p_i = max(checkpoints(state))
    if v >= p_i or p_i not in successors(state, v):
        raise NotForkingCheckpoint(
            f"most recent checkpoint {p_i} is not above base {v}"
        )
    core = frozenset(b for b in q_blocks if b > p_i)
    w0 = len(core) - len(successors(state, p_i)) - 1
    if w0 <= 0:
        raise W0NonPositive(f"starting lead {w0}; preconditions do not hold")
    return DeferredPublicationPlan(
        base=p_i, core=core, start_round=state.round, w0=w0
    )
