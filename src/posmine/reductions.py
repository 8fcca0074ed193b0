"""Strategy-to-strategy transformations that force publishes into shape.

Each wrapper runs the inner strategy on a private shadow game fed the same
creator draws (Miner 2's frontier response is simulated on the shadow), and
translates the inner strategy's publishes into better-shaped actions on the
real game.  Until a translation first changes a publish, the shadow would
be the real game, so it is built only then, as a copy of the real game
(stock play under ``orderly_reduce`` or ``lcm_reduce`` never needs one).
The round is the same for every wrapper (``_ShadowWrapper._step``); a
wrapper only defines ``_translate(half, blocks, u)``, the real publish that
stands for the inner publish of ``blocks`` on shadow base ``u``, and
``_in_shape``, whether that is the inner publish itself:

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
unpublished blocks are paired up by rank after every publish and again
every round in which the shadow withholds anything.  Miner-2 blocks always
map to themselves.  With ``check=True`` the coupling is re-checked every
round, and a broken invariant raises :class:`CouplingBroken`.

``checkpoint_preserve_case1`` builds the deferred-publication plan that
replaces a checkpoint-forking publish: wait out a biased random walk, then
publish the checkpoint-lifted blocks plus the Miner-1 blocks created in
the interim, based on the checkpoint itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    Action,
    BlockTreeError,
    GameState,
    HalfState,
    PublishPath,
    attach_action,
    begin_round,
    capitulate,
    chain_path,
    on_chain,
    successors,
)
from .strategies import StrategyDecision, UnreachableState, _draw_source
from .structure import (
    _as_path,
    _publishes_nothing,
    _smallest_above,
    checkpoints,
    is_timeserving,
    is_trimmed,
)

__all__ = [
    "CouplingBroken",
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


class CouplingBroken(BlockTreeError, AssertionError):
    """A coupling invariant between the shadow and the real game failed;
    raised, not asserted, so the checks also run under ``python -O``."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CouplingBroken(message)


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
        _require(len(set(vals)) == len(vals), "sigma lost injectivity")
        if domain is not None:
            # an explicit pair aimed at some block's identity image would
            # make two domain blocks collide in the real game
            imgs = [self(b) for b in domain]
            _require(len(set(imgs)) == len(imgs), "sigma images collide on the domain")


def _check_sigma_coupling(sigma: SigmaMap, shadow: GameState, real: GameState) -> None:
    """Coupling checks: sigma is a tree isomorphism shadow -> real, fixes
    Miner-2 blocks, and is a rank isomorphism on the unpublished sets."""
    for b, p in shadow.parent.items():
        sb = sigma(b)
        _require(sb in real.parent, f"sigma({b})={sb} not published in the real game")
        want = sigma(p) if p != GENESIS else GENESIS
        _require(real.parent[sb] == want, f"edge mismatch at shadow block {b}")
    for b in sigma.diff:
        _require(shadow.creator.get(b) == MINER1, f"sigma moved non-Miner-1 block {b}")
    sh_u = sorted(shadow.unpublished_1)
    re_u = sorted(real.unpublished_1)
    _require([sigma(b) for b in sh_u] == re_u[: len(sh_u)],
             "sigma is not the rank pairing on unpublished")
    sigma.check_bijection(shadow.creator.keys())


class _ShadowWrapper:
    """Shared machinery: mirror the creator draws (and Miner 2's frontier
    response) on a private shadow game the inner strategy plays against.
    ``shadow`` is None while that game is the real one and sigma is empty,
    which ``attach`` makes true at the start.  Subclasses define
    ``_translate`` and ``_in_shape`` (see the module docstring)."""

    def __init__(self, inner, check: bool = False):
        self.inner = inner
        self.check = check
        self.reset()

    def reset(self) -> None:
        self.inner.reset()
        self.shadow: Optional[GameState] = None
        self.sigma = SigmaMap()

    def attach(self, state: GameState) -> None:
        if state.parent or state.unpublished_1 or state.unpublished_2 or state.round:
            raise UnreachableState(
                "reduction wrappers can only start from the initial state"
            )
        self.reset()

    def _step(self, half: HalfState) -> StrategyDecision:
        """Advance the shadow, run the inner strategy on it, apply its
        publish there and translate it for the real game, then settle the
        shadow if the inner strategy settles.  With no shadow the inner
        strategy plays ``half``, its publish gets the same checks on the
        real state, and only one that ``_in_shape`` rejects builds the
        shadow, as a copy of the real state."""
        if self.shadow is None:
            dec = self.inner.decide(half)
            if _publishes_nothing(dec.action):
                return dec
            path = self._inner_path(half.state, dec.action)
            if self._in_shape(half, *path):
                if type(dec.action) is not PublishPath:  # the form a translation takes
                    dec = StrategyDecision(PublishPath(frozenset(path[0]), path[1]), dec.capitulate_to_b0)
                return dec
            self.shadow = half.state.clone()
        else:
            dec = self.inner.decide(self._advance(half))
            path = None if _publishes_nothing(dec.action) else self._inner_path(self.shadow, dec.action)
        settle = dec.capitulate_to_b0
        if path is not None:
            attach_action(self.shadow, MINER1, dec.action)
            dec = StrategyDecision(self._translate(half, *path), settle)
        if settle:
            self.shadow = capitulate(self.shadow, self.shadow.tip_height())
            self.sigma.prune(self.shadow.knows)
        return dec  # a move of no block passes through as the inner strategy decided it

    def _advance(self, half: HalfState) -> HalfState:
        """Play the round's draw on the shadow and pair the two unpublished
        pools by rank."""
        shadow = self.shadow
        n = begin_round(shadow, half.creator)
        if half.creator == MINER2:
            shadow._publish_one(n, shadow._tip)
        sh_pool, re_pool = shadow.unpublished_1, half.state.unpublished_1
        if sh_pool:
            # Settling can prune the two unpublished pools asymmetrically
            # (label order decides what is still stackable), so the real
            # game may carry stale extra blocks the shadow has forgotten.
            # Those extras are harmless -- they just widen the pool future
            # publishes draw from -- but the shadow must never know MORE
            # than the real game holds.
            _require(len(sh_pool) <= len(re_pool), "shadow game diverged from the real game")
            for b, target in zip(sorted(sh_pool), sorted(re_pool)):
                self.sigma.set(b, target)
        if self.check:
            _check_sigma_coupling(self.sigma, shadow, half.state)
        return HalfState(shadow, half.creator, n)

    @staticmethod
    def _inner_path(state: GameState, action: Action) -> tuple[list[int], int]:
        """Check that the inner publish is one valid, timeserving path on the
        inner strategy's ``state`` (an invalid one raises what
        ``blocktree.validate_action`` raises), and return its (ascending
        blocks, base)."""
        if not is_timeserving(state, action):
            raise InnerNotTimeserving(
                f"round {state.round}: inner action {action!r} is not timeserving"
            )
        path = _as_path(state, action)
        if path is None:
            raise InnerNotTimeserving(
                f"round {state.round}: inner action {action!r} is not a single path"
            )
        return path

    def _chain_at(self, half: HalfState, u: int) -> int:
        """The real chain block at the height of shadow block ``u``."""
        u_height = self.shadow._heights[u]
        chain = chain_path(half.state)
        if u_height >= len(chain):
            raise NoChainBlockAtHeight(
                f"round {half.state.round}: real chain has no block at height {u_height}"
            )
        return chain[u_height]

    def _remap(self, half: HalfState, blocks: list[int], base: int) -> PublishPath:
        """Publish the |blocks| smallest unpublished real blocks above the
        real base, and update sigma's two pairings."""
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
        _require(len(rest_shadow) <= len(rest_real), "shadow holds more unpublished blocks")
        for b, target in zip(rest_shadow, rest_real):
            self.sigma.set(b, target)
        if self.check:
            for b in blocks:
                _require(self.sigma(b) <= old[b], f"published block {b} moved up")
            for b in rest_shadow:
                _require(self.sigma(b) >= old[b], f"unpublished block {b} moved down")
            _require([self.sigma(b) for b in rest_shadow] == rest_real[: len(rest_shadow)],
                     "sigma is not the rank pairing on unpublished")
            self.sigma.check_bijection(self.shadow.creator.keys())
        return PublishPath(frozenset(chosen), base)


class OrderlyReduction(_ShadowWrapper):
    """Emit the inner strategy's publishes with rank-equivalent blocks, so
    every emitted publish takes the smallest available blocks."""

    @property
    def name(self) -> str:
        return f"orderly({self.inner.name})"

    def decide(self, half: HalfState) -> StrategyDecision:
        return self._step(half)

    def _translate(self, half: HalfState, blocks: list[int], u: int) -> PublishPath:
        return self._remap(half, blocks, self.sigma(u))

    def _in_shape(self, half: HalfState, blocks: list[int], u: int) -> bool:
        return _smallest_above(half.state, blocks, u)


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
        return self._step(half)

    def _translate(self, half: HalfState, blocks: list[int], u: int) -> PublishPath:
        # verbatim, as the inner strategy chose them: mapping the base
        # through sigma, as the other wrappers do, would move it wherever
        # sigma(u) != u
        if half.state.round == self.step_round + 1:
            u = self._chain_at(half, u)
        return PublishPath(frozenset(blocks), u)

    def _in_shape(self, half: HalfState, blocks: list[int], u: int) -> bool:
        return half.state.round != self.step_round + 1 or on_chain(half.state, u)


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
        return self._step(half)

    def _translate(self, half: HalfState, blocks: list[int], u: int) -> PublishPath:
        base = self._chain_at(half, u) if half.state.round <= self.horizon else self.sigma(u)
        return self._remap(half, blocks, base)

    def _in_shape(self, half: HalfState, blocks: list[int], u: int) -> bool:
        state = half.state
        return _smallest_above(state, blocks, u) and (state.round > self.horizon or on_chain(state, u))


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

    def execute(self, alpha: float, seed: Optional[int] = None) -> PlanOutcome:
        """Drive the plan with fresh creator draws until it fires, for at
        most 10**7 rounds in all."""
        rand = _draw_source(seed)
        while self.ticks < 10**7:
            act = self.tick(MINER1 if rand() < alpha else MINER2)
            if act is not None:
                return PlanOutcome(act, self.ticks, len(self.interim))
        raise RuntimeError(f"plan did not fire within {10**7} rounds")


def checkpoint_preserve_case1(state: GameState, action: Action) -> DeferredPublicationPlan:
    """Plan the deferred replacement for a checkpoint-forking publish.

    The action must be a trimmed path publish whose base sits below the
    most recent checkpoint (so the publish would knock the checkpoint off
    the chain).  The caller is responsible for the finality of the base.
    """
    path = _as_path(state, action)
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
