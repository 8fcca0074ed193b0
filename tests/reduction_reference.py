"""The reduction wrappers as they stood before they learned to play without
a shadow game: every round mirrors the creator draw on a private shadow game
from the start, the inner strategy plays that shadow, and each publish is
applied there and translated.  Kept verbatim as the reference the wrappers
in `posmine.reductions` must match, output for output and error for error."""

from typing import Optional

from posmine.blocktree import (
    MINER1,
    MINER2,
    Action,
    GameState,
    HalfState,
    PublishPath,
    attach_action,
    begin_round,
    capitulate,
    chain_path,
    initial_state,
)
from posmine.reductions import (
    InnerNotTimeserving,
    NoChainBlockAtHeight,
    SigmaMap,
    _check_sigma_coupling,
    _require,
)
from posmine.strategies import StrategyDecision, UnreachableState
from posmine.structure import _as_path, _publishes_nothing, is_timeserving


class _ShadowWrapper:
    """Shared machinery: mirror the creator draws (and Miner 2's frontier
    response) on a private shadow game the inner strategy plays against.
    Subclasses define ``_translate`` (see the module docstring)."""

    def __init__(self, inner, check: bool = False):
        self.inner = inner
        self.check = check
        self.reset()

    def reset(self) -> None:
        self.inner.reset()
        self.shadow = initial_state()
        self.sigma = SigmaMap()
        self._paired: Optional[GameState] = None

    def attach(self, state: GameState) -> None:
        if state.parent or state.unpublished_1 or state.unpublished_2 or state.round:
            raise UnreachableState(
                "reduction wrappers can only start from the initial state"
            )
        self.reset()

    def _step(self, half: HalfState) -> StrategyDecision:
        """Advance the shadow, run the inner strategy on it, apply its
        publish there and translate it for the real game, then settle the
        shadow if the inner strategy settles."""
        dec = self.inner.decide(self._advance(half))
        settle = dec.capitulate_to_b0
        if not _publishes_nothing(dec.action):
            blocks, u = self._apply_inner(dec.action)
            dec = StrategyDecision(self._translate(half, blocks, u), settle)
            self._paired = None
        if settle:
            self.shadow = capitulate(self.shadow, self.shadow.tip_height())
            self.sigma.prune(self.shadow.knows)
            self._paired = None
        return dec  # a move of no block passes through as the inner strategy decided it

    def _advance(self, half: HalfState) -> HalfState:
        """Play the round's draw on the shadow and pair the two unpublished
        pools by rank.

        ``_paired`` is the real state the pools were last paired against;
        a publish or a settle clears it.  While it is still this round's
        real state, the pools changed only by this round's block, the
        newest in either pool: a Miner-2 block changes neither, and a
        Miner-1 block pairs with itself (no sigma entry) when the pools are
        the same size.  Only otherwise is the pairing redone.
        """
        shadow = self.shadow
        n = begin_round(shadow, half.creator)
        if half.creator == MINER2:
            shadow._publish_one(n, shadow._tip)
        sh_pool, re_pool = shadow.unpublished_1, half.state.unpublished_1
        if sh_pool and not (
            self._paired is half.state and (half.creator == MINER2 or len(sh_pool) == len(re_pool))
        ):
            # Settling can prune the two unpublished pools asymmetrically
            # (label order decides what is still stackable), so the real
            # game may carry stale extra blocks the shadow has forgotten.
            # Those extras are harmless -- they just widen the pool future
            # publishes draw from -- but the shadow must never know MORE
            # than the real game holds.
            if len(sh_pool) > len(re_pool):
                raise RuntimeError("shadow game diverged from the real game")
            for b, target in zip(sorted(sh_pool), sorted(re_pool)):
                self.sigma.set(b, target)
        self._paired = half.state
        if self.check:
            _check_sigma_coupling(self.sigma, shadow, half.state)
        return HalfState(shadow, half.creator, n)

    def _apply_inner(self, action: Action) -> tuple[list[int], int]:
        """Check that the inner publish is one timeserving path, apply it to
        the shadow game, and return its (ascending blocks, base)."""
        if not is_timeserving(self.shadow, action):
            raise InnerNotTimeserving(
                f"round {self.shadow.round}: inner action {action!r} is not timeserving"
            )
        path = _as_path(self.shadow, action)
        if path is None:
            raise InnerNotTimeserving(
                f"round {self.shadow.round}: inner action {action!r} is not a single path"
            )
        attach_action(self.shadow, MINER1, action)
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
