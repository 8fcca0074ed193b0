"""The reduction wrappers against `reduction_reference`, the wrappers as
they stood when every round was played on a shadow game.  Both must give
the same game, or raise the same error with the same message, for every
wrapper, inner strategy and ``check`` setting, and for inner strategies
that break the shape a wrapper keeps, or break a rule, at a chosen round."""

import pytest
from hypothesis import given, settings, strategies as hst

import reduction_reference
from posmine import reductions
from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    HalfState,
    NotOwned,
    PublishPath,
    begin_round,
    desugar,
    initial_state,
    on_chain,
)
from posmine.reductions import CouplingBroken, LcmReduction, orderly_reduce
from posmine.strategies import Frontier, StrategyDecision, make_strategy, run_game
from conftest import LadderRacer, TopHeavyRacer, play_rounds
from test_fast_paths import STRATEGIES

M1, M2 = MINER1, MINER2


def _non_orderly(st, block):
    """The newest withheld block alone on the tip, while an older one is
    withheld above it."""
    above = sorted(b for b in st.unpublished_1 if b > st.tip())
    if len(above) >= 2:
        return PublishPath(frozenset(above[-1:]), st.tip())
    return None


def _off_chain(st, block):
    """Enough of the newest withheld blocks to overtake from the highest
    published block off the chain."""
    dead = [b for b in st.parent if not on_chain(st, b)]
    if not dead:
        return None
    r = max(dead, key=st._heights.__getitem__)
    usable = sorted(b for b in st.unpublished_1 if b > r)
    need = st.tip_height() - st._heights[r] + 1
    return PublishPath(frozenset(usable[-need:]), r) if need <= len(usable) else None


def _unowned(st, block):
    """A block no miner has made yet, on the tip: timeserving, one path,
    but not Miner 1's to publish."""
    return PublishPath(frozenset({block + 5}), st.tip())


def _unknown_base(st, block):
    return PublishPath(frozenset(st.unpublished_1), block + 7) if st.unpublished_1 else None


def _not_timeserving(st, block):
    """One withheld block on genesis, which does not outgrow a tip above it."""
    if st.unpublished_1 and st.tip_height() >= 1:
        return PublishPath(frozenset({min(st.unpublished_1)}), GENESIS)
    return None


BREAKS = {
    "non-orderly": _non_orderly,
    "off-chain": _off_chain,
    "unowned": _unowned,
    "unknown-base": _unknown_base,
    "not-timeserving": _not_timeserving,
}


class Breaking:
    """Test double: plays ``inner``, except that from round ``at`` on it
    makes the first move ``BREAKS[kind]`` can build instead (settling if
    ``settle``); with ``sugar`` every publish is made as the equivalent
    explicit edge set.  Its moves are not validated, so a wrapper sees the
    broken rule itself."""

    def __init__(self, inner, kind, at, settle, sugar=False):
        self.inner, self.kind, self.at, self.settle, self.sugar = inner, kind, at, settle, sugar
        self.name = f"breaking({inner.name})"
        self.reset()

    def reset(self):
        self.inner.reset()
        self.done = False

    def decide(self, half):
        dec = self.inner.decide(half)
        if self.kind is not None and not self.done and half.block >= self.at:
            action = BREAKS[self.kind](half.state, half.block)
            if action is not None:
                self.done = True
                dec = StrategyDecision(action, self.settle)
        if self.sugar and isinstance(dec.action, PublishPath):
            dec = StrategyDecision(desugar(half.state, MINER1, dec.action), dec.capitulate_to_b0)
        return dec


class OrderlyLadder(LadderRacer):
    """Test double: LadderRacer's publishes made with the smallest blocks
    above their base, so they are orderly, and under ``lcm`` only the hops
    onto dead bases are out of shape."""

    name = "orderly-ladder"

    def decide(self, half):
        dec = super().decide(half)
        if isinstance(dec.action, PublishPath):
            k, base = len(dec.action.blocks), dec.action.base
            pool = sorted(b for b in half.state.unpublished_1 if b > base)
            dec = StrategyDecision(PublishPath(frozenset(pool[:k]), base), dec.capitulate_to_b0)
        return dec


INNERS = {**STRATEGIES, "orderly-ladder": OrderlyLadder}


def wrap(module, kind, inner, param, check):
    if kind == "orderly":
        return module.OrderlyReduction(inner, check)
    if kind == "lcm":
        return module.LcmReduction(inner, param, check)
    return module.LcmStepReduction(inner, param, check)


def outcome(kind, module, make_inner, param, check, alpha, seed, rounds):
    try:
        t = run_game(wrap(module, kind, make_inner(), param, check), alpha, rounds, seed=seed)
    except Exception as e:  # the failure, its type and message, is compared
        return type(e), str(e)
    return t.m1_actions, t.heights, t.r1, t.r2, t.cap_flags, t.tips


KINDS = ["orderly", "lcm", "lcm-step"]


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("inner", sorted(INNERS))
@pytest.mark.parametrize("kind", KINDS)
def test_wrapped_games_equal_the_shadow_game_wrappers(kind, inner, check):
    for seed, param, sugar in ((1, 60, False), (2, 400, True)):
        args = (lambda: Breaking(INNERS[inner](), None, 0, False, sugar), param, check, 0.4, seed, 400)
        assert outcome(kind, reductions, *args) == outcome(kind, reduction_reference, *args)


@given(
    hst.sampled_from(KINDS),
    hst.sampled_from(sorted(INNERS)),
    hst.sampled_from([None, *sorted(BREAKS)]),
    hst.integers(min_value=1, max_value=120),
    hst.booleans(),
    hst.booleans(),
    hst.booleans(),
    hst.floats(min_value=0.05, max_value=0.48),
    hst.integers(min_value=0, max_value=2**32 - 1),
    hst.integers(min_value=1, max_value=250),
    hst.integers(min_value=1, max_value=250),
)
@settings(max_examples=300, deadline=None)
def test_departures_play_as_in_the_shadow_game_wrappers(
    kind, inner, brk, at, settle, sugar, check, alpha, seed, rounds, param
):
    def make_inner():
        return Breaking(INNERS[inner](), brk, at, settle, sugar)

    args = (make_inner, param, check, alpha, seed, rounds)
    assert outcome(kind, reductions, *args) == outcome(kind, reduction_reference, *args)


@pytest.mark.parametrize("kind, param", [("orderly", 0), ("lcm", 60), ("lcm", 2000), ("lcm-step", 20)])
@pytest.mark.parametrize("inner", ["sm", "nsm", "frontier"])
def test_stock_play_needs_no_shadow_game(kind, inner, param):
    wrapper = wrap(reductions, kind, make_strategy(inner), param, check=False)
    run_game(wrapper, 0.45, 2000, seed=3)
    assert wrapper.shadow is None


@pytest.mark.parametrize("racer", [LadderRacer, TopHeavyRacer])
def test_a_racer_departs_at_its_first_publish(racer):
    wrapper = LcmReduction(racer(), 400)
    trace = run_game(wrapper, 0.4, 400, seed=2)
    first = next(i for i, a in enumerate(trace.m1_actions) if isinstance(a, PublishPath))
    wrapper = LcmReduction(racer(), 400)
    run_game(wrapper, 0.4, first, seed=2)
    assert wrapper.shadow is None
    run_game(wrapper, 0.4, first + 1, seed=2)
    assert wrapper.shadow is not None


def test_a_broken_rule_is_raised_by_the_wrapper_itself():
    # off lcm-step's step round the translation is the identity, so only
    # the wrapper's own validation stands between the publish and the game
    for module in (reduction_reference, reductions):
        wrapper = module.LcmStepReduction(Breaking(Frontier(), "unowned", 1, False), step_round=9)
        wrapper.reset()
        st = initial_state()
        n = begin_round(st, M1)
        with pytest.raises(NotOwned, match="block 6"):
            wrapper.decide(HalfState(st, M1, n))


def test_a_shadow_holding_more_than_the_real_game_breaks_the_coupling():
    wrapper = orderly_reduce(Frontier())
    wrapper.shadow = play_rounds(initial_state(), [M1, M1])
    real = play_rounds(initial_state(), [M2, M2])
    n = begin_round(real, M1)
    with pytest.raises(CouplingBroken, match="shadow game diverged from the real game"):
        wrapper.decide(HalfState(real, M1, n))
