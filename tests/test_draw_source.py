"""The package's one draw source against the reference creator stream: from
a seed every round loop plays the reference's creators, and an explicit
creator list plays the same at any alpha (its -inf/+inf sentinels never
depend on the comparison's other side)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posmine.analysis import growth_rate_check, potential_reward_decay_check
from posmine.blocktree import MINER1 as M1, MINER2 as M2
from posmine.reductions import DeferredPublicationPlan
from posmine.strategies import WithholdOvertake, make_strategy, run_game, run_totals
from creator_reference import creator_stream
from conftest import LadderRacer


class _SmViaEngine(WithholdOvertake):
    """Plays through the Engine's ``step``: ``make_stepper`` picks the stock
    stepper by exact type."""


STRATEGIES = {
    "frontier": lambda: make_strategy("frontier"),
    "sm": lambda: make_strategy("sm"),
    "nsm": lambda: make_strategy("nsm"),
    "sm-engine": _SmViaEngine,
    "ladder": LadderRacer,
}


def reference_creators(alpha, seed, rounds):
    return [c for _, c in zip(range(rounds), creator_stream(alpha, seed))]


def recorded(trace):
    return (
        trace.creators, trace.m1_actions, trace.m2_bases, trace.cap_flags,
        trace.tips, trace.heights, trace.r1, trace.r2,
    )


def totals(name, alpha, rounds, seed=None, creators=None, heights=False):
    out = [0] * rounds if heights else None
    tot = run_totals(STRATEGIES[name](), alpha, rounds, seed, creators=creators, heights_out=out)
    return tot, out


def long_game_outputs(name, alpha, rounds, seed=None, creators=None):
    """Every seeded or explicit-creator output of one game, alpha aside."""
    trace = run_game(STRATEGIES[name](), alpha, rounds, seed=seed, creators=creators)
    outputs = [recorded(trace), totals(name, alpha, rounds, seed, creators)]
    outputs.append(totals(name, alpha, rounds, seed, creators, heights=True))
    if rounds:
        outputs.append(potential_reward_decay_check(
            STRATEGIES[name](), alpha, rounds, seed=seed, creators=creators
        ))
    return outputs


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 400),
)
def test_seeded_loops_play_the_reference_creators(name, alpha, seed, rounds):
    creators = reference_creators(alpha, seed, rounds)
    seeded = long_game_outputs(name, alpha, rounds, seed=seed)
    assert seeded == long_game_outputs(name, alpha, rounds, creators=creators)
    assert seeded[0][0] == creators
    if rounds:
        series = growth_rate_check(STRATEGIES[name](), alpha, rounds, seed=seed).series
        _, heights = totals(name, alpha, rounds, creators=creators, heights=True)
        assert series.tolist() == (np.array(heights) / np.arange(1, rounds + 1)).tolist()


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@settings(max_examples=30, deadline=None)
@given(creators=st.lists(st.sampled_from([M1, M2]), max_size=300))
def test_explicit_creators_play_the_same_at_any_alpha(name, creators):
    n = len(creators)
    low = long_game_outputs(name, 0.01, n, creators=creators)
    assert low == long_game_outputs(name, 0.49, n, creators=creators)
    assert low[0][0] == creators


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.01, 0.45), seed=st.integers(0, 2**32 - 1))
def test_a_deferred_plan_ticks_the_reference_creators(alpha, seed):
    plan = DeferredPublicationPlan(base=0, core=frozenset({1, 2, 3}), start_round=3, w0=2)
    ref = DeferredPublicationPlan(base=0, core=frozenset({1, 2, 3}), start_round=3, w0=2)
    out = plan.execute(alpha, seed)
    stream = creator_stream(alpha, seed)
    while ref.fired is None:
        ref.tick(next(stream))
    assert (out.action, out.tau, plan.interim) == (ref.fired, ref.ticks, ref.interim)


@pytest.mark.parametrize(
    "creators, needed",
    [([M1, M2], 5), ([M1, 0, M2], 3), ([M1, M2, 3], 3), ([M2, True, 2.0], 3), ([M1] * 4, 2)],
)
def test_explicit_creators_are_checked_as_the_reference_checks_them(creators, needed):
    try:
        expect = list(creator_stream(0.3, None, creators, needed))[:needed]
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{err}$"):
            run_game(make_strategy("sm"), 0.3, needed, creators=creators)
    else:
        assert run_game(make_strategy("sm"), 0.3, needed, creators=creators).creators == expect
