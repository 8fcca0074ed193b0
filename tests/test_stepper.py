"""The per-round stepper behind `run_totals` and `stake_dynamics` against the
round engine it replaces for the stock strategies, the long-game outputs it
feeds (pinned by sha256), the stake-majority stop and the round-count
checks."""

import hashlib
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posmine.analysis import (
    DomainError,
    MajorityStake,
    growth_rate_check,
    mc_revenue_liminf,
    stake_dynamics,
)
from posmine.blocktree import MINER1 as M1, MINER2 as M2, PublishPath
from posmine.strategies import (
    Frontier,
    PatientWithholdOvertake,
    Scripted,
    StockStepper,
    WithholdOvertake,
    make_stepper,
    make_strategy,
    run_game,
    run_totals,
)


# Trivial subclasses: make_stepper picks the stock stepper by exact type, so
# these play through the Engine and serve as the stepper's oracle.
class _FrontierViaEngine(Frontier):
    pass


class _SmViaEngine(WithholdOvertake):
    pass


class _NsmViaEngine(PatientWithholdOvertake):
    pass


PAIRS = {
    "frontier": (Frontier, _FrontierViaEngine),
    "sm": (WithholdOvertake, _SmViaEngine),
    "nsm": (PatientWithholdOvertake, _NsmViaEngine),
}


def totals(strategy, alpha, rounds, seed=None, creators=None, heights=False):
    out = np.zeros(rounds, dtype=np.int64) if heights else None
    tot = run_totals(strategy, alpha, rounds, seed, creators=creators, heights_out=out)
    return tot, (out.tolist() if heights else None)


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.02, 0.48),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 400),
    heights=st.booleans(),
)
def test_run_totals_equal_the_engine(name, alpha, seed, rounds, heights):
    kernel_cls, engine_cls = PAIRS[name]
    got = totals(kernel_cls(), alpha, rounds, seed, heights=heights)
    assert got == totals(engine_cls(), alpha, rounds, seed, heights=heights)


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=40, deadline=None)
@given(creators=st.lists(st.sampled_from([M1, M2]), max_size=300), heights=st.booleans())
def test_run_totals_on_explicit_creators_equal_the_engine(name, creators, heights):
    kernel_cls, engine_cls = PAIRS[name]
    n = len(creators)
    got = totals(kernel_cls(), 0.3, n, creators=creators, heights=heights)
    assert got == totals(engine_cls(), 0.3, n, creators=creators, heights=heights)


@pytest.mark.parametrize("name", ["sm", "nsm"])
def test_run_totals_stopping_mid_cycle_count_the_live_chain(name):
    # Every prefix of one game, so the runs stop in every node, restarted
    # nsm races included.
    kernel_cls, engine_cls = PAIRS[name]
    stepper, rand = make_stepper(kernel_cls()), random.Random(3).random
    nodes = set()
    for rounds in range(1, 301):
        stepper.step(rand() < 0.45)
        nodes.add((stepper.node, stepper.hb > 0))
        assert totals(kernel_cls(), 0.45, rounds, 3, heights=True) == totals(
            engine_cls(), 0.45, rounds, 3, heights=True
        ), rounds
    expect = {("start", False), ("hold1", False), ("lead", False), ("race", False)}
    if name == "nsm":
        expect |= {("stall", False), ("double", False)}
        expect |= {("race", True), ("stall", True), ("double", True)}
    assert expect <= nodes


def test_run_totals_count_miner1_blocks_on_the_live_chain():
    # A publish without a settle leaves Miner-1 blocks on the live chain,
    # which the stock strategies never do.
    creators = [M1, M2, M1, M2, M2]
    moves = [(1, PublishPath(frozenset({1}), 0), False), (3, PublishPath(frozenset({3}), 2), False)]
    tr = run_game(Scripted(moves), 0.3, len(creators), creators=creators)
    tot = run_totals(Scripted(moves), 0.3, len(creators), creators=creators)
    assert (tot.t1, tot.t2, tot.height, tot.caps) == (sum(tr.r1), sum(tr.r2), tr.heights[-1], 0)
    assert (tot.t1, tot.t2) == (2, 3)


def test_run_totals_reject_bad_explicit_creators():
    for cls in (WithholdOvertake, _SmViaEngine):
        with pytest.raises(ValueError, match="creator must be 1 or 2, got 0"):
            run_totals(cls(), 0.3, 3, creators=[M1, 0, M2])


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=40, deadline=None)
@given(
    alpha0=st.floats(0.02, 0.48),
    coins=st.integers(1, 3000),
    rounds=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_stake_dynamics_equal_the_engine(name, alpha0, coins, rounds, seed):
    # Few coins let the share cross 1/2 within the run, so the stop is
    # compared too.
    def run(strategy):
        try:
            return stake_dynamics(strategy, alpha0, coins, rounds, seed=seed).fractions
        except MajorityStake as e:
            return e.round, e.share
        except DomainError as e:
            return str(e)

    kernel_cls, engine_cls = PAIRS[name]
    got = run(name)
    assert got == run(kernel_cls())
    assert got == run(engine_cls())


def test_stake_past_half_stops_with_the_round_and_share():
    with pytest.raises(MajorityStake) as err:
        stake_dynamics("nsm", 0.35, coins=1000, rounds=20000, seed=1)
    assert err.value.round == 5831
    assert err.value.share >= 0.5
    assert "round 5831" in str(err.value) and repr(err.value.share) in str(err.value)
    with pytest.raises(MajorityStake) as engine_err:
        stake_dynamics(_NsmViaEngine(), 0.35, coins=1000, rounds=20000, seed=1)
    assert (engine_err.value.round, engine_err.value.share) == (5831, err.value.share)


def test_stake_that_starts_at_half_is_a_domain_error():
    with pytest.raises(DomainError, match="share of 0.5"):
        stake_dynamics("nsm", 0.3, coins=2, rounds=10)


def test_stepper_is_chosen_by_exact_type(monkeypatch):
    seen = []

    class Counting(PatientWithholdOvertake):
        def decide(self, half):
            seen.append(half.block)
            return super().decide(half)

    run_totals(Counting(), 0.3, 20, seed=1)
    stake_dynamics(Counting(), 0.3, 1000, 20, seed=1)
    assert len(seen) == 40
    assert not isinstance(make_stepper(Counting()), StockStepper)

    def refuse(self, half):
        raise AssertionError("the stepper called decide")

    for cls in (Frontier, WithholdOvertake, PatientWithholdOvertake):
        monkeypatch.setattr(cls, "decide", refuse)
        assert isinstance(make_stepper(cls()), StockStepper)
        run_totals(cls(), 0.3, 20, seed=1)
        stake_dynamics(cls(), 0.3, 1000, 20, seed=1)


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_game(make_strategy("sm"), 0.3, -1),
        lambda: run_totals(make_strategy("sm"), 0.3, -1),
        lambda: run_totals(_SmViaEngine(), 0.3, -1),
        lambda: stake_dynamics("nsm", 0.3, 1000, -1),
    ],
    ids=["run_game", "run_totals", "run_totals_engine", "stake_dynamics"],
)
def test_negative_round_counts_are_domain_errors(run):
    with pytest.raises(DomainError, match="rounds must be >= 0, got -1"):
        run()


# sha256 pins recorded with the engine path: the stepper must give
# bit-identical long-game outputs.
def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_a11_growth_series_is_unchanged():
    rep = growth_rate_check("nsm", 0.4, rounds=10**5, seed=47)
    assert sha256(rep.series.tobytes()) == (
        "d31c42141683a5998e98c2bf0ef7e265e1e26d55666ab19e65bd3efbe3a46054"
    )


A12_PINS = {
    ("frontier", 0.33, 53): "ce3fefa3c210ccf4ecfa5ecb2d4e96cfd788fa909b34be304cb3b495bbd2f49d",
    ("nsm", 0.34, 59): "d1aa13d1806c6bef9d897becd327bac4e020a54f66f893107c4c3a1b24e2748a",
    ("nsm", 0.30, 61): "42ab84ddaf9c4c5d9c1c4c4a9eabbbe344881a7f9d9b9c90630fc07c0cde9122",
}


@pytest.mark.parametrize("strategy,alpha0,seed", sorted(A12_PINS))
def test_a12_stake_fractions_are_unchanged(strategy, alpha0, seed):
    fractions = stake_dynamics(strategy, alpha0, 100000, 10**6, seed=seed).fractions
    assert sha256(array("d", fractions).tobytes()) == A12_PINS[strategy, alpha0, seed]


# sha256 of repr(mc_revenue_liminf(strategy, alpha, 3000, 8, seed=11, threads=1))
LIMINF_PINS = {
    ("frontier", 0.25): "a8d555758e90ea04820fdafb8630d1619646c97bc67614a02a8decd3e43b97ae",
    ("frontier", 0.45): "175a691030259576ebba9239036d6cdb72ca1367eb6f6d2eb906240f7e457438",
    ("sm", 0.25): "0d4943bc0db6566e804fadc3f276912c577520547254ae3e900f0fa2d989bf5f",
    ("sm", 0.45): "468ee8e7bf0cb7119906ff4339dd49fad0ae3d9bd4f1932eb2079bff36f080d4",
    ("nsm", 0.25): "35f10ecab4811a7a17818b73021b57df25d42cb773280a6827ed6570a4aea994",
    ("nsm", 0.45): "ea765fc550423f8c619f25404cf892ae8bc48940fe148b27d08413bdd2c24172",
}


@pytest.mark.parametrize("strategy,alpha", sorted(LIMINF_PINS))
def test_liminf_estimate_is_unchanged(strategy, alpha):
    text = repr(mc_revenue_liminf(strategy, alpha, 3000, 8, seed=11, threads=1))
    assert sha256(text.encode()) == LIMINF_PINS[strategy, alpha], text
