"""The per-round stepper behind `run_totals`, `stake_dynamics` and the decay
check against the round engine it replaces for the stock strategies, its
one-shot advantage against the block-tree searches, the long-game outputs
it feeds (pinned by sha256), the stake-majority stop and the round-count
checks."""

import hashlib
import random
from array import array
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posmine.analysis import (
    DomainError,
    MajorityStake,
    growth_rate_check,
    mc_revenue_liminf,
    potential_reward_decay_check,
    stake_dynamics,
)
from posmine.blocktree import (
    MINER1 as M1,
    MINER2 as M2,
    PublishPath,
    format_statefile,
    potential_reward,
    potential_reward_exhaustive,
)
from posmine.strategies import (
    Engine,
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


# The brute-force search enumerates every publish, a number that grows
# factorially with the withheld pool (8 held blocks: 110k actions, seconds
# a state), so it is run on positions holding at most this many.
EXHAUSTIVE_HELD = 5


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_every_short_game_gives_the_block_tree_value(name):
    # Every prefix of every 12-round creator sequence: the node's value
    # against the fast search of the engine's tree, and against the
    # brute-force search where the position is small enough to enumerate.
    exhaustive = {}
    for creators in product((M1, M2), repeat=12):
        stepper, eng = StockStepper(name), Engine(make_strategy(name))
        for rnd, creator in enumerate(creators, 1):
            stepper.step(creator == M1)
            eng.play(creator)
            state = eng.state
            got = stepper.potential_reward()
            assert got == potential_reward(state), (creators[:rnd], stepper.node)
            if len(state.unpublished_1) <= EXHAUSTIVE_HELD:
                key = format_statefile(state), state.tip()
                if key not in exhaustive:
                    exhaustive[key] = potential_reward_exhaustive(state)
                assert got == exhaustive[key], (creators[:rnd], stepper.node)
    assert exhaustive


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("alpha", [0.05, 0.15, 0.25, 0.35, 0.45, 0.49])
def test_long_seeded_games_give_the_block_tree_value(name, alpha):
    stepper, eng = StockStepper(name), Engine(make_strategy(name))
    rand = random.Random(int(alpha * 1000)).random
    nodes = set()
    for rnd in range(1, 20001):
        mine = rand() < alpha
        stepper.step(mine)
        eng.play(M1 if mine else M2)
        nodes.add(stepper.node)
        assert stepper.potential_reward() == potential_reward(eng.state), (rnd, stepper.node)
    expect = {"start"} if name == "frontier" else {"start", "hold1", "lead", "race"}
    if name == "nsm":
        expect |= {"stall", "double"}
    assert expect <= nodes


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.02, 0.49), seed=st.integers(0, 2**32 - 1), rounds=st.integers(1, 2000))
def test_decay_report_equals_the_engine_path(name, alpha, seed, rounds):
    kernel_cls, engine_cls = PAIRS[name]
    got = potential_reward_decay_check(kernel_cls(), alpha, rounds, seed=seed)
    assert got == potential_reward_decay_check(engine_cls(), alpha, rounds, seed=seed)
    assert got == potential_reward_decay_check(name, alpha, rounds, seed=seed)


def test_stepper_is_chosen_by_exact_type(monkeypatch):
    seen = []

    class Counting(PatientWithholdOvertake):
        def decide(self, half):
            seen.append(half.block)
            return super().decide(half)

    run_totals(Counting(), 0.3, 20, seed=1)
    stake_dynamics(Counting(), 0.3, 1000, 20, seed=1)
    potential_reward_decay_check(Counting(), 0.3, 20, seed=1)
    assert len(seen) == 60
    assert not isinstance(make_stepper(Counting()), StockStepper)

    def refuse(self, half):
        raise AssertionError("the stepper called decide")

    for cls in (Frontier, WithholdOvertake, PatientWithholdOvertake):
        monkeypatch.setattr(cls, "decide", refuse)
        assert isinstance(make_stepper(cls()), StockStepper)
        run_totals(cls(), 0.3, 20, seed=1)
        stake_dynamics(cls(), 0.3, 1000, 20, seed=1)
        potential_reward_decay_check(cls(), 0.3, 20, seed=1)


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


# sha256 of repr(potential_reward_decay_check(strategy, alpha, 3000, seed=seed))
DECAY_PINS = {
    ("frontier", 0.2, 1): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.2, 2): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.2, 3): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.3, 1): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.3, 2): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.3, 3): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.4, 1): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.4, 2): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.4, 3): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.45, 1): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.45, 2): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("frontier", 0.45, 3): "6625015e33b1b06a4c8bb8dfa66af509600a8eca5c00c000e70eca0b79cd2d05",
    ("sm", 0.2, 1): "45ab0961f22a2fa179bf6c1472c5f347e4f853c2234e02972771965077af7dea",
    ("sm", 0.2, 2): "fac5f22e5c28f2d9e45ae5ec6d122ce460e18aaf3c0081abccb541672732681a",
    ("sm", 0.2, 3): "dddadeb61ea41cbc0f271fbbea1c34b71fafd177611fc16bda8b1e912f4c88f5",
    ("sm", 0.3, 1): "c33fa359e503fe41d6ed79af53265d9e68faff9b4380ca5ecd3339f07378c3b6",
    ("sm", 0.3, 2): "f8c6fba0db4da6ddaf9cab29a60b8313ceb4bdc1db9ad101befabfaf68f90026",
    ("sm", 0.3, 3): "266d96c468fd58b6f803ab2d6b0be792ce3e70b71ced75e6956bf986a05d5330",
    ("sm", 0.4, 1): "d1e584c5726e351a3c56ba6c3a335998195b777fde37e41525e4e2aa9f5fd05b",
    ("sm", 0.4, 2): "1cbfa0ed46ca2be8b3cf9d5792ce533a48d362105b3b95fd6d375ffb49086d73",
    ("sm", 0.4, 3): "874ecb0e697607de1149f564fb680a81f97d5fddb285590667d79200d1f98ae8",
    ("sm", 0.45, 1): "ecf1a688f2126b0f30c6c669486bbbd5eafd206a3d4024760f00306d2fbad57d",
    ("sm", 0.45, 2): "daef4baca58fc177b4c2b6d2d04e7c9c8ec0d73e0bccf6c31bebe812b80c585e",
    ("sm", 0.45, 3): "43e6be662bbdd382564a857728e2502dcaaca2b58c41bc449676db5777ae3cd4",
    ("nsm", 0.2, 1): "45ab0961f22a2fa179bf6c1472c5f347e4f853c2234e02972771965077af7dea",
    ("nsm", 0.2, 2): "fac5f22e5c28f2d9e45ae5ec6d122ce460e18aaf3c0081abccb541672732681a",
    ("nsm", 0.2, 3): "dddadeb61ea41cbc0f271fbbea1c34b71fafd177611fc16bda8b1e912f4c88f5",
    ("nsm", 0.3, 1): "c33fa359e503fe41d6ed79af53265d9e68faff9b4380ca5ecd3339f07378c3b6",
    ("nsm", 0.3, 2): "f8c6fba0db4da6ddaf9cab29a60b8313ceb4bdc1db9ad101befabfaf68f90026",
    ("nsm", 0.3, 3): "266d96c468fd58b6f803ab2d6b0be792ce3e70b71ced75e6956bf986a05d5330",
    ("nsm", 0.4, 1): "d1e584c5726e351a3c56ba6c3a335998195b777fde37e41525e4e2aa9f5fd05b",
    ("nsm", 0.4, 2): "c6aadf3d0e566e6f351bd2de1f5c7d4cb95dd48f9918495c763631c811cf459f",
    ("nsm", 0.4, 3): "874ecb0e697607de1149f564fb680a81f97d5fddb285590667d79200d1f98ae8",
    ("nsm", 0.45, 1): "ecf1a688f2126b0f30c6c669486bbbd5eafd206a3d4024760f00306d2fbad57d",
    ("nsm", 0.45, 2): "daef4baca58fc177b4c2b6d2d04e7c9c8ec0d73e0bccf6c31bebe812b80c585e",
    ("nsm", 0.45, 3): "43e6be662bbdd382564a857728e2502dcaaca2b58c41bc449676db5777ae3cd4",
}


@pytest.mark.parametrize("strategy,alpha,seed", sorted(DECAY_PINS))
def test_decay_report_is_unchanged(strategy, alpha, seed):
    text = repr(potential_reward_decay_check(strategy, alpha, 3000, seed=seed))
    assert sha256(text.encode()) == DECAY_PINS[strategy, alpha, seed], text
