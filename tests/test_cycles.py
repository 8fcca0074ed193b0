"""The cycle kernel for the stock strategies against the round engine it
replaces, the renewal estimates it feeds (pinned by sha256), and the
Monte Carlo count checks."""

import hashlib
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from posmine.analysis import DomainError, mc_revenue_liminf, mc_revenue_renewal
from posmine.strategies import (
    Frontier,
    PatientWithholdOvertake,
    WithholdOvertake,
    iter_cycles,
)


# Trivial subclasses: iter_cycles picks the kernel by exact type, so these
# play through the Engine and serve as the kernel's oracle.
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


def cycles(strategy, alpha, seed, limit, cycle_cap=10**6):
    """The first ``limit`` cycles as tuples, and the overrun message if the
    cycles stop with one first."""
    out = []
    try:
        for c in islice(iter_cycles(strategy, alpha, seed, cycle_cap=cycle_cap), limit):
            out.append((c.r1, c.r2, c.rounds))
    except RuntimeError as e:
        return out, str(e)
    return out, None


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.02, 0.48), seed=st.integers(0, 2**32 - 1))
def test_kernel_cycles_equal_the_engine(name, alpha, seed):
    kernel_cls, engine_cls = PAIRS[name]
    got = cycles(kernel_cls(), alpha, seed, 500)
    assert got == cycles(engine_cls(), alpha, seed, 500)
    assert len(got[0]) == 500 and got[1] is None


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("cap", range(1, 9))
def test_kernel_overruns_the_cap_where_the_engine_does(name, cap):
    kernel_cls, engine_cls = PAIRS[name]
    for seed in range(30):
        got = cycles(kernel_cls(), 0.45, seed, 200, cycle_cap=cap)
        assert got == cycles(engine_cls(), 0.45, seed, 200, cycle_cap=cap), seed
        if name != "frontier":
            assert got[1] == f"cycle exceeded {cap} rounds without settling", seed


def test_nsm_cap_is_checked_inside_the_race():
    # A 4-round cycle starts here; the engine stops it at round 3.
    got = cycles(PatientWithholdOvertake(), 0.45, 2, 1000, cycle_cap=3)
    assert got == cycles(_NsmViaEngine(), 0.45, 2, 1000, cycle_cap=3)
    assert got[1] == "cycle exceeded 3 rounds without settling"
    assert all(rounds <= 3 for _, _, rounds in got[0])


def test_nsm_restarts_keep_miner2_blocks_below_the_base():
    got, _ = cycles(PatientWithholdOvertake(), 0.45, 11, 5000)
    assert got == cycles(_NsmViaEngine(), 0.45, 11, 5000)[0]
    # After a restart the base height hb is 2 or more: a won race scores
    # (2, hb), a won double (3, hb) and a lost stall (0, hb + 3).
    assert any(r1 == 2 and r2 >= 2 for r1, r2, _ in got)
    assert any(r1 == 3 and r2 >= 2 for r1, r2, _ in got)
    assert any(r1 == 0 and r2 >= 5 for r1, r2, _ in got)


def test_kernel_is_chosen_by_exact_type(monkeypatch):
    seen = []

    class Counting(WithholdOvertake):
        def decide(self, half):
            seen.append(half.block)
            return super().decide(half)

    list(islice(iter_cycles(Counting(), 0.3, seed=1), 10))
    assert seen

    def refuse(self, half):
        raise AssertionError("the kernel called decide")

    for cls in (Frontier, WithholdOvertake, PatientWithholdOvertake):
        monkeypatch.setattr(cls, "decide", refuse)
        list(islice(iter_cycles(cls(), 0.3, seed=1), 10))


# sha256 of repr(mc_revenue_renewal(strategy, alpha, 3000, seed=7)), recorded
# with the engine path: the kernel must give bit-identical estimates and
# standard errors.
RENEWAL_PINS = {
    ("frontier", 0.25): "7f188d1f2468dde5e85ff813f948698380ccfaac41e226ae9e4222040984d584",
    ("frontier", 0.35): "beec5d51a9ccd6cef5c115c7de15eb96bf03dbb0bbd03623c39a015c6b1e4c22",
    ("frontier", 0.45): "e0213c69b0160b680dc4c071c7d5b6b8c341502189c5f442c1b5a5c981630f18",
    ("sm", 0.25): "0381cccf013b2fe2f9009d67217830713cce45add61397e6e4dc786337212f8c",
    ("sm", 0.35): "efa6a3170a5b900b9f70fa1de3c3deffa8c73b251833781da191e18a12b08208",
    ("sm", 0.45): "3d31cd4f73b6ab779b1d7bf59184ee0cffb19d355b164eaf4526e6fe68823e74",
    ("nsm", 0.25): "ebe966785908acff13dbb2ce3de5664e6513687d186bc8ca709840ef75624eb6",
    ("nsm", 0.35): "5bba36fa6571de40f1c0bef97dde934274e186ce5db9213f9d7d27deb47638d1",
    ("nsm", 0.45): "179abbb9ca4a50584559fb71bcb0cbb66b28cce3275118ad569e483f4b9aa333",
}


@pytest.mark.parametrize("strategy,alpha", sorted(RENEWAL_PINS))
def test_renewal_estimate_is_unchanged(strategy, alpha):
    text = repr(mc_revenue_renewal(strategy, alpha, 3000, seed=7))
    assert hashlib.sha256(text.encode()).hexdigest() == RENEWAL_PINS[strategy, alpha], text


@pytest.mark.parametrize("count", [0, -5])
def test_renewal_rejects_an_empty_cycle_count(count):
    with pytest.raises(DomainError, match="cycles"):
        mc_revenue_renewal("sm", 0.3, count)


@pytest.mark.parametrize("rounds,games", [(0, 4), (-1, 4), (10, 0), (10, -2)])
def test_liminf_rejects_an_empty_count(rounds, games):
    with pytest.raises(DomainError, match="rounds" if rounds < 1 else "games"):
        mc_revenue_liminf("sm", 0.3, rounds, games, threads=1)
