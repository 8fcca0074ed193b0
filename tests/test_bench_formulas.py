"""The benchmark's hand-derived round counts against played cycles: the
bench credits each renewal op with ``expected_cycle_rounds`` rounds a
cycle and each ``mc_value`` op with ``lead_value``'s mean rounds an
episode, so a slip in either skews its ``rounds_per_s``.  Each cell plays
stepper cycles on its own seed and must land within 4 standard errors."""

import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from posmine.strategies import StockStepper, iter_cycles, make_strategy

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

SAMPLES = 200_000


def within_4_stderr(lengths, expect):
    n = len(lengths)
    mean = sum(lengths) / n
    var = sum((x - mean) ** 2 for x in lengths) / (n - 1)
    z = (mean - expect) / math.sqrt(var / n)
    assert abs(z) <= 4.0, f"mean {mean!r} vs {expect!r}: z {z:.2f}"


@pytest.mark.parametrize(
    "seed, strategy, alpha",
    [(seed, *params) for seed, (kind, params) in enumerate(workloads.RENEWAL_CELLS, 101)
     if kind == "renewal"],
)
def test_expected_cycle_rounds_match_played_cycles(seed, strategy, alpha):
    cycles = iter_cycles(make_strategy(strategy), alpha, seed)
    lengths = [next(cycles).rounds for _ in range(SAMPLES)]
    within_4_stderr(lengths, workloads.expected_cycle_rounds(strategy, alpha))


@pytest.mark.parametrize(
    "seed, strategy, lead, alpha, lam",
    [(seed, *params) for seed, (kind, params) in enumerate(workloads.RENEWAL_CELLS, 201)
     if kind == "value"],
)
def test_lead_value_rounds_match_played_episodes(seed, strategy, lead, alpha, lam):
    rand = random.Random(seed).random
    lengths = []
    for _ in range(SAMPLES):
        stepper = StockStepper(strategy)
        stepper.node, stepper.held = "lead", lead
        rounds = 1
        while stepper.step(rand() < alpha) is None:
            rounds += 1
        lengths.append(rounds)
    within_4_stderr(lengths, workloads.lead_value(lead, alpha, lam)[1])
