"""Golden witnesses: the classifiers and monitors must keep naming the same
violations.  The stock strategies satisfy every property, so their games
never reach a witness path; the racer test doubles break five of the six
properties on every seed, the ladder racer also trips the fork-ownership
monitor, and one scripted tie-loss gives the timeserving witness.  The
reductions are pinned on the same racers: what they emit, and the heights
and rewards that follow."""

import hashlib

from posmine.blocktree import GENESIS, MINER1, MINER2, WAIT, BlockTreeError, PublishPath
from posmine.reductions import lcm_reduce, lcm_step_reduce, orderly_reduce
from posmine.strategies import Scripted, format_action, run_game
from posmine.structure import (
    checkpoint_override_check,
    classify_trace,
    fork_ownership_check,
)
from conftest import LadderRacer, TopHeavyRacer

M1, M2 = MINER1, MINER2

# sha256 over every property's (round, detail) witnesses and both monitors'
# checked / violations / skipped, for the games below.  Any change to a
# verdict, to a witness's round or label, or to what the monitors count
# fails here.
GOLDEN_WITNESSES = "a8b4e03746327445c8c226980ffeab082bf2352d2479cbe12f1d4e1f8390a408"

# sha256 over each reduced racer game's Miner-1 actions, heights and
# Miner-1 rewards (or the error it stops with).
GOLDEN_REDUCED = "17f1d97e3001ee498374b3dcc4e27c56d118f8a2f99d4a4b900a7cee3b841643"

REDUCTIONS = {
    "orderly": orderly_reduce,
    "lcm": lambda inner: lcm_reduce(inner, horizon=1500),
    "lcm-700": lambda inner: lcm_reduce(inner, horizon=700),
    # the ladder racer's first dead-base hops are in rounds 36 (seed 1)
    # and 25 (seed 2)
    "lcm-step-35": lambda inner: lcm_step_reduce(inner, step_round=35),
    "lcm-step-24": lambda inner: lcm_step_reduce(inner, step_round=24),
}


def _games():
    for racer in (LadderRacer, TopHeavyRacer):
        for seed in (1, 2):
            yield f"{racer.name} seed {seed}", run_game(racer(), 0.4, 1500, seed=seed)
    # Miner 1 matches Miner 2's height 1 from genesis and loses the tie
    moves = [(2, PublishPath(frozenset({1}), GENESIS), False), (4, WAIT, True)]
    yield "tie-loss", run_game(Scripted(moves), 0.3, 4, creators=[M1, M2, M1, M2])


def _lines():
    for game, trace in _games():
        yield f"game {game}"
        for prop, verdict in classify_trace(trace).as_dict().items():
            yield f"{prop} holds={verdict.holds}"
            for w in verdict.violations:
                yield f"{prop} {w.round} {w.detail}"
        for name, report in (
            ("fork_ownership", fork_ownership_check(trace)),
            ("checkpoint_override", checkpoint_override_check(trace)),
        ):
            yield f"{name} holds={report.holds} checked={report.checked}"
            for w in report.violations:
                yield f"{name} violation {w.round} {w.detail}"
            for w in report.skipped:
                yield f"{name} skipped {w.round} {w.detail}"


def test_witnesses_are_unchanged():
    lines = list(_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_WITNESSES


def test_the_golden_games_reach_the_witness_paths():
    lines = list(_lines())
    hit = {line.split()[0] for line in lines if "holds=False" in line}
    assert hit == {
        "timeserving", "orderly", "lcm", "trimmed", "opportunistic",
        "checkpoint_recurrent", "fork_ownership",
    }
    assert any(line.startswith("checkpoint_override skipped") for line in lines)


def test_reduced_games_are_unchanged():
    h = hashlib.sha256()
    for racer in (LadderRacer, TopHeavyRacer):
        for seed in (1, 2):
            for kind in sorted(REDUCTIONS):
                h.update(f"{racer.name} {seed} {kind}\n".encode())
                try:
                    tr = run_game(REDUCTIONS[kind](racer()), 0.4, 1500, seed=seed)
                except BlockTreeError as e:
                    # the step reduction keeps the hop's blocks verbatim, and
                    # two of these re-bases land on a later-labelled block
                    h.update(f"{type(e).__name__}: {e}\n".encode())
                    continue
                h.update(" ".join(map(format_action, tr.m1_actions)).encode())
                h.update(f"\n{tr.heights}\n{tr.r1}\n".encode())
    assert h.hexdigest() == GOLDEN_REDUCED
