"""Contracts that hold whatever the interpreter flags: the safe-lift check
rejects a Wait with ValueError, the reduction coupling checks raise a typed
error that survives ``python -O``, and a played game keeps its final state."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from posmine.blocktree import WAIT, PublishPath, canonical_equal
from posmine.strategies import make_strategy, run_game
from posmine.structure import is_safe_lift, replay_trace

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("which", ["original", "lifted"])
def test_safe_lift_rejects_a_wait(example_fig_state, which):
    publish = PublishPath(frozenset({2}), 1)
    original, lifted = (WAIT, publish) if which == "original" else (publish, WAIT)
    with pytest.raises(ValueError, match="path-shaped"):
        is_safe_lift(example_fig_state, original, lifted)


def test_coupling_checks_survive_optimised_python():
    code = (
        "from posmine.blocktree import MINER1, MINER2, begin_round, initial_state\n"
        "from posmine.reductions import CouplingBroken, SigmaMap, _check_sigma_coupling\n"
        "s = SigmaMap()\n"
        "s.set(3, 5)\n"
        "s.set(4, 5)\n"
        "try:\n"
        "    s.check_bijection()\n"
        "except CouplingBroken as e:\n"
        "    print(e)\n"
        "shadow, real = initial_state(), initial_state()\n"
        "n = begin_round(shadow, MINER2)\n"
        "shadow._publish_one(n, 0)\n"
        "begin_round(real, MINER1)\n"
        "try:\n"
        "    _check_sigma_coupling(SigmaMap(), shadow, real)\n"
        "except CouplingBroken as e:\n"
        "    print(e)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "sigma lost injectivity",
        "sigma(1)=1 not published in the real game",
    ]


def test_a_game_keeps_the_state_it_ended_in():
    tr = run_game(make_strategy("nsm"), 0.45, 500, seed=3)
    assert canonical_equal(tr.final_state, replay_trace(tr, []))
    assert tr.final_state.round == 500
