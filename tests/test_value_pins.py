"""Engine episodes pinned by sha256: `mc_value`'s (estimate, stderr) on the
renewal bench's two value cells (sm from a 2-block lead at stake 0.35,
lambda 0.3; nsm from a 3-block lead at stake 0.30, lambda 0.5; 1500
episodes, seeds 1-3), and a scripted `run_game` trace whose moves are
explicit `PublishSet`s (forks, a publish onto a side branch, a two-block
path onto an old chain block), a `Publish` and a `PublishPath`, across two
settles.  Recorded before the publish and settle fast paths, so any change
they make to an episode, a tie-break or a settle fails here."""

import hashlib

import pytest

from posmine.analysis import mc_value
from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    WAIT,
    Publish,
    PublishPath,
    PublishSet,
    begin_round,
    format_statefile,
    initial_state,
)
from posmine.strategies import Scripted, format_action, run_game

EPISODES = 1500

# (strategy, lead, alpha, lambda, seed) -> sha256 of "<estimate hex> <stderr hex>"
VALUE = {
    ("sm", 2, 0.35, 0.3, 1): "7243ee91ebc85a959c5ae0329e1ad4d518f4c8553a89e2e51f22cad2f26a028f",
    ("sm", 2, 0.35, 0.3, 2): "cc7bb72d7adc6ffac6cb3294a8805f44fa5c6348e86c5e2250e6e60ff2ef0fdc",
    ("sm", 2, 0.35, 0.3, 3): "53b38cbc16f09980b60dd0979febdd569b768c153451ea0b3839cad27d9f7621",
    ("nsm", 3, 0.30, 0.5, 1): "6e22888c1a8d3b3cbc24dce43052eae5923356c6f328ccad4319fc85c90a85fc",
    ("nsm", 3, 0.30, 0.5, 2): "ca95200eae4efc738e0193b4b3b6c0340599092e757991f555a3838b7824397b",
    ("nsm", 3, 0.30, 0.5, 3): "2d5bde789b681f1779783fb4bd6979c0a410918747616a9b5b71f1c84c6473d5",
}


def lead_start(k: int):
    state = initial_state()
    for _ in range(k):
        begin_round(state, MINER1)
    return state


@pytest.mark.parametrize("strategy,k,alpha,lam,seed", sorted(VALUE))
def test_value_episodes_are_pinned(strategy, k, alpha, lam, seed):
    v = mc_value(strategy, lead_start(k), lam, alpha, EPISODES, seed=seed)
    text = f"{v.estimate.hex()} {v.stderr.hex()}"
    assert hashlib.sha256(text.encode()).hexdigest() == VALUE[(strategy, k, alpha, lam, seed)]


CREATORS = [MINER1, MINER1, MINER2, MINER1, MINER2, MINER1, MINER2, MINER2, MINER1, MINER1,
            MINER1, MINER2, MINER1, MINER2, MINER1, MINER2]
MOVES = [
    # 1 <- 2 and 1 <- 4: a fork of Miner 1's own; 2 ties Miner 2's 3 first
    (4, PublishSet(frozenset({1, 2, 4}), ((1, GENESIS), (2, 1), (4, 1))), False),
    (6, PublishSet(frozenset({6}), ((6, 4),)), False),  # onto the side branch, ties 5
    (9, WAIT, False),
    (10, PublishSet(frozenset({9, 10}), ((9, 7), (10, 9))), True),  # onto an old chain block
    (13, Publish(2, GENESIS), False),
    (15, PublishPath(frozenset({15}), 14), True),
]
SCRIPT_TRACE = "19f07f973614bd638484a569732f3b03c57808e41dcedc6ceea6b7deae69c5f7"


def test_scripted_publish_set_trace_is_pinned():
    trace = run_game(Scripted(MOVES), 0.3, len(CREATORS), creators=CREATORS)
    lines = [
        f"{c} {format_action(a)} {b} {cap} {tip} {h} {r1} {r2}"
        for c, a, b, cap, tip, h, r1, r2 in zip(
            trace.creators, trace.m1_actions, trace.m2_bases, trace.cap_flags,
            trace.tips, trace.heights, trace.r1, trace.r2,
        )
    ]
    text = "\n".join(lines) + "\n" + format_statefile(trace.final_state)
    assert hashlib.sha256(text.encode()).hexdigest() == SCRIPT_TRACE
