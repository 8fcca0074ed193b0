"""The round engine as the one round loop: observer hooks, trace replay
through it, the shared creator stream, and the publication record."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from posmine.analysis import potential_reward_decay_check
from posmine.blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    WAIT,
    PublishPath,
    apply_action,
    canonical_equal,
    capitulate,
    format_statefile,
    initial_state,
)
from posmine.strategies import Engine, Scripted, make_strategy, run_game, run_totals
from posmine.structure import ReplayDiverged, TraceLengthMismatch, replay_trace
from conftest import play_rounds

M1, M2 = MINER1, MINER2
SRC = Path(__file__).resolve().parent.parent / "src"


class Recorder:
    """Observer that logs every hook call."""

    def __init__(self):
        self.calls = []

    def half(self, state, creator, block, action):
        self.calls.append(("half", block, action))

    def round_end(self, state, new_blocks, settled, round_no):
        self.calls.append(("end", round_no, list(new_blocks), settled, state.tip()))

    def capitulated(self, state):
        self.calls.append(("cap", state.offset))


def test_engine_calls_each_hook_in_round_order():
    overtake = PublishPath(frozenset({1, 3}), GENESIS)
    rec = Recorder()
    eng = Engine(Scripted([(3, overtake, True)]), observers=[rec])
    for c in (M1, M2, M1):
        eng.play(c)
    assert rec.calls == [
        ("half", 1, WAIT),
        ("end", 1, [], False, GENESIS),
        ("half", 2, WAIT),
        ("end", 2, [2], False, 2),
        ("half", 3, overtake),
        ("end", 3, [1, 3], True, 3),
        ("cap", 3),
    ]


def test_a_script_played_from_a_start_state_moves_at_its_labelled_rounds():
    # Miner 1 holds blocks 1 and 2; the script's round-1 move is already past,
    # its round-4 overtake and its round-5 move after that settle still land
    held = Engine(Scripted([]))
    held.play(M1)
    held.play(M1)
    overtake = PublishPath(frozenset({1, 2, 4}), GENESIS)
    after = PublishPath(frozenset({5}), GENESIS)
    script = Scripted([(1, WAIT, False), (4, overtake, True), (5, after, True)])
    eng = Engine(script, state=held.state.clone())
    assert eng.play(M2) == (WAIT, GENESIS, 0, 1, False)
    assert eng.play(M1) == (overtake, -1, 3, -1, True)
    assert eng.play(M1) == (after, -1, 1, 0, True)
    assert (eng.t1_total(), eng.t2_total(), eng.caps) == (4, 0, 2)


def test_observers_without_hooks_are_ignored():
    creators = [M1, M2, M1, M2, M2]
    eng = Engine(make_strategy("sm"), observers=[object()])
    for c in creators:
        eng.play(c)
    bare = run_totals(make_strategy("sm"), 0.3, len(creators), creators=creators)
    assert (eng.t1_total(), eng.t2_total(), eng.caps) == (bare.t1, bare.t2, bare.caps)


def test_replay_feeds_observers_the_recorded_game():
    tr = run_game(make_strategy("nsm"), 0.45, 300, seed=2)
    rec = Recorder()
    final = replay_trace(tr, [rec])
    ends = [c for c in rec.calls if c[0] == "end"]
    assert [c[1] for c in ends] == list(range(1, 301))
    assert [c[3] for c in ends] == tr.cap_flags
    assert sum(1 for c in rec.calls if c[0] == "cap") == sum(tr.cap_flags)
    assert final.round == 300


def test_replay_names_the_round_that_diverged():
    tr = run_game(make_strategy("sm"), 0.35, 200, seed=7)
    tr.heights[99] += 1
    with pytest.raises(ReplayDiverged) as err:
        replay_trace(tr, [])
    assert err.value.round == 100
    assert err.value.expected == tr.heights[99]
    assert err.value.actual == tr.heights[99] - 1
    assert "round 100" in str(err.value)


@pytest.mark.parametrize(
    "edit, lengths",
    [
        (lambda tr: tr.creators.append(M1), "creators 51, m1_actions 50, cap_flags 50, heights 50"),
        (lambda tr: tr.heights.pop(), "creators 50, m1_actions 50, cap_flags 50, heights 49"),
        (lambda tr: tr.creators.pop(), "creators 49, m1_actions 50, cap_flags 50, heights 50"),
    ],
    ids=["extra-creator", "short-heights", "extra-moves"],
)
def test_replay_rejects_lists_of_unequal_length(edit, lengths):
    tr = run_game(make_strategy("sm"), 0.35, 50, seed=7)
    edit(tr)
    with pytest.raises(TraceLengthMismatch, match=lengths):
        replay_trace(tr, [])


def test_replay_divergence_survives_optimised_python():
    code = (
        "from posmine.strategies import make_strategy, run_game\n"
        "from posmine.structure import ReplayDiverged, replay_trace\n"
        "tr = run_game(make_strategy('sm'), 0.35, 200, seed=7)\n"
        "tr.heights[99] += 1\n"
        "try:\n"
        "    replay_trace(tr, [])\n"
        "except ReplayDiverged as e:\n"
        "    print(e.round)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "100"


@pytest.mark.parametrize(
    "run",
    [
        lambda creators: run_game(make_strategy("sm"), 0.3, 5, creators=creators),
        lambda creators: run_totals(make_strategy("sm"), 0.3, 5, creators=creators),
        lambda creators: potential_reward_decay_check("sm", 0.3, 5, creators=creators),
    ],
    ids=["run_game", "run_totals", "decay_check"],
)
def test_short_creator_lists_name_both_counts(run):
    with pytest.raises(ValueError, match="2 creators given, 5 needed"):
        run([M1, M2])


def test_publication_rank_keeps_increasing_across_a_settle():
    # Miner 2 owns 0-1-2; Miner 1 publishes 4 on 2, settles at height 1
    # mid-round, then publishes 3 on 2 in the same round: 3 ties 4 on
    # height and has the smaller label, but 4 was published first
    st = play_rounds(initial_state(), [M2, M2, M1, M1])
    apply_action(st, M1, PublishPath(frozenset({4}), 2), in_place=True)
    st = capitulate(st, 1)
    apply_action(st, M1, PublishPath(frozenset({3}), 2), in_place=True)
    assert st.tip() == 4
    resettled = capitulate(st, 0)
    assert resettled.tip() == 4
    assert canonical_equal(st, resettled)
    assert canonical_equal(st, st.clone())
    assert "block 3 creator 1 parent 2 published 4" in format_statefile(st)

