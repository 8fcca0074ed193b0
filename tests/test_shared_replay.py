"""The three trace checks share one replay per trace: it runs once, its
reports match the checks' own replays, it is redone when the trace changes,
and no caller sees another caller's report."""

import pytest

from posmine import structure
from posmine.strategies import make_strategy, run_game
from posmine.structure import (
    ReplayDiverged,
    TraceLengthMismatch,
    checkpoint_override_check,
    classify_trace,
    fork_ownership_check,
)
from conftest import LadderRacer

CHECKS = (
    (classify_trace, "props"),
    (fork_ownership_check, "fork"),
    (checkpoint_override_check, "override"),
)


@pytest.fixture
def replays(monkeypatch):
    """Count calls to the module's `replay_trace`, as the checks look it up."""
    calls = []
    original = structure.replay_trace

    def counting(trace, observers):
        calls.append(trace)
        return original(trace, observers)

    monkeypatch.setattr(structure, "replay_trace", counting)
    return calls


def test_the_three_checks_replay_a_trace_once(replays):
    tr = run_game(make_strategy("nsm"), 0.45, 600, seed=3)
    classify_trace(tr)
    fork_ownership_check(tr)
    checkpoint_override_check(tr)
    classify_trace(tr)
    assert replays == [tr]


def test_each_trace_gets_its_own_replay(replays):
    a = run_game(make_strategy("sm"), 0.35, 300, seed=1)
    b = run_game(make_strategy("sm"), 0.35, 300, seed=1)
    assert a == b
    fork_ownership_check(a)
    fork_ownership_check(b)
    assert len(replays) == 2


@pytest.mark.parametrize("seed", [1, 2])
def test_shared_reports_equal_each_checks_own_replay(seed):
    # the ladder racer breaks five properties and trips the fork monitor
    tr = run_game(LadderRacer(), 0.4, 800, seed=seed)
    for check, name in CHECKS:
        own = structure._Audit((name,))
        structure.replay_trace(tr, [own])
        assert check(tr) == getattr(own, name)


def test_an_edited_trace_is_replayed_again():
    tr = run_game(make_strategy("sm"), 0.35, 200, seed=7)
    classify_trace(tr)
    tr.heights[99] += 1
    with pytest.raises(ReplayDiverged) as err:
        fork_ownership_check(tr)
    assert err.value.round == 100
    tr.heights[99] -= 1
    assert fork_ownership_check(tr).holds


def test_an_edit_to_any_replayed_list_is_seen(replays):
    tr = run_game(make_strategy("nsm"), 0.45, 300, seed=5)
    first = classify_trace(tr)
    for name in ("creators", "m1_actions", "cap_flags", "heights"):
        replayed = len(replays)
        getattr(tr, name).append(getattr(tr, name)[-1])
        with pytest.raises(TraceLengthMismatch):  # one list is now one entry longer
            classify_trace(tr)
        getattr(tr, name).pop()
        assert len(replays) > replayed, name
    assert classify_trace(tr) == first


def test_returned_reports_are_not_shared():
    tr = run_game(LadderRacer(), 0.4, 800, seed=1)
    first = classify_trace(tr)
    assert first.lcm.violations
    n = len(first.lcm.violations)
    first.lcm.violations.clear()
    first.lcm.holds = True
    second = classify_trace(tr)
    assert len(second.lcm.violations) == n and not second.lcm.holds
    fork = fork_ownership_check(tr)
    fork.violations.append(fork.violations[0])
    fork.checked = -1
    again = fork_ownership_check(tr)
    assert again.checked > 0 and len(again.violations) == len(fork.violations) - 1


def test_a_failing_shared_replay_leaves_each_check_its_own_outcome(monkeypatch):
    tr = run_game(make_strategy("nsm"), 0.45, 400, seed=2)
    want = fork_ownership_check(tr)
    tr._checks = None

    def broken(self, *args):
        raise RuntimeError("classifier observer broke")

    monkeypatch.setattr(structure._Audit, "_classify", broken)
    assert fork_ownership_check(tr) == want
    assert checkpoint_override_check(tr).holds
    with pytest.raises(RuntimeError, match="classifier observer broke"):
        classify_trace(tr)
