"""The stock strategies' node rules, pinned through the engine.

The strategy classes and ``StockStepper`` play one rule set, so the
engine-versus-stepper tests no longer check the rules independently.  This
pin does: the full ``run_game`` trace of every creator sequence of 1-10
rounds, for frontier, sm and nsm, hashed with sha256.  It also covers the
typed guard a won settle raises when the held blocks do not match the
stepper."""

import hashlib
from itertools import product

import pytest

from posmine.blocktree import MINER1, MINER2, begin_round
from posmine.strategies import (
    Engine,
    Frontier,
    PatientWithholdOvertake,
    UnreachableState,
    WithholdOvertake,
    format_action,
    run_game,
)

M1, M2 = MINER1, MINER2

# sha256 over the traces below, recorded before the classes ran the stepper.
TRACE_PINS = {
    "frontier": "e35c2f8ab04ce7a228e9bf7ff771dc06bbd0fc8d99f80b0519a216938f1158ff",
    "sm": "e440009062549be2b42d7a0c466fc664a3217911a0e5a837a32bc8f77442b75f",
    "nsm": "ace7f2ad0c90f066bae0d9ad2a670e577ffe1162dcb60f5df89994bf85abfd06",
}

STRATEGIES = {"frontier": Frontier, "sm": WithholdOvertake, "nsm": PatientWithholdOvertake}


def _trace_lines(cls):
    strategy = cls()
    for rounds in range(1, 11):
        for creators in product((M1, M2), repeat=rounds):
            tr = run_game(strategy, 0.3, rounds, creators=list(creators))
            yield "".join(map(str, creators))
            yield " ".join(map(format_action, tr.m1_actions))
            for name in ("cap_flags", "heights", "r1", "r2", "tips"):
                yield f"{name} {getattr(tr, name)}"


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_every_short_game_is_unchanged(name):
    digest = hashlib.sha256("\n".join(_trace_lines(STRATEGIES[name])).encode()).hexdigest()
    assert digest == TRACE_PINS[name]


def test_a_foreign_held_block_breaks_a_won_settle():
    eng = Engine(WithholdOvertake())
    eng.play(M1)
    eng.play(M1)
    begin_round(eng.state, M1)  # an own block the strategy never saw
    with pytest.raises(UnreachableState):
        eng.play(M2)
