"""Miner-1 strategies and the round-by-round game engine.

A strategy is an object with ``reset()`` and ``decide(half) -> StrategyDecision``;
the decision carries the action plus a flag telling the engine to lock in the
current chain and restart from a fresh single-genesis state (the strategy is
declaring the position settled).  The engine keeps absolute block labels and
accumulates locked chain counts across those restarts, so total revenue
``r1_total / height_total`` is exact over the whole run.  The engine is the
package's only round loop: trace replay (``structure.replay_trace``) drives
it with a :class:`Scripted` strategy and observer hooks.

Strategies included: the frontier policy (publish immediately, always
capitulate), withhold-and-overtake (hold a private lead, publish it all when
Miner 2 gets within one), its patient variant (when a 1-block race is lost,
keep going for a deeper double-or-nothing fork), and scripted replay.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .blocktree import (
    GENESIS,
    MINER1,
    MINER2,
    WAIT,
    Action,
    BlockTreeError,
    GameState,
    HalfState,
    InvalidAction,
    PublishPath,
    PublishSet,
    Wait,
    attach_action,
    begin_round,
    capitulate,
    initial_state,
    validate_action,
)

__all__ = [
    "StrategyDecision",
    "UnreachableState",
    "ScriptError",
    "ScriptExhaustedMismatch",
    "Frontier",
    "WithholdOvertake",
    "PatientWithholdOvertake",
    "Scripted",
    "frontier_decide",
    "make_strategy",
    "parse_script",
    "format_action",
    "Engine",
    "Trace",
    "GameTotals",
    "CycleStats",
    "run_game",
    "run_totals",
    "iter_cycles",
    "derive_seed",
]


@dataclass(frozen=True)
class StrategyDecision:
    """Miner 1's move plus whether the position is settled afterwards."""

    action: Action
    capitulate_to_b0: bool = False


# Decisions are frozen, so rounds without a move can share one.
_NO_MOVE = StrategyDecision(WAIT, False)


class UnreachableState(BlockTreeError):
    """A strategy was asked to act from a position it can never be in."""


class ScriptError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ScriptExhaustedMismatch(BlockTreeError):
    """A scripted action did not fit the game it was replayed into."""


# ---------------------------------------------------------------------------
# strategies


def frontier_decide(half: HalfState, miner: int = MINER1) -> StrategyDecision:
    """Publish the round's block on the tip if it is ours; always settle."""
    if half.creator != miner:
        return StrategyDecision(WAIT, True)
    base = half.state.tip()
    return StrategyDecision(PublishPath(frozenset({half.block}), base), True)


class Frontier:
    """The always-publish policy for Miner 1."""

    name = "frontier"

    def reset(self) -> None:
        pass

    def attach(self, state: GameState) -> None:
        if state.unpublished_1:
            raise UnreachableState("frontier never withholds")

    def decide(self, half: HalfState) -> StrategyDecision:
        return frontier_decide(half, MINER1)


class WithholdOvertake:
    """Hold a private lead; publish everything once Miner 2 is within one.

    Cycle shape: wait for an own block (else settle), try to grow the lead
    to two.  With a lead of k >= 2, wait until Miner 2 has published k-1
    blocks, then publish all k held blocks as one path from the cycle base,
    overtaking by one, and settle.  A 1-block race (one held block, one
    Miner-2 block) is decided by the next creation: ours -> publish both
    own blocks and win; theirs -> abandon and settle.
    """

    name = "sm"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.node = "start"
        self.base = GENESIS  # block the private lead forks from
        self.held: list[int] = []
        self.opp = 0  # Miner-2 blocks published since the lead began
        self.opp_tip = GENESIS  # newest Miner-2 chain block during a race

    def attach(self, state: GameState) -> None:
        """Adopt a position this strategy could have reached on its own."""
        self.reset()
        held = sorted(state.unpublished_1)
        depth = state.tip_height()
        if not held:
            if depth == 0:
                self.base = state.tip()
                return
            raise UnreachableState("published chain but nothing held")
        if depth == 0:
            self.base = state.tip()
            self.held = held
            self.node = "hold1" if len(held) == 1 else "lead"
            return
        if depth == 1 and len(held) == 1 and state.creator[state.tip()] == MINER2:
            self.opp_tip = state.tip()
            self.base = state.parent[self.opp_tip]
            self.held = held
            self.node = "race"
            return
        raise UnreachableState(f"cannot adopt {state!r}")

    def _check(self, half: HalfState) -> None:
        live = {b for b in half.state.unpublished_1 if b > self.base}
        expect = set(self.held)
        if half.creator == MINER1:
            expect.add(half.block)
        if live != expect:
            raise UnreachableState(f"held blocks {sorted(live)} do not match memory {sorted(expect)}")

    def decide(self, half: HalfState) -> StrategyDecision:
        self._check(half)
        mine = half.creator == MINER1
        n = half.block
        if self.node == "start":
            if mine:
                self.base = half.state.tip()
                self.held = [n]
                self.node = "hold1"
                return StrategyDecision(WAIT, False)
            return StrategyDecision(WAIT, True)
        if self.node == "hold1":
            if mine:
                self.held.append(n)
                self.node = "lead"
                self.opp = 0
                return StrategyDecision(WAIT, False)
            self.node = "race"
            self.opp_tip = n
            return StrategyDecision(WAIT, False)
        if self.node == "lead":
            if mine:
                self.held.append(n)
                return StrategyDecision(WAIT, False)
            self.opp += 1
            if self.opp == len(self.held) - 1:
                blocks = frozenset(self.held)
                base = self.base
                self.reset()
                return StrategyDecision(PublishPath(blocks, base), True)
            return StrategyDecision(WAIT, False)
        if self.node == "race":
            return self._race(half)
        raise UnreachableState(f"unknown node {self.node!r}")

    def _race(self, half: HalfState) -> StrategyDecision:
        if half.creator == MINER1:
            blocks = frozenset(self.held + [half.block])
            base = self.base
            self.reset()
            return StrategyDecision(PublishPath(blocks, base), True)
        self.reset()
        return StrategyDecision(WAIT, True)


class PatientWithholdOvertake(WithholdOvertake):
    """Withhold-and-overtake that does not fold a lost 1-block race.

    Where the plain strategy settles as soon as Miner 2 extends its race
    block, this variant stalls one more round hoping for a deeper 2-vs-2
    fork: a second own block re-arms the race, and if Miner 2 then goes a
    block deeper still, the fight restarts one level up (the oldest held
    block is written off silently; it gets swept at the next settle).
    """

    name = "nsm"

    def _race(self, half: HalfState) -> StrategyDecision:
        if half.creator == MINER1:
            return super()._race(half)
        self.node = "stall"
        self.opp_tip = half.block
        return StrategyDecision(WAIT, False)

    def decide(self, half: HalfState) -> StrategyDecision:
        if self.node == "stall":
            self._check(half)
            if half.creator == MINER1:
                self.held.append(half.block)
                self.node = "double"
                return StrategyDecision(WAIT, False)
            self.reset()
            return StrategyDecision(WAIT, True)
        if self.node == "double":
            self._check(half)
            if half.creator == MINER1:
                blocks = frozenset(self.held + [half.block])
                base = self.base
                self.reset()
                return StrategyDecision(PublishPath(blocks, base), True)
            # Miner 2 went three deep: restart the race one level up,
            # writing off the oldest held block.
            self.base = self.opp_tip
            self.held = self.held[1:]
            self.opp_tip = half.block
            self.node = "race"
            return StrategyDecision(WAIT, False)
        return super().decide(half)


class Scripted:
    """Replay a fixed list of (round, action, settle) moves; Wait otherwise."""

    def __init__(self, moves: list[tuple[int, Action, bool]], name: str = "scripted"):
        rounds = [r for r, _, _ in moves]
        if rounds != sorted(set(rounds)):
            raise ValueError("script rounds must be strictly increasing")
        self.moves = list(moves)
        self.name = name
        self.reset()

    def reset(self) -> None:
        self._next = 0

    def decide(self, half: HalfState) -> StrategyDecision:
        if self._next < len(self.moves) and self.moves[self._next][0] == half.block:
            _, action, settle = self.moves[self._next]
            self._next += 1
            if not isinstance(action, Wait):
                try:
                    validate_action(half.state, MINER1, action)
                except InvalidAction as e:
                    raise ScriptExhaustedMismatch(
                        f"scripted action {action!r} is invalid at round {half.block}: {e}"
                    ) from e
            return StrategyDecision(action, settle)
        return _NO_MOVE


def parse_script(text: str) -> list[tuple[int, Action, bool]]:
    """Parse a script file: '<round> wait [cap]' or
    '<round> publish <b1>,<b2>,... -> <base> [cap]' per line."""
    moves: list[tuple[int, Action, bool]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            rnd = int(parts[0])
        except ValueError:
            raise ScriptError(i, f"expected a round number, got {parts[0]!r}") from None
        cap = False
        if parts and parts[-1] == "cap":
            cap = True
            parts = parts[:-1]
        if len(parts) == 2 and parts[1] == "wait":
            moves.append((rnd, WAIT, cap))
            continue
        if len(parts) == 5 and parts[1] == "publish" and parts[3] == "->":
            try:
                blocks = frozenset(int(b) for b in parts[2].split(","))
                base = int(parts[4])
            except ValueError:
                raise ScriptError(i, "blocks and base must be integers") from None
            moves.append((rnd, PublishPath(blocks, base), cap))
            continue
        raise ScriptError(i, "expected '<round> wait [cap]' or '<round> publish <blocks> -> <base> [cap]'")
    try:
        return Scripted(moves).moves
    except ValueError as e:
        raise ScriptError(0, str(e)) from None


def make_strategy(spec: str):
    """Build a strategy from its name: frontier | sm | nsm | scripted:@file."""
    if spec == "frontier":
        return Frontier()
    if spec == "sm":
        return WithholdOvertake()
    if spec == "nsm":
        return PatientWithholdOvertake()
    if spec.startswith("scripted:@"):
        path = spec[len("scripted:@"):]
        with open(path) as f:
            return Scripted(parse_script(f.read()), name=f"scripted:{path}")
    raise ValueError(f"unknown strategy {spec!r} (have frontier, sm, nsm, scripted:@file)")


def format_action(action: Action) -> str:
    if isinstance(action, Wait):
        return "wait"
    if isinstance(action, PublishPath):
        return "publish:{}->{}".format(",".join(map(str, sorted(action.blocks))), action.base)
    if isinstance(action, PublishSet):
        return "publishset:" + ";".join(f"{v}->{t}" for v, t in action.edges)
    return repr(action)


# ---------------------------------------------------------------------------
# engine


def derive_seed(seed: int, index: int) -> int:
    """Stable per-game seed stream, independent of worker scheduling."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).hexdigest()
    return int(digest[:16], 16)


class Engine:
    """Drives one game: creator draw, Miner 2's frontier move, Miner 1's move.

    Chain counts locked at capitulation are accumulated, so ``t1_total`` /
    ``height_total`` give exact whole-game figures while the live state
    stays small.

    Each observer may define any of three hooks, looked up once here:
    ``half(state, creator, block, action)`` sees Miner 1's chosen action
    before it is applied; ``round_end(state, new_blocks, settled, round)``
    sees the finished round before any settle, with the blocks published
    in it in publication order; ``capitulated(state)`` sees the fresh
    state after a settle.
    """

    __slots__ = (
        "state", "strategy", "locked_t1", "locked_t2", "locked_h", "caps",
        "_half_hooks", "_end_hooks", "_cap_hooks",
    )

    def __init__(self, strategy, state: Optional[GameState] = None, observers=()):
        if state is None:
            strategy.reset()
            self.state = initial_state()
        else:
            self.state = state
            strategy.attach(state)
        self.strategy = strategy
        self.locked_t1 = 0
        self.locked_t2 = 0
        self.locked_h = 0
        self.caps = 0
        self._half_hooks = _hooks(observers, "half")
        self._end_hooks = _hooks(observers, "round_end")
        self._cap_hooks = _hooks(observers, "capitulated")

    # totals including locked prefix
    def t1_total(self) -> int:
        return self.locked_t1 + self.state.chain_owned(MINER1)

    def t2_total(self) -> int:
        return self.locked_t2 + self.state.chain_owned(MINER2)

    def height_total(self) -> int:
        return self.locked_h + self.state.tip_height()

    def play(self, creator: int) -> tuple[Action, int, int, int, bool]:
        """One round; returns (miner1 action, m2 base or -1, r1, r2, settled)."""
        st = self.state
        t1b = st.chain_owned(MINER1)
        hb = st.tip_height()
        n = begin_round(st, creator)
        m2_base = -1
        if creator == MINER2:
            m2_base = st.tip()
            st._publish_one(n, m2_base)
        dec = self.strategy.decide(HalfState(st, creator, n))
        action, settled = dec.action, dec.capitulate_to_b0
        for hook in self._half_hooks:
            hook(st, creator, n, action)
        published = ()
        if not isinstance(action, Wait):
            published = attach_action(st, MINER1, action).blocks
        # Miner 2's chain count is the chain height minus Miner 1's.
        t1, h = st.chain_owned(MINER1), st.tip_height()
        r1 = t1 - t1b
        r2 = h - hb - r1
        if self._end_hooks:
            new_blocks = ([n] if creator == MINER2 else []) + sorted(published)
            for hook in self._end_hooks:
                hook(st, new_blocks, settled, n)
        if settled:
            self.locked_t1 += t1
            self.locked_t2 += h - t1
            self.locked_h += h
            self.state = capitulate(st, h)
            self.caps += 1
            for hook in self._cap_hooks:
                hook(self.state)
        return action, m2_base, r1, r2, settled


def _hooks(observers, name: str) -> list:
    return [h for h in (getattr(obs, name, None) for obs in observers) if h is not None]


@dataclass
class Trace:
    """Full per-round record of one game, sufficient to replay it exactly."""

    strategy: str
    alpha: float
    seed: Optional[int]
    creators: list[int] = field(default_factory=list)
    m1_actions: list[Action] = field(default_factory=list)
    m2_bases: list[int] = field(default_factory=list)
    cap_flags: list[bool] = field(default_factory=list)
    tips: list[int] = field(default_factory=list)
    heights: list[int] = field(default_factory=list)
    r1: list[int] = field(default_factory=list)
    r2: list[int] = field(default_factory=list)

    def rounds(self) -> int:
        return len(self.creators)

    def revenue_series(self) -> list[float]:
        """rev(n) = Miner 1's chain blocks / chain height, after each round."""
        out = []
        c = 0
        for d, h in zip(self.r1, self.heights):
            c += d
            out.append(c / h if h else 0.0)
        return out

    def final_revenue(self) -> float:
        return self.revenue_series()[-1] if self.creators else 0.0


@dataclass(frozen=True)
class GameTotals:
    rounds: int
    t1: int
    t2: int
    height: int
    caps: int


@dataclass(frozen=True)
class CycleStats:
    r1: int
    r2: int
    rounds: int


def _creator_stream(
    alpha: float, seed: Optional[int], explicit=None, needed: Optional[int] = None
) -> Iterator[int]:
    """The creator of each round: the ``explicit`` list if one is given
    (it must hold at least ``needed`` entries), else Miner 1 with
    probability ``alpha`` from ``random.Random(seed)``, one draw a round."""
    if explicit is None:
        return _draws(alpha, random.Random(seed))
    if needed is not None and len(explicit) < needed:
        raise ValueError(f"{len(explicit)} creators given, {needed} needed")
    return iter(explicit)


def _draws(alpha: float, rng: random.Random) -> Iterator[int]:
    while True:
        yield MINER1 if rng.random() < alpha else MINER2


def run_game(
    strategy,
    alpha: float,
    rounds: int,
    seed: Optional[int] = None,
    creators=None,
) -> Trace:
    """Play ``rounds`` rounds and record everything (replayable trace)."""
    eng = Engine(strategy)
    name = getattr(strategy, "name", strategy.__class__.__name__)
    trace = Trace(strategy=name, alpha=alpha, seed=seed)
    stream = _creator_stream(alpha, seed, creators, rounds)
    for _ in range(rounds):
        creator = next(stream)
        action, m2_base, r1, r2, capped = eng.play(creator)
        trace.creators.append(creator)
        trace.m1_actions.append(action)
        trace.m2_bases.append(m2_base)
        trace.cap_flags.append(capped)
        trace.tips.append(eng.state.tip() if not capped else eng.state.offset)
        trace.heights.append(eng.height_total())
        trace.r1.append(r1)
        trace.r2.append(r2)
    return trace


def run_totals(
    strategy,
    alpha: float,
    rounds: int,
    seed: Optional[int] = None,
    creators=None,
    heights_out=None,
) -> GameTotals:
    """Lean loop: totals only; optionally fill a preallocated per-round
    chain-height array (for growth-rate checks)."""
    eng = Engine(strategy)
    stream = _creator_stream(alpha, seed, creators, rounds)
    play = eng.play
    for i in range(rounds):
        play(next(stream))
        if heights_out is not None:
            heights_out[i] = eng.locked_h + eng.state.tip_height()
    return GameTotals(
        rounds=rounds,
        t1=eng.t1_total(),
        t2=eng.t2_total(),
        height=eng.height_total(),
        caps=eng.caps,
    )


def iter_cycles(
    strategy,
    alpha: float,
    seed: Optional[int] = None,
    cycle_cap: int = 10**6,
) -> Iterator[CycleStats]:
    """Yield per-cycle chain rewards, a cycle being settle-to-settle."""
    eng = Engine(strategy)
    stream = _creator_stream(alpha, seed)
    t1_mark = t2_mark = 0
    rounds_in_cycle = 0
    while True:
        _, _, _, _, capped = eng.play(next(stream))
        rounds_in_cycle += 1
        if capped:
            yield CycleStats(
                r1=eng.locked_t1 - t1_mark,
                r2=eng.locked_t2 - t2_mark,
                rounds=rounds_in_cycle,
            )
            t1_mark, t2_mark = eng.locked_t1, eng.locked_t2
            rounds_in_cycle = 0
        elif rounds_in_cycle >= cycle_cap:
            raise RuntimeError(f"cycle exceeded {cycle_cap} rounds without settling")
