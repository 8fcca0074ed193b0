"""Miner-1 strategies and the round-by-round game engine.

A strategy is an object with ``reset()`` and ``decide(half) -> StrategyDecision``;
the decision carries the action plus a flag telling the engine to lock in the
current chain and restart from a fresh single-genesis state (the strategy is
declaring the position settled).  The engine keeps absolute block labels and
accumulates locked chain counts across those restarts, so total revenue
``r1_total / height_total`` is exact over the whole run.  The engine is the
package's only round loop over a block tree: trace replay
(``structure.replay_trace``) drives it with a :class:`Scripted` strategy and
observer hooks.  The engine is also a stepper: ``step(mine)`` plays one
round and reports the settle payoff, so every estimator loops over
:func:`make_stepper`.  The one shortcut is :class:`StockStepper`, which
plays the stock strategies one round at a time as small automata over the
same creator draws, with no block tree; :func:`make_stepper` returns it for
those exact types from a fresh game and the engine for every other
strategy or start position.

Strategies included: the frontier policy (publish immediately, always
capitulate), withhold-and-overtake (hold a private lead, publish it all when
Miner 2 gets within one), its patient variant (when a 1-block race is lost,
keep going for a deeper double-or-nothing fork), and scripted replay.  The
two withholding strategies keep no node memory of their own: each plays a
:class:`StockStepper`, the one definition of their node rules, and turns a
settle Miner 1 wins into a publish.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from .blocktree import (
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
    potential_reward,
    validate_action,
)

__all__ = [
    "StrategyDecision",
    "DomainError",
    "NonRecurrent",
    "UnreachableState",
    "ScriptError",
    "ScriptExhaustedMismatch",
    "Frontier",
    "WithholdOvertake",
    "PatientWithholdOvertake",
    "Scripted",
    "make_strategy",
    "parse_script",
    "format_action",
    "Engine",
    "Trace",
    "GameTotals",
    "CycleStats",
    "StockStepper",
    "make_stepper",
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
_NO_MOVE, _FOLD = StrategyDecision(WAIT, False), StrategyDecision(WAIT, True)


class DomainError(ValueError):
    """Argument outside its domain: alpha outside the strategic regime
    0 < alpha < 1/2, or a count or lead out of range."""


def _check_rounds(rounds: int) -> None:
    if rounds < 0:
        raise DomainError(f"rounds must be >= 0, got {rounds}")


class NonRecurrent(RuntimeError):
    """A cycle or episode exceeded the round cap without settling."""


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


class Frontier:
    """The always-publish policy for Miner 1: publish the round's block on
    the tip if it is ours; always settle."""

    name = kind = "frontier"

    def reset(self) -> None:
        pass

    def attach(self, state: GameState) -> None:
        if state.unpublished_1:
            raise UnreachableState("frontier never withholds")

    def decide(self, half: HalfState) -> StrategyDecision:
        if half.creator != MINER1:
            return _FOLD
        return StrategyDecision(PublishPath(frozenset({half.block}), half.state.tip()), True)


class WithholdOvertake:
    """Hold a private lead; publish everything once Miner 2 is within one.

    Cycle shape: wait for an own block (else settle), try to grow the lead
    to two.  With a lead of k >= 2, wait until Miner 2 has published k-1
    blocks, then publish all k held blocks as one path from the cycle base,
    overtaking by one, and settle.  A 1-block race (one held block, one
    Miner-2 block) is decided by the next creation: ours -> publish both
    own blocks and win; theirs -> abandon and settle.

    The node rules are :class:`StockStepper`'s; ``decide`` plays one
    stepper round and turns a settle Miner 1 wins into a publish of every
    own unpublished block above the race base, the live chain block at the
    stepper's ``hb``.
    """

    name = kind = "sm"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stepper = StockStepper(self.kind)

    def attach(self, state: GameState) -> None:
        """Adopt a position this strategy could have reached on its own."""
        self.reset()
        held, depth = len(state.unpublished_1), state.tip_height()
        if depth == 0 and held:
            self.stepper.node = "hold1" if held == 1 else "lead"
            self.stepper.held = held
        elif depth == 1 and held == 1 and state.creator[state.tip()] == MINER2:
            self.stepper.node = "race"
        elif depth:
            raise UnreachableState(f"cannot adopt {state!r}" if held else "published chain but nothing held")

    def decide(self, half: HalfState) -> StrategyDecision:
        hb = self.stepper.hb
        payoff = self.stepper.step(half.creator == MINER1)
        if payoff is None:
            return _NO_MOVE
        if payoff[0] == 0:
            return _FOLD
        st = half.state
        base = st.tip()
        while st._heights[base] > hb:
            base = st.parent[base]
        blocks = frozenset(b for b in st.unpublished_1 if b > base)
        if len(blocks) != payoff[0]:
            raise UnreachableState(f"held {sorted(blocks)} above {base}, but the rules publish {payoff[0]}")
        return StrategyDecision(PublishPath(blocks, base), True)


class PatientWithholdOvertake(WithholdOvertake):
    """Withhold-and-overtake that does not fold a lost 1-block race.

    Where the plain strategy settles as soon as Miner 2 extends its race
    block, this variant stalls one more round hoping for a deeper 2-vs-2
    fork: a second own block re-arms the race, and if Miner 2 then goes a
    block deeper still, the fight restarts one level up (the oldest held
    block is written off silently; it gets swept at the next settle).
    """

    name = kind = "nsm"
    decide = WithholdOvertake.decide  # perfbench's tracer wraps each class's own decide


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

    def attach(self, state: GameState) -> None:
        """Play on from ``state``.  Moves are keyed by absolute round, which a
        settle keeps, so the script resumes at its first move after
        ``state.round``."""
        self._next = bisect_right(self.moves, state.round, key=lambda move: move[0])

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
        if moves and rnd <= moves[-1][0]:
            raise ScriptError(
                i, f"round {rnd} after round {moves[-1][0]}: script rounds must be strictly increasing"
            )
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
    return moves


def make_strategy(spec):
    """Build a strategy from its name: frontier | sm | nsm | scripted:@file.
    A strategy object is returned unchanged."""
    if not isinstance(spec, str):
        return spec
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
    raise DomainError(f"unknown strategy {spec!r} (have frontier, sm, nsm, scripted:@file)")


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
    import hashlib

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

    The engine has :class:`StockStepper`'s interface, for any strategy and
    start: ``step(mine)`` plays a round whose block is Miner 1's if
    ``mine`` and returns how much ``locked_t1`` and ``locked_t2`` grew, or
    None if the round did not settle; ``height()``, ``chain_owned()`` and
    ``potential_reward()`` read the live state.
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
        observers = tuple(observers)
        if observers:
            self._half_hooks = _hooks(observers, "half")
            self._end_hooks = _hooks(observers, "round_end")
            self._cap_hooks = _hooks(observers, "capitulated")
        else:
            self._half_hooks = self._end_hooks = self._cap_hooks = ()

    # totals including locked prefix
    def t1_total(self) -> int:
        return self.locked_t1 + self.state.chain_owned(MINER1)

    def t2_total(self) -> int:
        return self.locked_t2 + self.state.chain_owned(MINER2)

    def height_total(self) -> int:
        return self.locked_h + self.state.tip_height()

    def height(self) -> int:
        return self.state.tip_height()

    def chain_owned(self) -> int:
        return self.state.chain_owned(MINER1)

    def potential_reward(self) -> int:
        return potential_reward(self.state)

    def step(self, mine: bool) -> Optional[tuple[int, int]]:
        t1, t2 = self.locked_t1, self.locked_t2
        if self.play(MINER1 if mine else MINER2)[4]:
            return self.locked_t1 - t1, self.locked_t2 - t2
        return None

    def play(self, creator: int) -> tuple[Action, int, int, int, bool]:
        """One round; returns (miner1 action, m2 base or -1, r1, r2, settled)."""
        st = self.state
        heights, chain_m1 = st._heights, st._chain_m1  # updated in place until the settle
        tip = st._tip
        t1b, hb = chain_m1[tip], heights[tip]
        n = begin_round(st, creator)
        m2_base = -1
        if creator == MINER2:
            m2_base = tip
            st._publish_one(n, tip)
        dec = self.strategy.decide(HalfState(st, creator, n))
        action, settled = dec.action, dec.capitulate_to_b0
        for hook in self._half_hooks:
            hook(st, creator, n, action)
        published = ()
        if not isinstance(action, Wait):
            published = attach_action(st, MINER1, action).blocks
        # Miner 2's chain count is the chain height minus Miner 1's.
        tip = st._tip
        t1, h = chain_m1[tip], heights[tip]
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


def _hooks(observers: tuple, name: str) -> tuple:
    return tuple(h for h in (getattr(obs, name, None) for obs in observers) if h is not None)


@dataclass
class Trace:
    """Full per-round record of one game, sufficient to replay it exactly.

    ``final_state`` is the live state the game ended in (set by
    :func:`run_game`; not part of equality).  ``_checks`` is private to
    :mod:`posmine.structure`: the reports of its one shared replay, with a
    snapshot of the lists that replay read."""

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
    final_state: Optional[GameState] = field(default=None, compare=False, repr=False)
    _checks: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

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


class CycleStats(NamedTuple):
    """One settle-to-settle cycle.  A named tuple rather than a frozen
    dataclass: the cycle loop builds one per cycle."""

    r1: int
    r2: int
    rounds: int


def _creator_stream(
    alpha: float, seed: Optional[int], explicit=None, needed: Optional[int] = None
) -> Iterator[int]:
    """The creator of each round: the ``explicit`` list if one is given
    (it must hold at least ``needed`` entries, each 1 or 2), else Miner 1
    with probability ``alpha`` from ``random.Random(seed)``, one draw a
    round."""
    if explicit is None:
        return _draws(alpha, random.Random(seed))
    if needed is not None and len(explicit) < needed:
        raise ValueError(f"{len(explicit)} creators given, {needed} needed")
    for c in explicit[:needed]:
        if c != MINER1 and c != MINER2:
            raise ValueError(f"creator must be 1 or 2, got {c}")
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
    _check_rounds(rounds)
    eng = Engine(strategy)
    name = getattr(strategy, "name", strategy.__class__.__name__)
    trace = Trace(strategy=name, alpha=alpha, seed=seed)
    stream = _creator_stream(alpha, seed, creators, rounds)
    play = eng.play
    add_creator, add_action, add_m2_base, add_cap = (
        trace.creators.append, trace.m1_actions.append, trace.m2_bases.append, trace.cap_flags.append
    )
    add_tip, add_height, add_r1, add_r2 = (
        trace.tips.append, trace.heights.append, trace.r1.append, trace.r2.append
    )
    for _, creator in zip(range(rounds), stream):
        action, m2_base, r1, r2, capped = play(creator)
        st = eng.state
        add_creator(creator)
        add_action(action)
        add_m2_base(m2_base)
        add_cap(capped)
        add_tip(st.offset if capped else st._tip)
        add_height(eng.locked_h + st._heights[st._tip])
        add_r1(r1)
        add_r2(r2)
    trace.final_state = eng.state
    return trace


# ---------------------------------------------------------------------------
# steppers: one round at a time, reporting only settles and the live chain


class StockStepper:
    """The stock strategies' node rules, one round at a time, with no block
    tree: ``step(mine)`` plays a round whose block is Miner 1's if ``mine``
    and returns the settle payoff ``(r1, r2)``, or None mid-cycle;
    ``height()``, ``chain_owned()`` and ``potential_reward()`` read the live
    position off the node.  The :class:`Engine` has the same four methods
    and plays every other strategy and start (see :func:`make_stepper`).

    This is the one definition of the stock node rules: start/hold1/lead/
    race for :class:`WithholdOvertake`, plus stall/double for
    :class:`PatientWithholdOvertake`.  Both classes play a stepper in their
    ``decide`` and publish the held blocks when Miner 1 wins a settle;
    :class:`Frontier` is the start node settling on every block.  ``held``
    and ``opp`` count the private lead and Miner 2's blocks since it began;
    ``hb`` is the race base's height.  Every chain block below the base is
    Miner 2's (each nsm restart moves the base up two of them): a settle
    Miner 1 wins scores its published path against those ``hb`` blocks, one
    it loses scores Miner 2's whole chain.  Mid-cycle Miner 1 owns no public
    chain block.
    """

    __slots__ = ("kind", "node", "held", "opp", "hb")

    def __init__(self, kind: str):
        self.kind = kind  # frontier | sm | nsm
        self.node, self.held, self.opp, self.hb = "start", 0, 0, 0

    def height(self) -> int:
        """The public chain's height inside the live cycle."""
        node = self.node
        if node == "lead":
            return self.opp
        if node == "race":
            return self.hb + 1
        if node == "stall" or node == "double":
            return self.hb + 2
        return 0  # start, hold1

    def chain_owned(self) -> int:
        """Miner 1's blocks on the live public chain: none mid-cycle."""
        return 0

    def potential_reward(self) -> int:
        """``blocktree.potential_reward`` of the live position, read off the
        node.

        Miner 1 owns no public chain block mid-cycle, so a publish can only
        gain, by the number of held blocks it stacks on a base, and only if
        the stack strictly overtakes the tip.  In lead all ``held`` blocks
        are newer than the cycle base and Miner 2 has ``opp <= held - 2``
        blocks on it, so stacked there they overtake: ``held``.  In hold1
        the one held block overtakes the empty chain, and in double the
        block made after Miner 2's two overtakes them stacked on the tip:
        1.  In race and stall Miner 2's chain is at least as long as
        anything Miner 1 can stack, and start holds nothing: 0.  Frontier
        never leaves start, so it always gets 0.
        """
        node = self.node
        if node == "lead":
            return self.held
        if node == "hold1" or node == "double":
            return 1
        return 0  # start, race, stall

    def step(self, mine: bool) -> Optional[tuple[int, int]]:
        node = self.node
        if node == "start":
            if not mine:
                return _LOST
            if self.kind == "frontier":
                return _WON
            self.node = "hold1"
            return None
        if node == "lead":
            if mine:
                self.held += 1
                return None
            self.opp += 1
            if self.opp < self.held - 1:
                return None
            self.node = "start"
            return self.held, 0
        if node == "hold1":
            if mine:
                self.node, self.held, self.opp = "lead", 2, 0
            else:
                self.node = "race"
            return None
        hb = self.hb
        if node == "race":
            if mine:
                return self._settle(2, hb)
            if self.kind == "nsm":
                self.node = "stall"
                return None
            return self._settle(0, hb + 2)
        if node == "stall":
            if mine:
                self.node = "double"
                return None
            return self._settle(0, hb + 3)
        if mine:  # double
            return self._settle(3, hb)
        # Miner 2 went three deep: race again from two blocks up
        self.node, self.hb = "race", hb + 2
        return None

    def _settle(self, r1: int, r2: int) -> tuple[int, int]:
        self.node, self.hb = "start", 0
        return r1, r2


_WON, _LOST = (1, 0), (0, 1)


def make_stepper(strategy, start: Optional[GameState] = None):
    """A :class:`StockStepper` when ``start`` is None and ``type(strategy)``
    is exactly :class:`Frontier`, :class:`WithholdOvertake` or
    :class:`PatientWithholdOvertake`; otherwise, subclasses and any
    ``start`` included, the :class:`Engine` playing ``strategy`` from
    ``start`` (a fresh game when None)."""
    if start is None and type(strategy) in (Frontier, WithholdOvertake, PatientWithholdOvertake):
        return StockStepper(strategy.kind)
    return Engine(strategy, start)


def run_totals(
    strategy,
    alpha: float,
    rounds: int,
    seed: Optional[int] = None,
    creators=None,
    heights_out=None,
) -> GameTotals:
    """Totals only, played by :func:`make_stepper` (no block tree for the
    stock strategies); optionally fill a preallocated per-round chain-height
    array (for growth-rate checks).  Same draws and totals as
    :func:`run_game`."""
    _check_rounds(rounds)
    stepper = make_stepper(strategy)
    step, height = stepper.step, stepper.height
    mines = map(MINER1.__eq__, _creator_stream(alpha, seed, creators, rounds))
    t1 = t2 = caps = 0
    for i, mine in zip(range(rounds), mines):
        settled = step(mine)
        if settled is not None:
            t1 += settled[0]
            t2 += settled[1]
            caps += 1
        if heights_out is not None:
            heights_out[i] = t1 + t2 + height()
    live_t1, live_h = stepper.chain_owned(), height()
    return GameTotals(
        rounds=rounds,
        t1=t1 + live_t1,
        t2=t2 + live_h - live_t1,
        height=t1 + t2 + live_h,
        caps=caps,
    )


def iter_cycles(
    strategy,
    alpha: float,
    seed: Optional[int] = None,
    cycle_cap: int = 10**6,
) -> Iterator[CycleStats]:
    """Yield per-cycle chain rewards, a cycle being settle-to-settle.

    The rounds are played by :func:`make_stepper`: a :class:`StockStepper`
    for the exact stock types, the :class:`Engine` for any other strategy.
    Both draw one ``random.Random(seed).random()`` a round and yield the
    same cycles.  Raises :class:`NonRecurrent` as soon as a cycle reaches
    ``cycle_cap`` rounds without settling.
    """
    step = make_stepper(strategy).step
    rand = random.Random(seed).random
    rounds = 0
    while True:
        rounds += 1
        settled = step(rand() < alpha)
        if settled is not None:
            yield CycleStats(settled[0], settled[1], rounds)
            rounds = 0
        elif rounds >= cycle_cap:
            raise NonRecurrent(f"cycle exceeded {cycle_cap} rounds without settling")
