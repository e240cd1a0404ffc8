"""Coin games between the classical and the quantum player.

Covers game specifications, play-out, classification, intermediate-state
synthesis for the three-round game, and the closed-form decision procedure
for arbitrary alternating games, which one search on state indices of Z_2n
checks.  The subset construction of Andronikos et al., Mathematics 6(2),
2018 follows the set of states reachable under the opponent's choices:
:func:`_reachable` walks it forward for one fixed strategy, deciding sure
wins and best replies with no lemma of the search.  The search follows
single states, as a winning set never holds more than one: a loop back from
the target finds, per turn, the states from which the owner still forces it
(:func:`_wins`), deciding a game of any length in time linear in its rounds.
Listing alone is bounded: a loop forward extends each of Q's winning lines
through those states, and each class comes out whole, as a state path and a
product of stabilizer cosets (:func:`winning_classes`); the oracle,
:func:`classify_strategies`, replays each path on indices (:func:`_walk`).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import Iterable, Iterator, Sequence

from . import dihedral
from .config import ROUNDS_MAX
from .dihedral import FLIP, HADAMARD, IDENTITY, PlanarIsometry
from .errors import LengthMismatch, SearchBudgetExceeded
from .orbits import fixed_set
from .states import BASIS, CoinState, win_probability
from .values import Value, build

#: The classical player's repertoire: leave the coin alone or flip it.
PICARD_POOL: tuple[PlanarIsometry, ...] = (IDENTITY, FLIP)
#: The witness's closing move when the initial state is not Q's target.
_FLIPPED_HADAMARD = FLIP.compose(HADAMARD)


class GameSpec(Value, namedtuple("GameSpec",
                                  "turns initial target_q target_p")):
    """An alternating turn sequence with initial and target basis states."""

    __slots__ = ()

    def __new__(cls, turns: tuple[str, ...], initial: CoinState,
                target_q: CoinState, target_p: CoinState):
        if len(turns) < 2:
            raise ValueError("a game needs at least 2 rounds")
        if any(t not in ("P", "Q") for t in turns):
            raise ValueError(f"turns must be over {{P, Q}}, got {turns}")
        for a, b in itertools.pairwise(turns):
            if a == b:
                raise ValueError("players may not make consecutive moves")
        for s in (initial, target_q, target_p):
            if s not in BASIS:
                raise ValueError(f"{s} is not a basis state")
        if target_q == target_p:
            raise ValueError("the two target states must differ")
        return build(cls, (turns, initial, target_q, target_p))

    @classmethod
    def from_string(cls, turns: str, initial: CoinState = BASIS[0],
                    target_q: CoinState | None = None) -> "GameSpec":
        if target_q is None:
            target_q = initial
        target_p = BASIS[1] if target_q == BASIS[0] else BASIS[0]
        return cls(tuple(turns.upper()), initial, target_q, target_p)

    def turn_count(self, owner: str) -> int:
        return sum(1 for t in self.turns if t == owner)


#: The canonical three-round game: Q moves, the classical player replies, Q moves.
PQG = GameSpec.from_string("QPQ")


class Strategy(Value, namedtuple("Strategy", "owner moves")):
    """A fixed move sequence for one player, one move per owned turn."""

    __slots__ = ()

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.moves) + ")"


class StrategyClass(Value, namedtuple("StrategyClass", "path cosets")):
    """A class of Q's winners sharing one state path: the product of its
    cosets, one tuple of the moves that take the coin along it per Q turn.
    Members are built lazily in product order; the first represents it."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return math.prod(map(len, self.cosets))

    @property
    def members(self) -> Iterator[Strategy]:
        return (Strategy("Q", moves)
                for moves in itertools.product(*self.cosets))


class Decision(Value, namedtuple("Decision", "q_wins strategy picard_wins",
                                  defaults=(None, False))):
    """Outcome of the extended-game analysis.

    ``q_wins`` with a witness ``strategy`` (or None), or no winning strategy
    for either player; the classical player never has one (``picard_wins``).
    """

    __slots__ = ()


def _check_lengths(spec: GameSpec, sigma: Strategy) -> None:
    expected = spec.turn_count(sigma.owner)
    if len(sigma.moves) != expected:
        raise LengthMismatch(
            f"{sigma.owner} has {expected} turns but strategy has "
            f"{len(sigma.moves)} moves")


def _walk(initial: CoinState, choices: Sequence[Sequence[PlanarIsometry]],
          trail: bool = False) -> list[set[CoinState]]:
    """Play from *initial*, turn i taking any move of ``choices[i]``, on one
    grid Z_N holding every state: the final set, or with *trail* each set."""
    size = math.lcm(2, initial.phi.denominator,
                    *(g.angle.denominator for step in choices for g in step))
    reached = [{initial.index(size)}]
    for step in choices:
        reached.append({g.act(j, size) for g in step for j in reached[-1]})
    return [{CoinState.at(j, size) for j in js}
            for js in (reached if trail else reached[-1:])]


def play_out(spec: GameSpec, sigma_q: Strategy, sigma_p: Strategy) -> CoinState:
    """Final coin state after both players apply their moves in turn order."""
    _check_lengths(spec, sigma_q)
    _check_lengths(spec, sigma_p)
    its = {"Q": iter(sigma_q.moves), "P": iter(sigma_p.moves)}
    return _walk(spec.initial, [(next(its[t]),) for t in spec.turns])[0].pop()


def _reachable(spec: GameSpec, sigma: Strategy,
               pool: Sequence[PlanarIsometry]) -> set[CoinState]:
    """The final states of *sigma* over every reply from *pool*: exact for
    any pool, as play is deterministic and each turn's choice free."""
    _check_lengths(spec, sigma)
    moves = iter(sigma.moves)
    return _walk(spec.initial, [(next(moves),) if t == sigma.owner else pool
                                for t in spec.turns])[0]


def is_winning_strategy(spec: GameSpec, sigma_q: Strategy) -> bool:
    """True iff the final state is exactly Q's target for every classical reply."""
    return _reachable(spec, sigma_q, PICARD_POOL) == {spec.target_q}


def verify_characteristic_properties(spec: GameSpec, sigma_q: Strategy) -> bool:
    """The two conditions every winning pair (A1, A2) of the three-round
    game satisfies: A2*I*A1 and A2*F*A1 both send the initial state to Q's
    target (the pair wins), and A1 sends it to a state both I and F keep."""
    if spec.turns != ("Q", "P", "Q"):
        raise ValueError("characteristic properties apply to the QPQ game only")
    winning = is_winning_strategy(spec, sigma_q)    # checks the length
    return winning and len(_walk(spec.initial,
                                 [sigma_q.moves[:1], PICARD_POOL])[0]) == 1


def state_path(sigma: Strategy, initial: CoinState) -> tuple[CoinState, ...]:
    """The states produced by composing the owner's moves alone."""
    return tuple(x for (x,) in _walk(initial, [(m,) for m in sigma.moves],
                                     trail=True))


@functools.lru_cache(maxsize=8)
def _pool(n: int, player: str) -> tuple[dihedral.DihedralElement, ...]:
    """The elements of D_n *player* may play, in product order."""
    return (dihedral.elements(n) if player == "Q" else
            dihedral.require(n, PICARD_POOL))


#: Pool elements that send one state to another, in pool order: a coset.
_Coset = tuple[dihedral.DihedralElement, ...]


@functools.lru_cache(maxsize=64)
def _images(n: int, player: str, j: int) -> tuple[tuple[int, _Coset], ...]:
    """Each image of state j of Z_2n under *player*'s pool, with its coset,
    both in pool order."""
    by_image: dict[int, list[dihedral.DihedralElement]] = {}
    for g in _pool(n, player):
        by_image.setdefault(g.act(j, 2 * n), []).append(g)
    return tuple((c, tuple(gs)) for c, gs in by_image.items())


def _wins(spec: GameSpec, n: int, owner: str) -> list[frozenset[int]]:
    """``wins[i]``: the states of Z_2n before turn i from which *owner*
    forces the coin to its target whatever the opponent plays.  Q plays
    :func:`dihedral.elements`, the classical player :data:`PICARD_POOL`.

    Single states are enough: against a fixed move tuple, the states
    reachable under the opponent's choices form a set that each move
    permutes, and both pools hold the identity, so the set never shrinks
    and must stay the one state that ends as the target.  Each pool is a group, so before an owner's turn the preimages of
    ``wins[i + 1]`` are its orbits, read off :func:`_images` once per orbit;
    before an opponent's turn its states that every opponent move fixes
    stay.  Each step runs once per distinct set, whose result is shared.
    """
    size = 2 * n
    opp = _pool(n, "P" if owner == "Q" else "Q")
    target = (spec.target_q if owner == "Q" else spec.target_p).index(size)
    steps: dict[tuple[str, frozenset[int]], frozenset[int]] = {}
    wins = [frozenset({target})]
    for t in reversed(spec.turns):
        key = (t, wins[-1])
        if key not in steps:
            reached: set[int] = set()
            for y in wins[-1]:
                if t == owner and y not in reached:
                    reached.update(c for c, _ in _images(n, owner, y))
                elif t != owner and all(g.act(y, size) == y for g in opp):
                    reached.add(y)
            steps[key] = frozenset(reached)
        wins.append(steps[key])
    wins.reverse()
    return wins


def winning_classes(spec: GameSpec, n: int) -> list[StrategyClass]:
    """Q's winners in D_n by state path: :func:`classify_strategies` over
    them in product order, without a ``CoinState``.  Each line branches at
    a Q turn once per image of its state in ``wins[i + 1]``, with the coset
    that reaches it; index paths on Z_2n sort as the ``phi`` paths do.
    Games longer than :data:`~pennyflip.config.ROUNDS_MAX` are refused."""
    dihedral.require(n, PICARD_POOL)
    if len(spec.turns) > ROUNDS_MAX:
        raise SearchBudgetExceeded(
            f"{len(spec.turns)} rounds exceeds the bound of {ROUNDS_MAX}")
    wins = _wins(spec, n, "Q")
    start = spec.initial.index(2 * n)
    lines = [((start,), ())] if start in wins[0] else []
    for i, t in enumerate(spec.turns):
        if t == "Q":
            lines = [((*path, c), (*cosets, gs)) for path, cosets in lines
                     for c, gs in _images(n, "Q", path[-1])
                     if c in wins[i + 1]]
    return [StrategyClass(tuple(CoinState.of(j, 2 * n) for j in path),
                          tuple(tuple(map(dihedral.represent, gs))
                                for gs in cosets))
            for path, cosets in sorted(lines)]


def classify_strategies(strategies: Iterable[Strategy], initial: CoinState
                        ) -> list[tuple[tuple[CoinState, ...], list[Strategy]]]:
    """Partition by equality of state paths: ``(path, members)`` pairs,
    paths in ascending ``phi`` order, members in input order."""
    groups: dict[tuple[CoinState, ...], list[Strategy]] = {}
    for sigma in strategies:
        groups.setdefault(state_path(sigma, initial), []).append(sigma)
    return sorted(groups.items(), key=lambda item: [s.phi for s in item[0]])


def is_dominant(spec: GameSpec, sigma: Strategy,
                own_pool: Sequence[PlanarIsometry],
                opp_pool: Sequence[PlanarIsometry] = PICARD_POOL) -> bool:
    """Whether no alternative from *own_pool* beats *sigma*'s win
    probability against any opponent strategy from *opp_pool*."""
    opponent, target = (("P", spec.target_q) if sigma.owner == "Q"
                        else ("Q", spec.target_p))
    for moves in itertools.product(opp_pool, repeat=spec.turn_count(opponent)):
        opp = Strategy(opponent, moves)
        pair = (sigma, opp) if opponent == "P" else (opp, sigma)
        p_sigma = win_probability(play_out(spec, *pair), target)
        if any(win_probability(x, target) > p_sigma
               for x in _reachable(spec, opp, own_pool)):
            return False
    return True


def synthesize_by_intermediate_states(spec: GameSpec, n: int) -> list[Strategy]:
    """Winning pairs (A1, A2) built from intermediate states the classical
    player cannot move: A1 sends the initial state to such a state, A2 sends
    it on to Q's target.  Empty when no such state exists (4 | n, 8 ∤ n);
    :func:`fixed_set` raises when the flip is not in D_n."""
    if spec.turns != ("Q", "P", "Q"):
        raise ValueError("synthesis applies to the QPQ game only")
    pool, size = dihedral.isometries(n), 2 * n
    start, target = spec.initial.index(size), spec.target_q.index(size)
    return [Strategy("Q", (a1, a2))
            for mid in (x.index(size) for x in fixed_set(n, PICARD_POOL))
            for a1 in pool if a1.act(start, size) == mid
            for a2 in pool if a2.act(mid, size) == target]


def decide_extended_game(spec: GameSpec) -> Decision:
    """Closed-form decision: Q has a winning strategy iff Q makes both the
    first and the last move; the classical player never has one.

    The witness opens with the Hadamard move, idles in the flip-fixed
    intermediate state, and closes with the Hadamard move (same initial and
    target) or the flipped Hadamard move (different)."""
    if spec.turns[0] == "Q" and spec.turns[-1] == "Q":
        closing = (HADAMARD if spec.initial == spec.target_q
                   else _FLIPPED_HADAMARD)
        idle = (IDENTITY,) * (spec.turn_count("Q") - 2)
        return Decision(True, Strategy("Q", (HADAMARD, *idle, closing)))
    return Decision(False)


def brute_force_extended_check(spec: GameSpec, n: int = 8) -> Decision:
    """Exhaustive search over the finite pool D_n for both players' winning
    strategies, at any length; the witness is Q's first winner in product
    order: per Q turn, the first move of the first coset into ``wins[i + 1]``.
    """
    dihedral.require(n, (FLIP, HADAMARD))
    wins = _wins(spec, n, "Q")
    j = spec.initial.index(2 * n)
    picard_wins = j in _wins(spec, n, "P")[0]
    if j not in wins[0]:
        return Decision(False, None, picard_wins)
    moves = []
    for i, t in enumerate(spec.turns):
        if t == "Q":
            j, gs = next((c, gs) for c, gs in _images(n, "Q", j)
                         if c in wins[i + 1])
            moves.append(dihedral.represent(gs[0]))
    return Decision(True, Strategy("Q", tuple(moves)), picard_wins)


def alternating_turn_sequences(min_rounds: int, max_rounds: int
                               ) -> list[tuple[str, ...]]:
    """Both alternating sequences for every length in the range."""
    return [tuple("PQ"[(first + i) % 2] for i in range(length))
            for length in range(min_rounds, max_rounds + 1) for first in (0, 1)]
