"""Coin games between the classical and the quantum player.

Covers game specifications, play-out, classification, intermediate-state
synthesis for the three-round game, and the closed-form decision procedure
for arbitrary alternating games.  Winning-strategy enumeration and the
finite brute-force check of that decision share one search over the sets of
states reachable under the opponent's choices (the subset construction of
Andronikos et al., Mathematics 6(2), 2018).  A set is an int bitmask over
the state indices Z_2n, and each element of D_n moves it whole, by one
cyclic rotation of the mask or of its reversal.  The CLI classifies the
winners on their integer state paths (:func:`winning_classes`);
:func:`classify_strategies` replays the paths with the ``Fraction``
:func:`~pennyflip.states.act` and stays as its oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from . import dihedral
from .dihedral import FLIP, HADAMARD, IDENTITY, PlanarIsometry
from .errors import LengthMismatch, SearchBudgetExceeded
from .orbits import fixed_set
from .states import BASIS, CoinState, act, win_probability

#: The classical player's repertoire: leave the coin alone or flip it.
PICARD_POOL: tuple[PlanarIsometry, ...] = (IDENTITY, FLIP)

DEFAULT_MAX_ROUNDS = 9


@dataclass(frozen=True)
class GameSpec:
    """An alternating turn sequence with initial and target basis states."""

    turns: tuple[str, ...]
    initial: CoinState
    target_q: CoinState
    target_p: CoinState

    def __post_init__(self) -> None:
        if len(self.turns) < 2:
            raise ValueError("a game needs at least 2 rounds")
        if any(t not in ("P", "Q") for t in self.turns):
            raise ValueError(f"turns must be over {{P, Q}}, got {self.turns}")
        for a, b in itertools.pairwise(self.turns):
            if a == b:
                raise ValueError("players may not make consecutive moves")
        for s in (self.initial, self.target_q, self.target_p):
            if s not in BASIS:
                raise ValueError(f"{s} is not a basis state")
        if self.target_q == self.target_p:
            raise ValueError("the two target states must differ")

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


@dataclass(frozen=True)
class Strategy:
    """A fixed move sequence for one player, one move per owned turn."""

    owner: str
    moves: tuple[PlanarIsometry, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.moves) + ")"


@dataclass(frozen=True)
class StrategyClass:
    """An equivalence class of strategies sharing one state path."""

    representative: Strategy
    members: frozenset[Strategy]
    path: tuple[CoinState, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Decision:
    """Outcome of the extended-game analysis.

    ``q_wins`` with a witness strategy, or no winning strategy for either
    player; the classical player never has one.
    """

    q_wins: bool
    strategy: Strategy | None = None
    picard_wins: bool = False

    @property
    def summary(self) -> str:
        if self.q_wins:
            return "Q wins"
        if self.picard_wins:
            return "P wins"
        return "no winning strategy for either player"


def _check_lengths(spec: GameSpec, sigma: Strategy) -> None:
    expected = spec.turn_count(sigma.owner)
    if len(sigma.moves) != expected:
        raise LengthMismatch(
            f"{sigma.owner} has {expected} turns but strategy has "
            f"{len(sigma.moves)} moves")


def play_out(spec: GameSpec, sigma_q: Strategy, sigma_p: Strategy) -> CoinState:
    """Final coin state after both players apply their moves in turn order."""
    _check_lengths(spec, sigma_q)
    _check_lengths(spec, sigma_p)
    its = {"Q": iter(sigma_q.moves), "P": iter(sigma_p.moves)}
    state = spec.initial
    for t in spec.turns:
        state = act(next(its[t]), state)
    return state


def picard_strategies(spec: GameSpec) -> Iterable[Strategy]:
    for moves in itertools.product(PICARD_POOL, repeat=spec.turn_count("P")):
        yield Strategy("P", moves)


def is_winning_strategy(spec: GameSpec, sigma_q: Strategy) -> bool:
    """True iff the final state is exactly Q's target for every classical reply."""
    return all(play_out(spec, sigma_q, sp) == spec.target_q
               for sp in picard_strategies(spec))


def verify_characteristic_properties(spec: GameSpec, sigma_q: Strategy) -> bool:
    """The two conditions every winning pair (A1, A2) of the three-round
    game satisfies: A2*I*A1 and A2*F*A1 both send the initial state to Q's
    target, and A1 sends it into the fixed set of the flip."""
    if spec.turns != ("Q", "P", "Q"):
        raise ValueError("characteristic properties apply to the QPQ game only")
    a1, a2 = sigma_q.moves
    mid = act(a1, spec.initial)
    return (all(act(a2, act(reply, mid)) == spec.target_q
                for reply in PICARD_POOL) and act(FLIP, mid) == mid)


def state_path(sigma: Strategy, initial: CoinState) -> tuple[CoinState, ...]:
    """The states produced by composing the owner's moves alone."""
    path = [initial]
    for move in sigma.moves:
        path.append(act(move, path[-1]))
    return tuple(path)


#: A move of a whole state mask over Z_size: left and right shift amounts
#: of a cyclic rotation, and whether the mask is reversed (j -> -j) first.
_MaskMove = tuple[int, int, bool]


def _mask_move(g: dihedral.DihedralElement, size: int) -> _MaskMove:
    """r^k rotates a mask by ``r^k.act(0, size)``; r^k s rotates its
    reversal by ``r^k s.act(0, size)``."""
    s = g.act(0, size)
    return s, size - s, g.reflect


@functools.lru_cache(maxsize=8)
def _pool(n: int, player: str) -> tuple[tuple[dihedral.DihedralElement, ...],
                                         tuple[_MaskMove, ...]]:
    """The elements of D_n *player* may play, in product order, with the
    mask move of each."""
    gs = (dihedral.elements(n) if player == "Q" else
          tuple(dihedral.element_for_isometry(n, p) for p in PICARD_POOL))
    return gs, tuple(_mask_move(g, 2 * n) for g in gs)


def _images(moves: Iterable[_MaskMove], m: int, size: int) -> list[int]:
    """The image of the state mask *m* over Z_size under each move: the
    same set as ``g.act`` sends bit by bit, in one rotation per move."""
    full = (1 << size) - 1
    # the reversal j -> -j: reverse the bit string, then rotate by one
    r = int(format(m, f"0{size}b")[::-1], 2)
    r = ((r << 1) | (r >> (size - 1))) & full
    return [((r << s) | (r >> t) if f else (m << s) | (m >> t)) & full
            for s, t, f in moves]


def _winning_moves(spec: GameSpec, n: int, owner: str
                   ) -> Iterator[tuple[dihedral.DihedralElement, ...]]:
    """Lazily yield every move tuple of *owner* that forces the coin to its
    target whatever the opponent plays, in the product order of its pool:
    Q plays all of :func:`dihedral.elements`, the classical player the
    elements of :data:`PICARD_POOL`.

    The search walks (turn index, set of states reachable under the
    opponent's choices), a set that depends only on the owner's own prefix:
    the owner's turns branch over its pool, the opponent's turns take the
    union of the images under all of its pool, and a move tuple wins iff the
    final set is the target alone.  A set is an int bitmask over the indices
    Z_2n, which each move carries whole with one rotation (:func:`_images`).
    Moves permute a set and the opponent's turns only add to it, so a set of
    two or more states never shrinks back to the single target and loses at
    once.  Whether the owner can still force the target from a pair is
    memoised for both outcomes, and the walk descends only into pairs where
    it can.
    """
    size = 2 * n
    own, own_moves = _pool(n, owner)
    opp_all = _pool(n, "P" if owner == "Q" else "Q")[1]
    opp_moves = tuple(dict.fromkeys(opp_all))
    owned = [t == owner for t in spec.turns]
    last = len(spec.turns)
    target = 1 << (spec.target_q if owner == "Q" else spec.target_p).index(size)
    memo: list[dict[int, bool]] = [{} for _ in spec.turns]

    def union(m: int) -> int:
        out = 0
        for x in _images(opp_moves, m, size):
            out |= x
        return out

    def wins(i: int, m: int) -> bool:
        if i == last or m & (m - 1):
            return m == target
        seen = memo[i]
        won = seen.get(m)
        if won is None:
            if owned[i]:
                won = any(wins(i + 1, c) for c in
                          dict.fromkeys(_images(own_moves, m, size)))
            else:
                won = wins(i + 1, union(m))
            seen[m] = won
        return won

    def walk(i: int, m: int) -> Iterator[tuple[dihedral.DihedralElement, ...]]:
        # entered only where wins(i, m) holds
        if i == last:
            yield ()
        elif owned[i]:
            for g, c in zip(own, _images(own_moves, m, size)):
                if wins(i + 1, c):
                    for rest in walk(i + 1, c):
                        yield (g, *rest)
        else:
            yield from walk(i + 1, union(m))

    start = 1 << spec.initial.index(size)
    return walk(0, start) if wins(0, start) else iter(())


@functools.lru_cache(maxsize=8)
def _represented(n: int) -> Mapping[dihedral.DihedralElement, PlanarIsometry]:
    """Each element of D_n with the isometry that represents it, read-only
    because every caller shares it."""
    return MappingProxyType(dict(zip(dihedral.elements(n),
                                     dihedral.isometries(n))))


def enumerate_winning_strategies(spec: GameSpec, n: int) -> list[Strategy]:
    """All of Q's winning move tuples drawn from D_n, in the product order
    of :func:`dihedral.isometries`; the flip must lie in D_n.

    Strategies are counted as tuples of isometries (matrix values), so
    distinct symbolic elements with the same representation coincide.
    """
    dihedral.require(n, PICARD_POOL)
    named = _represented(n)
    return [Strategy("Q", tuple(named[g] for g in moves))
            for moves in _winning_moves(spec, n, "Q")]


def winning_classes(spec: GameSpec, n: int) -> list[StrategyClass]:
    """Q's winning strategies in D_n partitioned by state path: the classes
    of :func:`classify_strategies` over :func:`enumerate_winning_strategies`,
    in the same order, without replaying a move on a ``CoinState``.

    Each winner's path is followed on the indices Z_2n with
    :meth:`~pennyflip.dihedral.DihedralElement.act`.  On one grid
    ``phi = j / 2n``, so the index paths sort as the ``phi`` paths do, and
    the representative is the first member in product order."""
    dihedral.require(n, PICARD_POOL)
    named = _represented(n)
    size = 2 * n
    start = spec.initial.index(size)
    groups: dict[tuple[int, ...], list[Strategy]] = {}
    for moves in _winning_moves(spec, n, "Q"):
        path = [start]
        for g in moves:
            path.append(g.act(path[-1], size))
        groups.setdefault(tuple(path), []).append(
            Strategy("Q", tuple(named[g] for g in moves)))
    return [StrategyClass(groups[path][0], frozenset(groups[path]),
                          tuple(CoinState.of(j, size) for j in path))
            for path in sorted(groups)]


def classify_strategies(strategies: Iterable[Strategy],
                        initial: CoinState) -> list[StrategyClass]:
    """Partition by equality of state paths; deterministic path order."""
    groups: dict[tuple[CoinState, ...], list[Strategy]] = {}
    for sigma in strategies:
        groups.setdefault(state_path(sigma, initial), []).append(sigma)
    return [StrategyClass(groups[path][0], frozenset(groups[path]), path)
            for path in sorted(groups, key=lambda p: tuple(s.phi for s in p))]


def is_dominant(spec: GameSpec, sigma: Strategy,
                own_pool: Sequence[PlanarIsometry],
                opp_pool: Sequence[PlanarIsometry] = PICARD_POOL) -> bool:
    """Whether *sigma* does at least as well as every alternative against
    every opponent strategy, by win probability over the full cross product."""
    owner = sigma.owner
    opponent = "P" if owner == "Q" else "Q"
    target = spec.target_q if owner == "Q" else spec.target_p
    own_count = spec.turn_count(owner)
    opp_count = spec.turn_count(opponent)

    def prob(own: Strategy, opp: Strategy) -> float:
        sq, sp = (own, opp) if owner == "Q" else (opp, own)
        return win_probability(play_out(spec, sq, sp), target)

    alternatives = [Strategy(owner, moves)
                    for moves in itertools.product(own_pool, repeat=own_count)]
    for opp_moves in itertools.product(opp_pool, repeat=opp_count):
        opp = Strategy(opponent, opp_moves)
        p_sigma = prob(sigma, opp)
        if any(prob(alt, opp) > p_sigma for alt in alternatives):
            return False
    return True


def synthesize_by_intermediate_states(spec: GameSpec, n: int) -> list[Strategy]:
    """Winning pairs (A1, A2) built from intermediate states the classical
    player cannot move: A1 sends the initial state to such a state, A2 sends
    it on to Q's target.  Empty when no such state exists (4 | n, 8 ∤ n);
    :func:`fixed_set` raises when the flip is not in D_n."""
    if spec.turns != ("Q", "P", "Q"):
        raise ValueError("synthesis applies to the QPQ game only")
    pool = dihedral.isometries(n)
    return [Strategy("Q", (a1, a2)) for mid in fixed_set(n, PICARD_POOL)
            for a1 in pool if act(a1, spec.initial) == mid
            for a2 in pool if act(a2, mid) == spec.target_q]


def decide_extended_game(spec: GameSpec) -> Decision:
    """Closed-form decision: Q has a winning strategy iff Q makes both the
    first and the last move; the classical player never has one.

    The witness opens with the Hadamard move, idles in the flip-fixed
    intermediate state, and closes with the Hadamard move (same initial and
    target) or the flipped Hadamard move (different)."""
    if spec.turns[0] == "Q" and spec.turns[-1] == "Q":
        closing = (HADAMARD if spec.initial == spec.target_q
                   else FLIP.compose(HADAMARD))
        idle = (IDENTITY,) * (spec.turn_count("Q") - 2)
        return Decision(True, Strategy("Q", (HADAMARD, *idle, closing)))
    return Decision(False)


def brute_force_extended_check(spec: GameSpec, n: int = 8,
                               max_rounds: int = DEFAULT_MAX_ROUNDS) -> Decision:
    """Exhaustive search over the finite pool D_n for both players' winning
    strategies; the witness is Q's first winning move tuple in product order.
    """
    if len(spec.turns) > max_rounds:
        raise SearchBudgetExceeded(
            f"{len(spec.turns)} rounds exceeds the bound of {max_rounds}")
    dihedral.require(n, (FLIP, HADAMARD))
    q_moves = next(_winning_moves(spec, n, "Q"), None)
    p_moves = next(_winning_moves(spec, n, "P"), None)
    strategy = (Strategy("Q", tuple(map(dihedral.represent, q_moves)))
                if q_moves is not None else None)
    return Decision(q_moves is not None, strategy, p_moves is not None)


def alternating_turn_sequences(min_rounds: int = 2,
                               max_rounds: int = DEFAULT_MAX_ROUNDS
                               ) -> list[tuple[str, ...]]:
    """Both alternating sequences for every length in the range."""
    return [tuple("PQ"[(first + i) % 2] for i in range(length))
            for length in range(min_rounds, max_rounds + 1) for first in (0, 1)]
