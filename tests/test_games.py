import functools
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pennyflip import games, orbits
from pennyflip.angles import Angle
from pennyflip.dihedral import (FLIP, HADAMARD, IDENTITY, DihedralElement,
                                PlanarIsometry, isometries)
from pennyflip.errors import (ExactArithmeticOverflow, FNotInGroup,
                              LengthMismatch, SearchBudgetExceeded)
from pennyflip.games import (PICARD_POOL, PQG, GameSpec, Strategy, _pool,
                             _wins, alternating_turn_sequences,
                             brute_force_extended_check, classify_strategies,
                             decide_extended_game, is_dominant,
                             is_winning_strategy, play_out,
                             state_path, synthesize_by_intermediate_states,
                             verify_characteristic_properties,
                             winning_classes)
from pennyflip.orbits import basis_indices, fixed_set
from pennyflip.states import (BASIS, KET_MINUS, KET_ONE, KET_PLUS, KET_ZERO,
                             CoinState, win_probability)
from test_dihedral import compose
from test_states import act, fraction, image

S7 = PlanarIsometry(Angle(7, 8), True)
R2 = PlanarIsometry(Angle(1, 4))
R14 = PlanarIsometry(Angle(7, 4))


def q_strategy(*moves):
    return Strategy("Q", moves)


def p_strategy(*moves):
    return Strategy("P", moves)


class TestGameSpec:
    def test_alternation_enforced(self):
        with pytest.raises(ValueError):
            GameSpec.from_string("QQP")

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            GameSpec.from_string("Q")

    def test_targets_must_differ(self):
        with pytest.raises(ValueError):
            GameSpec(("Q", "P"), KET_ZERO, KET_ZERO, KET_ZERO)

    def test_basis_states_only(self):
        with pytest.raises(ValueError):
            GameSpec(("Q", "P"), KET_PLUS, KET_ZERO, KET_ONE)


class TestPlayOut:
    def test_original_game_with_hadamards(self):
        assert play_out(PQG, q_strategy(HADAMARD, HADAMARD),
                        p_strategy(FLIP)) == KET_ZERO
        assert play_out(PQG, q_strategy(HADAMARD, HADAMARD),
                        p_strategy(IDENTITY)) == KET_ZERO

    def test_all_identities_leave_initial(self):
        assert play_out(PQG, q_strategy(IDENTITY, IDENTITY),
                        p_strategy(IDENTITY)) == PQG.initial

    def test_minus_route(self):
        sigma = q_strategy(S7, S7)
        assert play_out(PQG, sigma, p_strategy(FLIP)) == KET_ZERO
        assert state_path(sigma, KET_ZERO) == (KET_ZERO, KET_MINUS, KET_ZERO)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            play_out(PQG, q_strategy(HADAMARD), p_strategy(FLIP))


class TestWinningStrategies:
    def test_hadamard_pair_wins(self):
        assert is_winning_strategy(PQG, q_strategy(HADAMARD, HADAMARD))

    def test_identity_pair_loses(self):
        assert not is_winning_strategy(PQG, q_strategy(IDENTITY, IDENTITY))

    def test_rotor_pair_equivalent_to_hadamards(self):
        assert is_winning_strategy(PQG, q_strategy(R2, R14))

    def test_characteristic_properties(self):
        assert verify_characteristic_properties(PQG, q_strategy(HADAMARD, HADAMARD))
        assert verify_characteristic_properties(PQG, q_strategy(S7, S7))
        assert not verify_characteristic_properties(PQG, q_strategy(FLIP, FLIP))

    def test_characteristic_properties_check_the_length(self):
        # the same domain error as play-out, not a failed unpacking
        with pytest.raises(LengthMismatch):
            verify_characteristic_properties(PQG, q_strategy(HADAMARD))

    def test_every_winner_has_characteristic_properties(self):
        for sigma in winners(PQG, 8):
            assert verify_characteristic_properties(PQG, sigma)

    @pytest.mark.parametrize("turns", ["QPQ", "PQP", "QPQP", "PQPQ"])
    def test_walk_matches_every_reply_in_d8(self, turns):
        for spec in all_specs(turns):
            for moves in itertools.product(
                    isometries(8), repeat=spec.turn_count("Q")):
                sigma = Strategy("Q", moves)
                assert (is_winning_strategy(spec, sigma)
                        == plays_every_reply(spec, sigma)), (spec, sigma)


class TestEnumeration:
    # winners exist iff 8 | n; the scan plays (2n)^(Q's turns) tuples
    @pytest.mark.parametrize("turns, sizes", [
        ("QPQ", (4, 8, 12, 16, 24, 32, 40)),
        ("PQP", (4, 8, 12, 16, 24, 32, 40)),
        ("QPQP", (4, 8, 12, 16)), ("PQPQ", (4, 8, 12, 16)), ("QPQPQ", (8,)),
    ])
    def test_matches_product_scan_in_order(self, turns, sizes):
        for spec in all_specs(turns):
            for n in sizes:
                assert (classify_strategies(product_scan(spec, n), spec.initial)
                        == [(c.path, list(c.members))
                            for c in winning_classes(spec, n)])

    def test_d8_has_32_winners(self):
        assert sum(c.size for c in winning_classes(PQG, 8)) == 32

    def test_d4_has_none(self):
        assert winning_classes(PQG, 4) == []

    def test_d16_adds_nothing(self):
        w8 = {s.moves for s in winners(PQG, 8)}
        for n in (16, 1024):
            assert {s.moves for s in winners(PQG, n)} == w8

    def test_odd_n_rejected(self):
        with pytest.raises(FNotInGroup):
            winning_classes(PQG, 7)


class TestClassification:
    def test_two_classes_of_16(self):
        classes = classify_strategies(product_scan(PQG, 8), KET_ZERO)
        assert [(path, len(members)) for path, members in classes] == [
            ((KET_ZERO, KET_PLUS, KET_ZERO), 16),
            ((KET_ZERO, KET_MINUS, KET_ZERO), 16)]

    def test_singleton(self):
        sigma = q_strategy(HADAMARD, HADAMARD)
        assert classify_strategies([sigma], KET_ZERO) == [
            ((KET_ZERO, KET_PLUS, KET_ZERO), [sigma])]

    def test_equivalent_pair_merges(self):
        pair = [q_strategy(HADAMARD, HADAMARD), q_strategy(R2, R14)]
        assert classify_strategies(pair, KET_ZERO) == [
            ((KET_ZERO, KET_PLUS, KET_ZERO), pair)]


def class_mismatches(classes_of):
    """The (spec, n) cases of every alternating game of 2-7 rounds, every
    4 | n <= 32 and all four initial/target pairs where *classes_of* differs
    from the Fraction replay, lazily.  The comparison is of ordered
    ``(path, members)`` lists, so it pins the class order, the member order
    and with it the representative; each class's size must count its
    members."""
    for turns in alternating_turn_sequences(2, 7):
        for spec in all_specs("".join(turns)):
            for n in range(4, 33, 4):
                listed = []
                for c in classes_of(spec, n):
                    members = list(c.members)
                    assert c.size == len(members)
                    listed.append((c.path, members))
                if listed != classify_strategies(
                        winners(spec, n), spec.initial):
                    yield spec, n


def winners(spec, n):
    """Q's winners in D_n, the members of every :func:`winning_classes`
    class re-sorted into the product order of ``isometries(n)``, the order
    a product scan finds them in."""
    rank = {p: i for i, p in enumerate(isometries(n))}
    return sorted((s for c in winning_classes(spec, n) for s in c.members),
                  key=lambda s: [rank[m] for m in s.moves])


def final_state_classes(spec, n):
    """A mutant of :func:`winning_classes` that merges the member lists of
    classes with the same final state."""
    groups = {}
    for c in winning_classes(spec, n):
        groups.setdefault(c.path[-1], (c.path, []))[1].extend(c.members)
    return [SimpleNamespace(path=path, members=members, size=len(members))
            for path, members in groups.values()]


class TestWinningClasses:
    def test_matches_the_fraction_replay(self):
        assert list(class_mismatches(winning_classes)) == []

    def test_grouping_by_final_state_alone_is_caught(self):
        assert next(class_mismatches(final_state_classes), None) is not None

    def test_flip_must_lie_in_the_group(self):
        with pytest.raises(FNotInGroup):
            winning_classes(PQG, 6)

    def test_listing_bound(self):
        with pytest.raises(SearchBudgetExceeded):
            winning_classes(GameSpec.from_string("QP" * 6 + "Q"), 8)

    @pytest.mark.parametrize("turns", ["QPQ", "QPQPQ", "QPQPQPQ"])
    def test_classes_are_products_of_stabilizer_cosets(self, turns):
        for spec in all_specs(turns):
            assert_coset_classes(spec, (16, 1024))

    def test_nine_rounds_at_d1024(self):
        assert_coset_classes(GameSpec.from_string("QPQPQPQPQ"), (1024,))


class TestCountLaw:
    """A closed form that shares no code with the search: with 8 | n and Q
    moving first and last, Q's q turns give 2^(q-1) classes of 4^q winners
    (each of the q - 1 intermediate states is |+> or |->, each move one of
    4 in its coset); every other game has none."""

    @pytest.mark.parametrize("n", [*range(4, 65, 4), 1024])
    def test_class_count_and_size(self, n):
        for turns in map("".join, alternating_turn_sequences(2, 12)):
            q = turns.count("Q")
            law = n % 8 == 0 and turns[0] == turns[-1] == "Q"
            expected = [4 ** q] * 2 ** (q - 1) if law else []
            for initial in BASIS:
                for target in BASIS:
                    spec = GameSpec.from_string(turns, initial, target)
                    assert ([c.size for c in winning_classes(spec, n)]
                            == expected), (n, turns, initial, target)

    @pytest.mark.parametrize("n", range(4, 65, 4))
    def test_pools_are_groups(self, n):
        # the search reads a set's preimages under a pool as its images
        for player in ("Q", "P"):
            pool = set(_pool(n, player))
            assert DihedralElement(n, 0) in pool
            assert {compose(a, b) for a in pool for b in pool} == pool


def assert_coset_classes(spec, sizes):
    """Q moves first and last: each of the q - 1 intermediate states is |+>
    or |->, and each of the q moves has a stabilizer coset of 4 choices,
    the same in D_8 as in every larger D_n with 8 | n."""
    q = spec.turn_count("Q")
    in_d8 = winning_classes(spec, 8)
    assert [c.size for c in in_d8] == [4 ** q] * 2 ** (q - 1)
    for n in sizes:
        assert winning_classes(spec, n) == in_d8


class TestDominance:
    def test_hadamard_pair_is_dominant(self):
        assert is_dominant(PQG, q_strategy(HADAMARD, HADAMARD), isometries(8))

    def test_identity_pair_is_not(self):
        assert not is_dominant(PQG, q_strategy(IDENTITY, IDENTITY), isometries(8))

    def test_no_dominant_picard_strategy_in_d4(self):
        for moves in itertools.product(PICARD_POOL, repeat=1):
            sigma = Strategy("P", moves)
            assert not is_dominant(PQG, sigma, PICARD_POOL,
                                   opp_pool=isometries(4))

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("turns", ["QPQ", "PQP"])
    def test_best_reply_matches_the_cross_product(self, turns, n):
        # Q plays D_n against the classical pool, and the classical player
        # the classical pool against D_n; only Q's sure winners dominate,
        # 32 per initial/target pair of QPQ in D_8
        pools = {"Q": (isometries(n), PICARD_POOL),
                 "P": (PICARD_POOL, isometries(n))}
        dominant = 0
        for spec in all_specs(turns):
            for owner, (own, opp) in pools.items():
                for moves in itertools.product(
                        own, repeat=spec.turn_count(owner)):
                    sigma = Strategy(owner, moves)
                    got = is_dominant(spec, sigma, own, opp)
                    assert got == dominates_by_scan(spec, sigma, own, opp), (
                        spec, sigma)
                    dominant += got
        assert dominant == (128 if (turns, n) == ("QPQ", 8) else 0)


class TestSynthesis:
    def test_d8_builds_the_32_winners(self):
        synthesized = {s.moves for s in synthesize_by_intermediate_states(PQG, 8)}
        enumerated = {s.moves for s in winners(PQG, 8)}
        assert synthesized == enumerated

    def test_first_moves_to_plus(self):
        firsts = {s.moves[0] for s in synthesize_by_intermediate_states(PQG, 8)
                  if state_path(s, KET_ZERO)[1] == KET_PLUS}
        assert firsts == {HADAMARD, R2,
                          PlanarIsometry(Angle(5, 8), True),
                          PlanarIsometry(Angle(5, 4))}

    def test_d12_has_no_safe_intermediate(self):
        assert synthesize_by_intermediate_states(PQG, 12) == []
        assert winning_classes(PQG, 12) == []

    def test_agrees_with_enumeration_in_larger_groups(self):
        for n in (16, 24, 32):
            synthesized = {s.moves
                           for s in synthesize_by_intermediate_states(PQG, n)}
            enumerated = {s.moves for s in winners(PQG, n)}
            assert synthesized == enumerated


def product_scan(spec, n):
    """Independent oracle: Q's winners in the full move-tuple product,
    lazily, in product order."""
    strategies = (Strategy("Q", moves) for moves in itertools.product(
        isometries(n), repeat=spec.turn_count("Q")))
    return (sigma for sigma in strategies if plays_every_reply(spec, sigma))


def all_specs(turns):
    return [GameSpec.from_string(turns, initial, target)
            for initial in BASIS for target in BASIS]


def fraction_walk(initial, choices, trail=False):
    """The tests' own play-out, sharing no code with the package's index
    walk: from *initial*, turn i may take any move of ``choices[i]``, by the
    ``Fraction`` action on plain angles mod pi.  The set of final states,
    or with *trail* the set before each turn and after the last; only these
    become CoinStates, so only they are held to 64 bits."""
    reached = [{initial.phi}]
    for step in choices:
        reached.append({image(g, phi) % 1 for g in step for phi in reached[-1]})
    return [{CoinState(phi) for phi in phis}
            for phis in (reached if trail else reached[-1:])]


def fraction_play_out(spec, sigma_q, sigma_p):
    """The final state of a play of both strategies, by the Fraction walk."""
    its = {"Q": iter(sigma_q.moves), "P": iter(sigma_p.moves)}
    [(final,)] = fraction_walk(spec.initial,
                               [(next(its[t]),) for t in spec.turns])
    return final


def forces_target(spec, sigma):
    """Oracle for :func:`is_winning_strategy` in time linear in the rounds:
    a Q strategy wins iff, with the classical player idle, the coin is fixed
    by the flip before each of that player's turns and ends on Q's target.
    Otherwise the states reachable under the classical player's choices
    hold two from that turn on, since Q's moves are bijections."""
    moves = iter(sigma.moves)
    state = spec.initial
    for t in spec.turns:
        if t == "Q":
            state = act(next(moves), state)
        elif act(FLIP, state) != state:
            return False
    return state == spec.target_q


def plays_every_reply(spec, sigma_q):
    """Independent oracle for :func:`is_winning_strategy`: play out every
    classical strategy, the whole product of the classical pool."""
    return all(
        fraction_play_out(spec, sigma_q, Strategy("P", pm)) == spec.target_q
        for pm in itertools.product(PICARD_POOL, repeat=spec.turn_count("P")))


def payoff(spec, own, opp):
    """The win probability of *own*'s owner when *own* meets *opp*."""
    sq, sp = (own, opp) if own.owner == "Q" else (opp, own)
    target = spec.target_q if own.owner == "Q" else spec.target_p
    return win_probability(fraction_play_out(spec, sq, sp), target)


@functools.cache
def best_payoffs(spec, owner, own_pool, opp_pool):
    """Each opponent strategy with the owner's best payoff against it over
    the owner's whole move-tuple product: the cross product, played out
    once per game and pair of pools."""
    opponent = "P" if owner == "Q" else "Q"
    return [(opp, max(payoff(spec, Strategy(owner, moves), opp)
                      for moves in itertools.product(
                          own_pool, repeat=spec.turn_count(owner))))
            for opp in (Strategy(opponent, moves) for moves in
                        itertools.product(opp_pool,
                                          repeat=spec.turn_count(opponent)))]


def dominates_by_scan(spec, sigma, own_pool, opp_pool):
    """Independent oracle for :func:`is_dominant`: against every opponent
    strategy, *sigma* does as well as the best of the full cross product."""
    return all(payoff(spec, sigma, opp) >= best for opp, best in best_payoffs(
        spec, sigma.owner, tuple(own_pool), tuple(opp_pool)))


def literal_brute_force(spec, n=8):
    """Independent oracle: scan the full strategy cross product."""
    pool = isometries(n)
    qc, pc = spec.turn_count("Q"), spec.turn_count("P")
    q_wins = any(
        all(fraction_play_out(spec, Strategy("Q", qm), Strategy("P", pm))
            == spec.target_q
            for pm in itertools.product(PICARD_POOL, repeat=pc))
        for qm in itertools.product(pool, repeat=qc))
    p_wins = any(
        all(fraction_play_out(spec, Strategy("Q", qm), Strategy("P", pm))
            == spec.target_p
            for qm in itertools.product(pool, repeat=qc))
        for pm in itertools.product(PICARD_POOL, repeat=pc))
    return q_wins, p_wins


class TestExtendedGames:
    def test_original_game_decision(self):
        decision = decide_extended_game(PQG)
        assert decision.q_wins
        assert decision.strategy == q_strategy(HADAMARD, HADAMARD)

    def test_flipped_target_strategy(self):
        spec = GameSpec.from_string("QPQPQ", KET_ONE, KET_ZERO)
        decision = decide_extended_game(spec)
        assert decision.q_wins
        assert decision.strategy == q_strategy(HADAMARD, IDENTITY,
                                               FLIP.compose(HADAMARD))
        assert is_winning_strategy(spec, decision.strategy)

    def test_picard_last_or_first_blocks_q(self):
        for turns in ("PQP", "QP", "PQ"):
            decision = decide_extended_game(GameSpec.from_string(turns))
            assert not decision.q_wins and not decision.picard_wins

    def test_brute_force_agrees_with_literal_scan(self):
        for turns in ("QP", "PQ", "QPQ", "PQP", "QPQP"):
            for spec in all_specs(turns):
                brute = brute_force_extended_check(spec)
                q_wins, p_wins = literal_brute_force(spec)
                assert brute.q_wins == q_wins
                assert brute.picard_wins == p_wins

    def test_brute_force_agrees_with_literal_scan_at_pool_16(self):
        for turns in ("QP", "PQ", "QPQ", "PQP", "QPQP"):
            for spec in all_specs(turns):
                brute = brute_force_extended_check(spec, 16)
                assert ((brute.q_wins, brute.picard_wins)
                        == literal_brute_force(spec, 16))
                if brute.q_wins:    # the witness is the first winner in order
                    assert brute.strategy == next(product_scan(spec, 16))

    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("turns", ["QPQ", "QPQP"])
    def test_witness_is_the_first_winner_at_larger_pools(self, turns, n):
        for spec in all_specs(turns):
            assert (brute_force_extended_check(spec, n).strategy
                    == next(product_scan(spec, n), None))

    def test_brute_force_matches_decision_up_to_nine_rounds(self):
        for turns in alternating_turn_sequences(2, 9):
            for spec in all_specs("".join(turns)):
                for n in (8, 32, 1024):
                    brute = brute_force_extended_check(spec, n)
                    assert brute.q_wins == decide_extended_game(spec).q_wins
                    assert not brute.picard_wins

    def test_q_first_and_last_always_wins(self):
        # every combination of initial and target admits a winning strategy
        for turns in alternating_turn_sequences(2, 9):
            if turns[0] != "Q" or turns[-1] != "Q":
                continue
            for initial in BASIS:
                for target in BASIS:
                    spec = GameSpec.from_string("".join(turns), initial, target)
                    decision = decide_extended_game(spec)
                    assert decision.q_wins
                    assert is_winning_strategy(spec, decision.strategy)

    @pytest.mark.parametrize("rounds", [13, 1201])
    def test_decisions_past_the_listing_bound(self, rounds):
        # no round bound: the brute-force witness is the first winner in
        # product order, not the Hadamard witness, so both must win
        for turns in alternating_turn_sequences(rounds, rounds):
            for spec in all_specs("".join(turns)):
                decided = decide_extended_game(spec)
                witnesses = {decided.strategy}
                for n in (8, 1024):
                    brute = brute_force_extended_check(spec, n)
                    assert ((brute.q_wins, brute.picard_wins)
                            == (decided.q_wins, decided.picard_wins))
                    assert (brute.strategy is None) == (decided.strategy is None)
                    witnesses.add(brute.strategy)
                for sigma in filter(None, witnesses):
                    assert forces_target(spec, sigma)
                    assert is_winning_strategy(spec, sigma)

    def test_win_sets_are_shared_at_any_length(self):
        # one reference per turn to a few sets, not one set per turn
        wins = _wins(GameSpec.from_string("QP" * 600 + "Q"), 1024, "Q")
        assert len(wins) == 1202 and len(set(map(id, wins))) <= 4

    def test_pool_requires_eighth_roots(self):
        with pytest.raises(FNotInGroup):
            brute_force_extended_check(PQG, n=4)


def scanned_wins(spec, n, owner):
    """``_wins`` as it was before the per-group fixed set: the opponent's
    turn tests each state of the next win set against every opponent
    move."""
    size = 2 * n
    opp = _pool(n, "P" if owner == "Q" else "Q")
    target = (spec.target_q if owner == "Q" else spec.target_p).index(size)
    wins = [frozenset({target})]
    for t in reversed(spec.turns):
        reached = set()
        for y in wins[-1]:
            if t == owner and y not in reached:
                reached.update(c for c, _ in games._images(n, owner, y))
            elif t != owner and all(g.act(y, size) == y for g in opp):
                reached.add(y)
        wins.append(frozenset(reached))
    wins.reverse()
    return wins


def searched(search, spec, n, owner):
    """What *search* gives, or the error of a pool not in D_n."""
    try:
        return search(spec, n, owner)
    except FNotInGroup:
        return FNotInGroup


class TestOpponentStep:
    """``_wins`` reads the opponent's turn off the per-group fixed set,
    ``_fixed``; the per-state scan it replaces is the oracle."""

    NS = [*range(3, 65), 1024]

    @pytest.mark.parametrize("owner", ["Q", "P"])
    def test_wins_equal_the_scan(self, owner):
        # every alternating game of 2-12 rounds, every basis initial and
        # target pair; a pool outside D_n raises in both
        for n in self.NS:
            for turns in alternating_turn_sequences(2, 12):
                for initial, target in itertools.product(BASIS, repeat=2):
                    spec = GameSpec(turns, initial, target,
                                    BASIS[target == BASIS[0]])
                    assert (searched(_wins, spec, n, owner)
                            == searched(scanned_wins, spec, n, owner)), (
                        n, turns, initial, target)

    @pytest.mark.parametrize("n", NS)
    def test_fixed_sets(self, n):
        # the classical pool fixes |+> and |-> and nothing else, which
        # join the basis orbit when 8 | n; every state has a stabilizer
        # smaller than D_n
        size = 2 * n
        assert games._fixed(n, "Q") == frozenset() == frozenset(
            y for y in range(size)
            if len(orbits.index_stabilizer(n, y, size)) == 2 * n)
        if n % 4:
            with pytest.raises(FNotInGroup):
                games._fixed(n, "P")
            return
        fixed = games._fixed(n, "P")
        assert fixed == {KET_PLUS.index(size), KET_MINUS.index(size)}
        assert fixed & set(basis_indices(n)) == {
            x.index(size) for x in fixed_set(n, PICARD_POOL)}


def scanned_fixed(n, player):
    """``_fixed`` as it was before it solved one move's congruence: each
    state of Z_2n tested against every pool move."""
    size = 2 * n
    return frozenset(y for y in range(size)
                     if all(g.act(y, size) == y for g in _pool(n, player)))


@pytest.mark.parametrize("player", ["Q", "P"])
def test_fixed_sets_equal_the_scan_at_every_n(player):
    # the classical pool lies in D_n only when 4 | n; both raise otherwise
    for n in range(3, 1025):
        if player == "P" and n % 4:
            for fixed in (games._fixed, scanned_fixed):
                with pytest.raises(FNotInGroup):
                    fixed(n, player)
        else:
            assert games._fixed(n, player) == scanned_fixed(n, player), n


def fraction_reachable(spec, sigma, pool):
    """The final states of *sigma* over every reply from *pool*, by the
    Fraction walk."""
    moves = iter(sigma.moves)
    return fraction_walk(spec.initial, [(next(moves),) if t == sigma.owner
                                        else pool for t in spec.turns])[0]


def fraction_path(sigma, initial):
    """The state path of *sigma*'s moves alone, by the Fraction walk."""
    return tuple(x for (x,) in fraction_walk(
        initial, [(m,) for m in sigma.moves], trail=True))


def fraction_dominant(spec, sigma, own_pool, opp_pool):
    """:func:`is_dominant`'s definition, every game played by the Fraction
    walk."""
    opponent, target = (("P", spec.target_q) if sigma.owner == "Q"
                        else ("Q", spec.target_p))
    for moves in itertools.product(opp_pool, repeat=spec.turn_count(opponent)):
        opp = Strategy(opponent, moves)
        pair = (sigma, opp) if opponent == "P" else (opp, sigma)
        p_sigma = win_probability(fraction_play_out(spec, *pair), target)
        if any(win_probability(x, target) > p_sigma
               for x in fraction_reachable(spec, opp, own_pool)):
            return False
    return True


def fraction_classes(strategies, initial):
    """:func:`classify_strategies` over the Fraction walk's paths."""
    groups = {}
    for sigma in strategies:
        groups.setdefault(fraction_path(sigma, initial), []).append(sigma)
    return sorted(groups.items(),
                  key=lambda item: [fraction(x.phi) for x in item[0]])


def fraction_characteristic(spec, sigma):
    """The characteristic properties by the Fraction walk: the pair wins,
    and the flip fixes the state its first move leaves."""
    if fraction_reachable(spec, sigma, PICARD_POOL) != {spec.target_q}:
        return False
    mid = act(sigma.moves[0], spec.initial)
    return act(FLIP, mid) == mid


def outcome(call, *args):
    """What *call* gives: its result, or the overflow it raises."""
    try:
        return call(*args)
    except ExactArithmeticOverflow:
        return ExactArithmeticOverflow


#: Angles p/q·π with q up to 10^6, negative or at or past either period.
ANGLES = st.integers(1, 10**6).flatmap(
    lambda q: st.builds(Angle, st.integers(-3 * q, 3 * q), st.just(q)))
#: Moves off every grid, or in D_8, where games are won.
MOVES = st.one_of(st.sampled_from(isometries(8)),
                  st.builds(PlanarIsometry, ANGLES, st.booleans()))
#: Pools: the image of some D_n, or a few moves off any grid.
POOLS = st.one_of(st.integers(3, 64).map(isometries),
                  st.lists(MOVES, min_size=1, max_size=3))
#: Initial states for a bare path, on or off the moves' grid.
STATES = st.one_of(st.sampled_from(BASIS), st.just(CoinState.of(1, 3)),
                   ANGLES.map(CoinState))


@st.composite
def specs(draw, turns=None):
    """An alternating game of 2-12 rounds, or of *turns*, with any initial
    and target basis states."""
    if turns is None:
        first = draw(st.sampled_from("QP"))
        turns = "".join(
            first if i % 2 == 0 else "PQ"[first == "P"]
            for i in range(draw(st.integers(2, 12))))
    return GameSpec.from_string(turns, draw(st.sampled_from(BASIS)),
                                draw(st.sampled_from(BASIS)))


def strategies(spec, owner, moves=MOVES):
    k = spec.turn_count(owner)
    return st.lists(moves, min_size=k, max_size=k).map(
        lambda ms: Strategy(owner, tuple(ms)))


class TestIndexWalk:
    """The package plays on indices of one grid Z_N; the Fraction walk
    above plays on angles.  Both must agree on every drawn game, with
    moves and initial states off each other's grids, including the
    overflow of a state returned wider than 64 bits."""

    @settings(deadline=None)
    @given(st.data())
    def test_play_out(self, data):
        spec = data.draw(specs())
        sq, sp = (data.draw(strategies(spec, owner)) for owner in "QP")
        assert (outcome(play_out, spec, sq, sp)
                == outcome(fraction_play_out, spec, sq, sp))

    @settings(deadline=None)
    @given(st.data())
    def test_reachable_and_winning(self, data):
        # Q's own winners too, which drawn moves seldom are
        spec = data.draw(specs())
        owner = data.draw(st.sampled_from("QP"))
        witnesses = [brute_force_extended_check(spec, n).strategy
                     for n in (8, 16)] if owner == "Q" else []
        sigma = data.draw(st.one_of(
            strategies(spec, owner), *map(st.just, filter(None, witnesses))))
        pool = data.draw(POOLS)
        assert (outcome(games._reachable, spec, sigma, pool)
                == outcome(fraction_reachable, spec, sigma, pool))
        if owner == "Q":
            assert (outcome(is_winning_strategy, spec, sigma)
                    == outcome(lambda: fraction_reachable(
                        spec, sigma, PICARD_POOL) == {spec.target_q}))

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_dominance(self, data):
        # pools small enough that the opponent's product stays short
        spec = data.draw(specs())
        owner = data.draw(st.sampled_from("QP"))
        own = data.draw(st.one_of(st.integers(3, 8).map(isometries),
                                  st.lists(MOVES, min_size=1, max_size=2)))
        opp = data.draw(st.one_of(st.just(PICARD_POOL),
                                  st.lists(MOVES, min_size=1, max_size=2)))
        sigma = data.draw(strategies(spec, owner, st.sampled_from(own)))
        assert (outcome(is_dominant, spec, sigma, own, opp)
                == outcome(fraction_dominant, spec, sigma, own, opp))

    @settings(deadline=None)
    @given(st.data())
    def test_paths_and_classes(self, data):
        # a few moves per example, so that paths meet and classes merge
        initial = data.draw(STATES)
        palette = data.draw(st.lists(MOVES, min_size=1, max_size=3))
        sigmas = data.draw(st.lists(
            st.lists(st.sampled_from(palette), max_size=12).map(
                lambda ms: Strategy("Q", tuple(ms))), min_size=1, max_size=5))
        for sigma in sigmas:
            assert (outcome(state_path, sigma, initial)
                    == outcome(fraction_path, sigma, initial))
        assert (outcome(classify_strategies, sigmas, initial)
                == outcome(fraction_classes, sigmas, initial))

    @settings(deadline=None)
    @given(st.data())
    def test_characteristic_properties(self, data):
        spec = data.draw(specs("QPQ"))
        sigma = data.draw(strategies(spec, "Q"))
        assert (outcome(verify_characteristic_properties, spec, sigma)
                == outcome(fraction_characteristic, spec, sigma))

    def test_only_a_returned_state_is_held_to_64_bits(self):
        # a + b needs 82 bits: play passes through it and comes back, but a
        # path that returns it overflows
        a = PlanarIsometry(Angle(1, 2**40))
        b = PlanarIsometry(Angle(1, 3**26))
        back_a = PlanarIsometry(-fraction(a.angle))
        back_b = PlanarIsometry(-fraction(b.angle))
        assert play_out(GameSpec.from_string("QPQP"), q_strategy(a, back_a),
                        p_strategy(b, back_b)) == KET_ZERO
        with pytest.raises(ExactArithmeticOverflow):
            state_path(q_strategy(a, b), KET_ZERO)
