"""The eight value classes: immutable tuples that compare within their class.

Within a class, equality, hash and order are those of the field tuple, the
tuple the value holds.  A value never equals a bare tuple or a value of
another class holding the same tuple, and ordering it against either
raises ``TypeError``.
"""

import copy
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pennyflip.config import Config
from pennyflip.dihedral import (FLIP, HADAMARD, IDENTITY, DihedralElement,
                                PlanarIsometry)
from pennyflip.games import (Decision, GameSpec, Strategy, StrategyClass,
                             alternating_turn_sequences)
from pennyflip.states import BASIS, CoinState
from pennyflip.values import build

# Small ranges, so that two draws are often equal.
angles = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
isometries = st.builds(PlanarIsometry, angles, st.booleans())
states = st.builds(CoinState, angles)
strategies = st.builds(Strategy, st.sampled_from("PQ"), st.tuples(
    st.sampled_from((IDENTITY, FLIP, HADAMARD))))

VALUES = {
    DihedralElement: st.integers(3, 4).flatmap(lambda n: st.builds(
        DihedralElement, st.just(n), st.integers(0, n - 1), st.booleans())),
    PlanarIsometry: isometries,
    CoinState: states,
    GameSpec: st.builds(
        GameSpec.from_string,
        st.sampled_from(alternating_turn_sequences(2, 3)).map("".join),
        st.sampled_from(BASIS), st.sampled_from(BASIS)),
    Strategy: strategies,
    StrategyClass: st.builds(StrategyClass, st.lists(states, max_size=2).map(
        tuple), st.lists(st.lists(isometries, max_size=2).map(tuple),
                         max_size=2).map(tuple)),
    Decision: st.builds(Decision, st.booleans(), st.none() | strategies,
                        st.booleans()),
    Config: st.builds(Config, n_max=st.integers(3, 4),
                      max_rounds=st.integers(2, 3), seed=st.integers(0, 1)),
}
COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge)


def outcome(op, a, b):
    try:
        return op(a, b)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_compares_as_its_field_tuple_within_its_class(cls, data):
    x, y = data.draw(VALUES[cls]), data.draw(VALUES[cls])
    assert type(x) is type(y) is cls
    assert hash(x) == hash(tuple(x)) and copy.copy(x) == x
    for op in COMPARISONS:
        assert outcome(op, x, y) == outcome(op, tuple(x), tuple(y)), op
        assert outcome(op, x, x) == outcome(op, tuple(x), tuple(x)), op


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_never_equals_a_bare_tuple_or_another_class(cls, data):
    x = data.draw(VALUES[cls])
    others = [build(other, tuple(x)) for other in VALUES if other is not cls]
    for y in [tuple(x), *others]:
        assert not x == y and not y == x and x != y and y != x
        for op in COMPARISONS[2:]:
            assert outcome(op, x, y) is outcome(op, y, x) is TypeError


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_is_immutable(cls, data):
    x = data.draw(VALUES[cls])
    for name in [*x._fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_config_replace_checks_the_new_fields():
    cfg = Config()
    assert cfg.replace(seed=3) == Config(seed=3) and cfg == Config()
    with pytest.raises(ValueError):
        cfg.replace(n_min=2)
    with pytest.raises(TypeError):
        cfg.replace(bogus=1)

