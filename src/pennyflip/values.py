"""Immutable value classes: named tuples that compare within their class.

Each value class subclasses :class:`Value` and a ``namedtuple`` of its
fields, which gives it C field getters, ``repr`` and pickling; a class that
checks or reduces its fields does so in ``__new__``.  Importing the package
loads neither ``dataclasses`` nor ``inspect``: a dataclass ``exec``s the
source of its generated methods when it is declared, which with those
imports cost a cold start about 14 ms.
"""

from __future__ import annotations

import operator


def _within_class(name: str):
    """Comparison *name* of the field tuples of two values of one class;
    otherwise that of their classes, under which only ``!=`` holds and an
    order raises ``TypeError``."""
    fields, classes = getattr(tuple, name), getattr(operator, name)
    return lambda a, b: (fields(a, b) if type(b) is type(a)
                         else classes(type(a), type(b)))


class Value(tuple):
    """Equality, hash and order of the field tuple, among the values of one
    class only: a value never equals a bare tuple or another class's value."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = map(_within_class, (
        "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"))


#: ``build(cls, fields)``: the value of *cls* holding the tuple *fields*,
#: as checked or reduced by the caller, since ``cls.__new__`` does not run.
build = tuple.__new__
