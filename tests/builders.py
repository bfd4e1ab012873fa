"""Shared builders for the test suite, imported by its test files."""

import functools
import itertools
import random
from fractions import Fraction

from mvlogic.mv_core import Chain, TableAlgebra, _coding, format_value
from mvlogic.polyadic import build_generated


def to_table(algebra, audit=True):
    """Any finite algebra as an explicit TableAlgebra, labelled by its
    elements (a value of a chain in its "p/q" form)."""
    V, _, dec = _coding(algebra)
    labels = [format_value(v) if isinstance(v, Fraction) else v
              for v in map(dec, V.carrier)]
    return TableAlgebra(labels, V.oplus, V.neg, V.zero, V.one, audit=audit)


def element_implies(algebra, p, q):
    """p -> q as ~p (+) q, on an algebra's element operations."""
    return algebra.oplus(algebra.neg(p), q)


def assignments(index_size, base_size):
    return list(itertools.product(range(base_size), repeat=index_size))


def pattern_of(x):
    """Equality-pattern class of a length-3 assignment (4 classes)."""
    if x[0] == x[1] == x[2]:
        return 0
    if x[0] == x[1]:
        return 1
    if x[0] == x[2]:
        return 2
    return 3


def pattern_generator(rng, chain):
    """Random element constant on equality-pattern classes.

    These stay inside an 81-element subuniverse over a three-point index
    set, which keeps closures exhaustive-auditable.
    """
    values = [chain.carrier[rng.randrange(chain.n)] for _ in range(4)]
    return tuple(values[pattern_of(x)] for x in assignments(3, 2))


def coordinate_generator(index_size, base_size, coord):
    """0/1 indicator of assignment coordinate `coord` being 0."""
    return tuple(
        Fraction(1) if x[coord] == 0 else Fraction(0)
        for x in assignments(index_size, base_size)
    )


@functools.cache
def henkin_demo_algebra():
    """(algebra, g): |I|=3, |X|=2, two-valued chain, one generator g with
    dimension {0}; built once, shared by the tests that read it."""
    g = coordinate_generator(3, 2, 0)
    return build_generated((0, 1, 2), 2, Chain(2), [g], "full", "powerset",
                           cap=300), g


def small_algebra():
    """|I|=2, |X|=2, three-valued chain, one non-boolean generator."""
    assigns = list(itertools.product((0, 1), repeat=2))
    g = tuple(Fraction(1, 2) if x[0] == 0 else Fraction(0) for x in assigns)
    return build_generated((0, 1), 2, Chain(3), [g], "full", "powerset",
                           cap=120)


def pattern_algebra():
    """|I|=3, |X|=2, three-valued chain, one pattern-class generator."""
    rng = random.Random(3)
    chain = Chain(3)
    return build_generated((0, 1, 2), 2, chain,
                           [pattern_generator(rng, chain)], "full",
                           "powerset", cap=200)
