"""The library's input guards: each call below is refused by one guard, and
the refusal is that guard's exception type with its full message. A guard
whose raise were deleted would let the call through, or fail later with
another error."""

from fractions import Fraction as F

import pytest

from builders import small_algebra
from mvlogic import interlab, mv_core, polyadic, semantics, transform
from mvlogic.interlab import PremiseNotEntailed, VocabSplit
from mvlogic.mv_core import STANDARD, Chain, TableAlgebra
from mvlogic.polyadic import SignatureError, TruncationError
from mvlogic.syntax import (
    AdmissionError, Atom, Forall, LanguageSpec, ParseError, parse, substitute,
)
from mvlogic.transform import (
    SUC, FinTransformation, IndexSetMismatch, OmegaMap, SemigroupSpec,
)

LANG = LanguageSpec(num_vars=5, reserve=1,
                    predicates=(("p", 2), ("q", 1), ("r", 0)))
PROPS = LanguageSpec(num_vars=2, reserve=1, predicates=(("p", 0), ("q", 0)))
P, Q = Atom("p", ()), Atom("q", ())
I2, I3 = (0, 1), (0, 1, 2)


def _replacement_only():
    """|I| = 3 over the semigroup {id, [0|1]}: it has s_[0|1] but not the
    s_[0|2] that term_substitution routes [0|1] through."""
    return polyadic.build_generated(
        I3, 2, Chain(2), [],
        SemigroupSpec((FinTransformation.replacement(I3, 0, 1),), 10),
        "powerset")


def _term_substitution_without_room():
    algebra = _replacement_only()
    return polyadic.term_substitution(
        algebra, FinTransformation.replacement(I3, 0, 1), algebra.zero)


def _search(a, b, x1, x2, **kw):
    return interlab.interpolant_search(
        a, b, VocabSplit(frozenset(x1), frozenset(x2)), 2, **kw)


GUARDS = {
    # syntax
    "unexpected-character": (
        lambda: parse("r $ r", LANG),
        ParseError, "unexpected character '$' (at position 1)"),
    "trailing-input": (
        lambda: parse("r r", LANG),
        ParseError, "trailing input 'r' (at position 2)"),
    "block-separator": (
        lambda: parse("A{v0 v1} r", LANG),
        ParseError, "',' or '}' expected in block (at position 5)"),
    "unknown-variable": (
        lambda: parse("A{v9} r", LANG),
        ParseError, "unknown variable 'v9' (at position 2)"),
    "block-variable": (
        lambda: parse("A{(} r", LANG),
        ParseError, "variable expected in quantifier block (at position 2)"),
    "argument-separator": (
        lambda: parse("p(v0 v1)", LANG),
        ParseError, "',' or ')' expected (at position 5)"),
    "argument-variable": (
        lambda: parse("q(r)", LANG),
        ParseError, "variable expected, found 'r' (at position 2)"),
    "duplicate-predicates": (
        lambda: LanguageSpec(3, 1, (("p", 1), ("p", 2))),
        ValueError, "duplicate predicate declarations"),
    "block-image-escapes": (
        lambda: substitute({"v0": "w"}, Forall(frozenset({"v0"}),
                                               Atom("r", ())), LANG),
        AdmissionError, "block image ['w'] escapes the scope family"),
    # transform
    "unsorted-domain": (
        lambda: FinTransformation((1, 0), (0, 1)),
        ValueError, "domain must be sorted"),
    "value-table-length": (
        lambda: FinTransformation(I2, (0,)),
        ValueError, "value table must match the domain"),
    "apply-outside": (
        lambda: FinTransformation.identity(I2).apply(5),
        ValueError, "5 is outside the index set"),
    "negative-omega-point": (
        lambda: OmegaMap.make({-1: 0}, 0),
        ValueError, "omega maps act on the naturals"),
    "closure-mixed-kinds": (
        lambda: transform.semigroup_closure(SemigroupSpec(
            (SUC, FinTransformation.identity(I2)), 10)),
        IndexSetMismatch, "generators mix transformation kinds"),
    "closure-index-sets": (
        lambda: transform.semigroup_closure(SemigroupSpec(
            (FinTransformation.identity(I2),
             FinTransformation.identity(I3)), 10)),
        IndexSetMismatch, "generators live on different index sets"),
    "pred-with-domain": (
        lambda: transform.parse_transformation("pred", I2),
        ValueError, "pred is not a finite-set transformation"),
    "bad-bracket": (
        lambda: transform.parse_transformation("[0]", I2),
        ValueError, "bad bracket literal '[0]'"),
    # polyadic
    "generator-length": (
        lambda: polyadic.build_generated(I2, 2, Chain(2), [(F(0),)], "full",
                                         "powerset"),
        ValueError, "generator has 1 entries, expected 4"),
    "truncated-semigroup": (
        lambda: polyadic.build_generated(
            I3, 2, Chain(2), [], SemigroupSpec(
                (FinTransformation.replacement(I3, 0, 1),
                 FinTransformation.transposition(I3, 1, 2)), 2),
            "powerset"),
        TruncationError, "semigroup closure hit its cap; raise it first"),
    "missing-substitution-table": (
        lambda: polyadic.AbstractPolyadicAlgebra(
            Chain(2), (0,), (FinTransformation.identity((0,)),),
            (frozenset(),), {}, {}),
        SignatureError, "missing substitution table for {0->0}"),
    "missing-cylinder-table": (
        lambda: polyadic.AbstractPolyadicAlgebra(
            Chain(2), (0,), (FinTransformation.identity((0,)),),
            (frozenset(),), {FinTransformation.identity((0,)): (0, 1)}, {}),
        SignatureError, "missing cylinder table for []"),
    "abstract-scope-outside": (
        lambda: polyadic.AbstractPolyadicAlgebra(
            Chain(2), (0,), (FinTransformation.identity((0,)),),
            (frozenset(), frozenset({0, 1})), {}, {}),
        SignatureError, "scope [0, 1] escapes the index set"),
    "abstract-map-elsewhere": (
        lambda: polyadic.AbstractPolyadicAlgebra(
            Chain(2), (0,), (FinTransformation.identity((0, 1)),),
            (frozenset(),), {}, {}),
        SignatureError, "semigroup lives on a different index set"),
    "neat-alpha-outside": (
        lambda: polyadic.neat_reduct(small_algebra(), {5}),
        SignatureError, "alpha must be a subset of the index set"),
    "neat-unknown-flavor": (
        lambda: polyadic.neat_reduct(small_algebra(), {0}, "Other"),
        ValueError, "unknown flavor 'Other'"),
    "term-substitution-replacement": (
        _term_substitution_without_room,
        SignatureError, "{0->2,1->1,2->2} is not in the semigroup"),
    # interlab
    "left-vocabulary": (
        lambda: _search(Q, P, {"p"}, {"p", "q"}),
        ValueError, "left formula strays outside its vocabulary"),
    "right-vocabulary": (
        lambda: _search(P, Q, {"p"}, {"p"}),
        ValueError, "right formula strays outside its vocabulary"),
    "unknown-scope": (
        lambda: _search(P, P, {"p"}, {"p"}, scope="other"),
        ValueError, "unknown scope 'other'"),
    "bounded-model-language": (
        lambda: _search(P, P, {"p"}, {"p"}, scope=("bounded-model", 1)),
        ValueError, "bounded-model scope needs the language"),
    "bounded-model-premise": (
        lambda: _search(P, Q, {"p"}, {"q"}, scope=("bounded-model", 1),
                        language=PROPS),
        PremiseNotEntailed, "p does not entail q up to |M|=1"),
    # mv_core
    "unknown-connective": (
        lambda: mv_core.eval_basic("xor", (F(0), F(1)), Chain(2)),
        ValueError, "unknown connective 'xor'"),
    "connective-arity": (
        lambda: mv_core.eval_basic("neg", (F(0), F(1)), Chain(2)),
        ValueError, "neg takes 1 argument(s)"),
    "unknown-tnorm": (
        lambda: mv_core.tnorm_eval("drastic", F(0), F(1)),
        ValueError, "unknown t-norm 'drastic'"),
    "unknown-audit-mode": (
        lambda: mv_core.check_mv_axioms(Chain(2), mode="other"),
        ValueError, "unknown audit mode 'other'"),
    "exhaustive-standard": (
        lambda: mv_core.check_mv_axioms(STANDARD),
        ValueError, "exhaustive audit needs a finite algebra"),
    "oplus-entry-range": (
        lambda: TableAlgebra(["0", "1"], [[0, 1], [1, 2]], [1, 0], 0, 1),
        ValueError, "oplus table entry out of range"),
    "neg-entry-range": (
        lambda: TableAlgebra(["0", "1"], [[0, 1], [1, 1]], [1, 5], 0, 1),
        ValueError, "neg table entry out of range"),
    # semantics
    "model-misses-point": (
        lambda: semantics.Model(LANG, 2, Chain(2), {"q": {(0,): F(1)}}),
        ValueError, "table for q misses (1,)"),
    "assignment-row-order": (
        lambda: semantics.assignment_row(
            parse("p(v0, v1)", LANG),
            semantics.Model(LANG, 1, Chain(2), {"p": {(0, 0): F(1)}}),
            ("v1", "v0")),
        ValueError, "('v1', 'v0') does not list the free variables of the "
                    "formula in order"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_refuses_with_its_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
