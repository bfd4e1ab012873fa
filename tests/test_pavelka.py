import itertools
import json
import pathlib
import re
from fractions import Fraction as F

import pytest

from mvlogic.interlab import HenkinFilter, henkin_filter_build
from mvlogic.mv_core import (
    CarrierError, Chain, Filter, ONE, ZERO, _coding, _instance,
    clause_result, parse_value, principal_filter,
)
from mvlogic.pavelka import (
    GradedContext, PavelkaAlgebra, _degrees, constants_check, degree,
    degree_dual, degree_forms_check, functional_pavelka, pavelka_lemma_check,
    pavelka_quantifier_check, pavelka_representation,
)
from mvlogic.polyadic import (
    SignatureError, algebra_from_json, build_generated,
)
from builders import coordinate_generator, element_implies


def chain_context(n):
    chain = Chain(n)
    pav = PavelkaAlgebra.full_chain(chain)
    flt = principal_filter(chain, chain.one)
    return chain, pav, flt


class TestConstants:
    def test_full_chain_laws(self):
        for n in range(2, 6):
            _, pav, _ = chain_context(n)
            assert constants_check(pav).passed

    @pytest.mark.parametrize("key", [F(-1, 4), F(1, 3), F(2)])
    def test_constant_off_the_chain_rejected(self, key):
        chain = Chain(5)
        # the key as written, not its repr
        with pytest.raises(ValueError, match=re.escape(
                f"{key} is not in the carrier of Chain(5)")):
            PavelkaAlgebra.make(chain, chain, {key: chain.one})

    def test_constant_outside_the_base_rejected(self):
        chain = Chain(5)
        with pytest.raises(CarrierError, match=re.escape(
                "1/7 is not in the carrier of Chain(5)")):
            PavelkaAlgebra.make(chain, chain, {F(1, 2): F(1, 7)})

    def test_corrupt_constants_detected(self):
        chain = Chain(5)
        table = {r: r for r in chain.carrier}
        table[F(1, 4)], table[F(1, 2)] = table[F(1, 2)], table[F(1, 4)]
        bad = PavelkaAlgebra.make(chain, chain, table)
        assert not constants_check(bad).passed


class TestDegree:
    def test_degree_of_one(self):
        _, pav, flt = chain_context(5)
        ctx = GradedContext(pav, flt)
        assert degree(Chain(5).one, ctx) == F(1)

    def test_degree_of_zero(self):
        _, pav, flt = chain_context(5)
        ctx = GradedContext(pav, flt)
        assert degree(Chain(5).zero, ctx) == F(0)

    def test_degree_is_value_for_unit_filter(self):
        # r-bar -> a lands in {1} exactly when r <= a, so the sup is a
        chain, pav, flt = chain_context(6)
        ctx = GradedContext(pav, flt)
        for a in chain.carrier:
            assert degree(a, ctx) == a

    def test_forms_agree_on_chains(self):
        for n in range(2, 6):
            chain, pav, flt = chain_context(n)
            assert degree_forms_check(pav, flt).passed
            # and the only proper filter of a chain is the unit filter
            from mvlogic.mv_core import maximal_filters
            assert [f.members for f in maximal_filters(chain)] \
                == [frozenset({F(1)})]

    def test_degree_homomorphism_for_maximal_filter(self):
        chain, pav, flt = chain_context(5)
        ctx = GradedContext(pav, flt)
        for a, b in itertools.product(chain.carrier, repeat=2):
            assert degree(chain.oplus(a, b), ctx) \
                == chain.oplus(degree(a, ctx), degree(b, ctx))
            assert degree(chain.odot(a, b), ctx) \
                == chain.odot(degree(a, ctx), degree(b, ctx))
        for a in chain.carrier:
            assert degree(chain.neg(a), ctx) == chain.neg(degree(a, ctx))

    @pytest.mark.parametrize("form", [degree, degree_dual])
    def test_element_outside_the_base_rejected(self, form):
        # a chain's degree and a functional algebra's, each refused with
        # the error its base's check_args raises, naming the element
        _, pav, flt = chain_context(5)
        with pytest.raises(CarrierError, match=re.escape(
                "1/7 is not in the carrier of Chain(5)")):
            form(F(1, 7), GradedContext(pav, flt))
        algebra = build_generated((0, 1), 2, Chain(2), [], "full",
                                  "powerset", cap=40)
        pav = functional_pavelka(algebra)
        flt = principal_filter(algebra, algebra.one)
        stranger = (F(1, 7),) * 4
        with pytest.raises(SignatureError, match=re.escape(
                f"{stranger!r} is not a carrier element")):
            form(stranger, GradedContext(pav, flt))

    def test_context_requires_proper_filter(self):
        chain, pav, _ = chain_context(3)
        improper = Filter(chain, frozenset(chain.carrier))
        with pytest.raises(ValueError):
            GradedContext(pav, improper)


class TestFilterOfAnotherAlgebra:
    """Degrees read a filter's view indices, so a filter must index as the
    Pavelka algebra's base does."""

    def test_context_refuses_a_longer_chain(self):
        pav = PavelkaAlgebra.full_chain(Chain(3))
        with pytest.raises(ValueError, match=r"Chain\(5\).*Chain\(3\)"):
            GradedContext(pav, Filter(Chain(5), frozenset({ONE})))

    def test_lemma_check_refuses_a_longer_chain(self):
        pav = PavelkaAlgebra.full_chain(Chain(3))
        with pytest.raises(ValueError, match="is no filter of"):
            pavelka_lemma_check(pav, Filter(Chain(5), frozenset({ONE})))

    def test_equal_chains_index_alike(self):
        pav = PavelkaAlgebra.full_chain(Chain(5))
        ctx = GradedContext(pav, Filter(Chain(5), frozenset({ONE})))
        assert [degree(a, ctx) for a in Chain(5).carrier] \
            == list(Chain(5).carrier)


class TestLemma:
    def test_holds_on_chains(self):
        for n in range(2, 6):
            _, pav, flt = chain_context(n)
            assert pavelka_lemma_check(pav, flt).passed

    def test_unit_constant_always_member(self):
        chain, pav, flt = chain_context(4)
        assert pav.constant(F(1)) in flt.members

    def test_corrupt_constants_fail_lemma(self):
        chain = Chain(5)
        table = {r: r for r in chain.carrier}
        table[F(1, 4)], table[F(1, 2)] = table[F(1, 2)], table[F(1, 4)]
        bad = PavelkaAlgebra.make(chain, chain, table)
        flt = principal_filter(chain, chain.one)
        report = pavelka_lemma_check(bad, flt)
        assert not report.passed
        assert any(r.witness for r in report.failures())


def constants_algebra(n, index_size=2):
    chain = Chain(n)
    size = 2 ** index_size
    consts = [tuple(r for _ in range(size)) for r in chain.carrier]
    return build_generated(tuple(range(index_size)), 2, chain, consts,
                           "full", "powerset", cap=60)


class TestQuantifierInvariance:
    def test_constants_invariant_under_all_scopes(self):
        algebra = constants_algebra(5)
        pav = functional_pavelka(algebra)
        assert pavelka_quantifier_check(pav, algebra).passed

    def test_three_index_exhaustive(self):
        chain = Chain(3)
        consts = [tuple(r for _ in range(8)) for r in chain.carrier]
        algebra = build_generated((0, 1, 2), 2, chain, consts, "full",
                                  "powerset", cap=60)
        pav = functional_pavelka(algebra)
        report = pavelka_quantifier_check(pav, algebra)
        assert report.passed

    def test_missing_constants_rejected(self):
        algebra = build_generated((0, 1), 2, Chain(5), [], "full",
                                  "powerset", cap=40)
        with pytest.raises(ValueError):
            functional_pavelka(algebra)


class TestRepresentation:
    def test_constants_algebra_full_audit(self):
        algebra = constants_algebra(5)
        pav = functional_pavelka(algebra)
        hf = henkin_filter_build(algebra, algebra.one)
        assert isinstance(hf, HenkinFilter)
        psi, audit = pavelka_representation(algebra, pav, hf)
        assert audit.passed
        at = algebra.indexed().index_of
        for r in pav.levels:
            assert set(psi[at[pav.constant(r)]]) \
                == {pav.chain.carrier.index(r)}

    def test_psi_of_units(self):
        algebra = constants_algebra(3)
        pav = functional_pavelka(algebra)
        hf = henkin_filter_build(algebra, algebra.one)
        psi, _ = pavelka_representation(algebra, pav, hf)
        V = algebra.indexed()
        assert set(psi[V.one]) == {pav.chain.n - 1}
        assert set(psi[V.zero]) == {0}

    def test_generated_boolean_algebra_audit(self):
        g = coordinate_generator(2, 2, 0)
        algebra = build_generated((0, 1), 2, Chain(2), [g], "full",
                                  "powerset", cap=60)
        pav = functional_pavelka(algebra)
        hf = henkin_filter_build(algebra, g)
        assert isinstance(hf, HenkinFilter)
        psi, audit = pavelka_representation(algebra, pav, hf)
        assert audit.passed
        from mvlogic.transform import FinTransformation
        ident_at = algebra.transformations.index(
            FinTransformation.identity((0, 1)))
        # the seed survives at the identity
        assert psi[algebra.indexed().index_of[g]][ident_at] != 0


    def test_partial_constants_read_the_sup_form(self):
        # with no cylindrification the constant functions are only those
        # the generators make, 0, 1/2 and 1 of Chain(5); at an element
        # worth 1/4 at the filter's point the sup form reads 0 and the inf
        # form 1/2, and psi is the sup form's
        chain = Chain(5)
        points = list(itertools.product(range(2), repeat=2))
        quarter = tuple(F(1, 4) if x == (0, 0) else ZERO for x in points)
        algebra = build_generated((0, 1), 2, chain, [(F(1, 2),) * 4,
                                                     quarter], "full", [],
                                  cap=400)
        pav = functional_pavelka(algebra, require_full=False)
        assert pav.levels == (ZERO, F(1, 2), ONE)
        hf = henkin_filter_build(algebra, algebra.one)
        ctx = GradedContext(pav, hf.filter)
        assert any(degree(a, ctx) != degree_dual(a, ctx)
                   for a in algebra.carrier)
        psi, _ = pavelka_representation(algebra, pav, hf)
        V = algebra.indexed()
        for i in V.carrier:
            assert list(psi[i]) == [
                chain.carrier.index(degree(V.elements[V.subst[x][i]], ctx))
                for x in algebra.transformations]


class TestOneVerdictRecord:
    """Every auditor reports through mv_core's verdict records."""

    def test_every_audit_returns_an_audit_report(self):
        from mvlogic import interlab, mv_core
        from mvlogic.polyadic import audit_axioms
        algebra = constants_algebra(3)
        pav = functional_pavelka(algebra)
        hf = henkin_filter_build(algebra, algebra.one)
        chain, chain_pav, flt = chain_context(3)
        reports = {
            "audit_axioms": audit_axioms(algebra),
            "representation_map": interlab.representation_map(algebra,
                                                              hf)[1],
            "pavelka_representation": pavelka_representation(
                algebra, pav, hf)[1],
            "constants_check": constants_check(chain_pav),
            "pavelka_lemma_check": pavelka_lemma_check(chain_pav, flt),
            "degree_forms_check": degree_forms_check(chain_pav, flt),
            "pavelka_quantifier_check": pavelka_quantifier_check(pav,
                                                                 algebra),
            "check_mv_axioms": mv_core.check_mv_axioms(chain),
        }
        for name, report in reports.items():
            assert isinstance(report, mv_core.AuditReport), name
            assert report.passed, name

    def test_interlab_and_pavelka_share_the_clause_record(self):
        from mvlogic import interlab, mv_core
        algebra = constants_algebra(3)
        pav = functional_pavelka(algebra)
        hf = henkin_filter_build(algebra, algebra.one)
        _, chain_pav, _ = chain_context(3)
        records = [
            *interlab.representation_map(algebra, hf)[1].results,
            *pavelka_representation(algebra, pav, hf)[1].results,
            *constants_check(chain_pav).results,
            *pavelka_quantifier_check(pav, algebra).results,
        ]
        assert {type(r) for r in records} == {mv_core.ClauseResult}

    def test_quantifier_law_names_its_count(self):
        algebra = constants_algebra(3)
        pav = functional_pavelka(algebra)
        (result,) = pavelka_quantifier_check(pav, algebra).results
        cases = len(pav.levels) * len(algebra.scopes)
        assert result.clause == f"exists-r-equals-r({cases} cases)"


# The laws as they were checked before they read the indexed view: the
# base's own operations on elements, filter members in element form.
def element_degree(a, ctx):
    base = ctx.algebra.base
    members = ctx.filter.members
    best = ZERO
    for r in ctx.algebra.levels:
        if element_implies(base, ctx.algebra.constant(r), a) in members \
                and r > best:
            best = r
    return best


def element_degree_dual(a, ctx):
    base = ctx.algebra.base
    members = ctx.filter.members
    best = ONE
    for r in ctx.algebra.levels:
        if element_implies(base, a, ctx.algebra.constant(r)) in members \
                and r < best:
            best = r
    return best


def element_constants_check(pav):
    base, chain, bar = pav.base, pav.chain, pav.constant
    return (
        clause_result("zero-constant",
                      [_instance(bar(ZERO), base.zero, (ZERO,))]),
        clause_result("oplus-compatible", (
            _instance(base.oplus(bar(r), bar(s)), bar(chain.oplus(r, s)),
                      (r, s))
            for r, s in itertools.product(pav.levels, repeat=2))),
        clause_result("neg-compatible", (
            _instance(base.neg(bar(r)), bar(chain.neg(r)), (r,))
            for r in pav.levels)),
    )


def element_degree_forms_check(pav, flt):
    ctx = GradedContext(pav, flt)
    return (clause_result("degree-sup-equals-inf", (
        _instance(up, down, (a, up, down)) for a in pav.base.carrier
        for up, down in [(element_degree(a, ctx),
                          element_degree_dual(a, ctx))])),)


def element_pavelka_lemma_check(pav, flt):
    base, bar, members = pav.base, pav.constant, flt.members
    return (
        clause_result("membership-iff-one", (
            _instance(bar(r) in members, r == ONE, (r,))
            for r in pav.levels)),
        clause_result("quotient-order-matches", (
            _instance(element_implies(base, bar(r), bar(s)) in members,
                      r <= s, (r, s))
            for r, s in itertools.product(pav.levels, repeat=2))),
    )


GOLDEN_INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


def golden_case(name):
    """The Pavelka algebra and filter of `pavelka degree` on a golden spec
    under filter-top.json, built as the command line builds them."""
    data = json.loads((GOLDEN_INPUTS / name).read_text())
    algebra = algebra_from_json(data)
    if "constants" in data:
        pav = PavelkaAlgebra.make(algebra, algebra.chain, {
            parse_value(k): algebra.carrier[i]
            for k, i in data["constants"].items()})
    else:
        pav = functional_pavelka(algebra, require_full=False)
    top = json.loads((GOLDEN_INPUTS / "filter-top.json").read_text())
    return pav, Filter(algebra, frozenset(
        algebra.carrier[i] for i in top["members"]))


def swapped_chain_case(r, s):
    """Chain(5) over itself with the constants of r and s swapped."""
    chain = Chain(5)
    table = {v: v for v in chain.carrier}
    table[r], table[s] = table[s], table[r]
    return (PavelkaAlgebra.make(chain, chain, table),
            principal_filter(chain, chain.one))


SWAPS = list(itertools.combinations(Chain(5).carrier, 2))

CASES = {
    **{f"chain-{n}": (lambda n=n: chain_context(n)[1:]) for n in range(2, 10)},
    **{f"swap-{r}-{s}": (lambda r=r, s=s: swapped_chain_case(r, s))
       for r, s in SWAPS},
    **{name: (lambda name=name: golden_case(name))
       for name in ("l5.json", "l5-constants.json")},
}


# Constant tables that miss some levels, so that a degree can fall back to
# its default (0 for the sup form, 1 for the inf form)
PARTIAL = {
    "upper-half": {F(1, 2): F(1, 2), F(3, 4): F(3, 4), ONE: ONE},
    "no-one": {ZERO: ZERO, F(1, 2): F(1, 2)},
    "one-at-zero": {F(1, 4): ONE, ONE: ZERO},
}


def triples(report):
    return [(c.clause, c.holds, c.witness) for c in report]


def assert_same_degree_laws(pav, flt):
    assert triples(pavelka_lemma_check(pav, flt).results) \
        == triples(element_pavelka_lemma_check(pav, flt))
    assert triples(degree_forms_check(pav, flt).results) \
        == triples(element_degree_forms_check(pav, flt))
    ctx = GradedContext(pav, flt)
    for a in pav.base.carrier:
        assert (degree(a, ctx), degree_dual(a, ctx)) \
            == (element_degree(a, ctx), element_degree_dual(a, ctx))
    # both public readers are the two forms of _degrees, element by element
    V, _, dec = _coding(pav.base)
    ups, downs = (_degrees(pav, flt, V.carrier, form) for form in (0, 1))
    assert [degree(dec(i), ctx) for i in V.carrier] \
        == [pav.chain.carrier[u] for u in ups]
    assert [degree_dual(dec(i), ctx) for i in V.carrier] \
        == [pav.chain.carrier[d] for d in downs]


class TestAgainstElementForm:
    """The laws and degrees read off the indexed view against their
    element-form reference: the same (clause, holds, witness) triples and
    the same degrees."""

    @pytest.mark.parametrize("case", CASES)
    def test_same_laws_and_degrees(self, case):
        pav, flt = CASES[case]()
        assert triples(constants_check(pav).results) \
            == triples(element_constants_check(pav))
        assert_same_degree_laws(pav, flt)

    @pytest.mark.parametrize("table", PARTIAL.values(), ids=PARTIAL)
    def test_same_degrees_with_levels_missing(self, table):
        # the element-form constants law raises KeyError at a missing
        # level, so only the degree laws are compared here
        chain = Chain(5)
        assert_same_degree_laws(PavelkaAlgebra.make(chain, chain, table),
                                principal_filter(chain, chain.one))

    def test_every_swap_breaks_a_law(self):
        # so the comparisons above cover failing clauses and witnesses
        assert len(SWAPS) == 10
        for r, s in SWAPS:
            pav, flt = swapped_chain_case(r, s)
            assert not constants_check(pav).passed
            assert not pavelka_lemma_check(pav, flt).passed
