import itertools
from fractions import Fraction as F

import pytest

from mvlogic.interlab import HenkinFilter, henkin_filter_build
from mvlogic.mv_core import Chain, Filter, principal_filter
from mvlogic.pavelka import (
    GradedContext, PavelkaAlgebra, constants_check, degree, degree_dual,
    degree_forms_check, functional_pavelka, pavelka_lemma_check,
    pavelka_quantifier_check, pavelka_representation,
)
from mvlogic.polyadic import build_generated
from conftest import coordinate_generator


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

    def test_context_requires_proper_filter(self):
        chain, pav, _ = chain_context(3)
        improper = Filter(chain, frozenset(chain.carrier))
        with pytest.raises(ValueError):
            GradedContext(pav, improper)


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
        for r in pav.levels:
            assert set(psi[pav.constant(r)]) == {r}

    def test_psi_of_units(self):
        algebra = constants_algebra(3)
        pav = functional_pavelka(algebra)
        hf = henkin_filter_build(algebra, algebra.one)
        psi, _ = pavelka_representation(algebra, pav, hf)
        assert set(psi[algebra.one]) == {F(1)}
        assert set(psi[algebra.zero]) == {F(0)}

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
        assert psi[g][ident_at] != F(0)  # the seed survives at the identity


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
