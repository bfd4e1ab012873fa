import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import pattern_algebra, small_algebra
from mvlogic.mv_core import (
    CarrierError, Chain, Filter, FilterError, FilterNotFound, MVAxiomError,
    NonMaximalFilter, ProperFilterRequired, StandardRationals, TableAlgebra,
    _axiom_groups, _tabulate, check_mv_axioms, eval_basic, extend_to_maximal,
    filter_generate, maximal_filters, quotient, residuum_by_maximization,
    tnorm_eval, to_table,
)

STD = StandardRationals()


def scan_residuum(x, y, algebra):
    """Independent oracle: largest carrier z with x(*)z <= y, via brute scan."""
    best = None
    for z in algebra.carrier:
        if algebra.odot(x, z) <= y and (best is None or z > best):
            best = z
    return best


class TestEvalBasic:
    def test_oplus_saturates(self):
        assert eval_basic("oplus", [F(1, 2), F(7, 10)], STD) == F(1)

    def test_double_negation(self):
        inner = eval_basic("neg", [F(3, 7)], STD)
        assert eval_basic("neg", [inner], STD) == F(3, 7)

    def test_implies_on_chain3_matches_scan_oracle(self):
        chain = Chain(3)
        expected = scan_residuum(F(1, 2), F(0), chain)
        assert expected == F(1, 2)  # frozen from the oracle
        assert eval_basic("implies", [F(1, 2), F(0)], chain) == F(1, 2)

    def test_weak_ops(self):
        assert eval_basic("meet", [F(1, 3), F(2, 3)], STD) == F(1, 3)
        assert eval_basic("join", [F(1, 3), F(2, 3)], STD) == F(2, 3)

    def test_carrier_error(self):
        with pytest.raises(CarrierError):
            eval_basic("oplus", [F(1, 2), F(3, 2)], STD)
        with pytest.raises(CarrierError):
            eval_basic("neg", [F(1, 3)], Chain(3))

    def test_alias_spellings(self):
        assert eval_basic("(+)", [F(1, 4), F(1, 4)], STD) == F(1, 2)
        assert eval_basic("->", [F(1), F(1, 2)], STD) == F(1, 2)


class TestResiduum:
    def test_one_is_neutral(self):
        chain = Chain(5)
        for y in chain.carrier:
            assert residuum_by_maximization(F(1), y, chain) == y

    def test_zero_gives_one(self):
        chain = Chain(5)
        for y in chain.carrier:
            assert residuum_by_maximization(F(0), y, chain) == F(1)

    def test_chain4_example_matches_scan_oracle(self):
        chain = Chain(4)
        expected = scan_residuum(F(2, 3), F(1, 3), chain)
        assert expected == F(2, 3)  # frozen from the oracle
        assert residuum_by_maximization(F(2, 3), F(1, 3), chain) == F(2, 3)

    def test_equals_closed_form_on_chains(self):
        for n in range(2, 8):
            chain = Chain(n)
            for x, y in itertools.product(chain.carrier, repeat=2):
                assert residuum_by_maximization(x, y, chain) \
                    == chain.implies(x, y)

    def test_adjunction_small_chains(self):
        for n in range(2, 7):
            chain = Chain(n)
            for x, y, z in itertools.product(chain.carrier, repeat=3):
                assert (z <= chain.implies(x, y)) == (chain.odot(x, z) <= y)

    def test_needs_finite_algebra(self):
        with pytest.raises(ValueError):
            residuum_by_maximization(F(1, 2), F(1, 3), STD)


class TestTnorm:
    def test_lukasiewicz(self):
        assert tnorm_eval("lukasiewicz", F(1, 2), F(1, 2)) == F(0)

    def test_goedel(self):
        assert tnorm_eval("goedel", F(1, 3), F(2, 3)) == F(1, 3)

    def test_product_exact(self):
        assert tnorm_eval("product", F(1, 2), F(1, 3)) == F(1, 6)

    def test_tnorm_laws_sampled(self):
        rng = random.Random(3)
        for kind in ("lukasiewicz", "goedel", "product"):
            for _ in range(200):
                x = F(rng.randint(0, 12), 12)
                y = F(rng.randint(0, 12), 12)
                z = F(rng.randint(0, 12), 12)
                assert tnorm_eval(kind, x, y) == tnorm_eval(kind, y, x)
                assert tnorm_eval(kind, x, tnorm_eval(kind, y, z)) \
                    == tnorm_eval(kind, tnorm_eval(kind, x, y), z)
                assert tnorm_eval(kind, F(1), x) == x
                assert tnorm_eval(kind, F(0), x) == F(0)
                if x <= y:
                    assert tnorm_eval(kind, x, z) <= tnorm_eval(kind, y, z)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(CarrierError):
            tnorm_eval("product", F(3, 2), F(1, 2))


class TestAxiomAudit:
    def test_chain5_exhaustive(self):
        report = check_mv_axioms(Chain(5))
        assert report.passed
        assert len(report.results) == 8

    def test_standard_sampled(self):
        report = check_mv_axioms(STD, mode="sampled", count=3000, seed=1)
        assert report.passed

    def test_corrupted_table_fails_with_witness(self):
        table = to_table(Chain(3)).to_json()
        table["oplus"][0][1] = 2  # one asymmetric entry
        bad = TableAlgebra.from_json(table, audit=False)
        report = check_mv_axioms(bad)
        assert not report.passed
        first = report.results[0]
        assert first.axiom == "1-commutativity"
        assert not first.holds and first.witness is not None
        a, b, _ = first.witness
        assert bad.oplus(a, b) != bad.oplus(b, a)

    def test_construction_rejects_corrupt_table(self):
        table = to_table(Chain(3)).to_json()
        table["neg"][1] = 0
        with pytest.raises(MVAxiomError):
            TableAlgebra.from_json(table)

    def test_de_morgan_exhaustive(self):
        for n in (2, 3, 4, 5):
            chain = Chain(n)
            for a, b in itertools.product(chain.carrier, repeat=2):
                assert chain.neg(chain.oplus(a, b)) \
                    == chain.odot(chain.neg(a), chain.neg(b))
                assert chain.neg(chain.odot(a, b)) \
                    == chain.oplus(chain.neg(a), chain.neg(b))

    def test_table_round_trip(self):
        table = to_table(Chain(4))
        again = TableAlgebra.from_json(table.to_json())
        assert again.to_json() == table.to_json()

    @pytest.mark.parametrize("n,seed", [(4, s) for s in range(6)]
                             + [(5, s) for s in range(6)])
    def test_witnesses_match_triple_loop(self, n, seed):
        # swapped entries of the chain's tables break several groups; each
        # group's witness is the first failing triple of a walk over all
        # carrier triples
        rng = random.Random(seed)
        table = to_table(Chain(n)).to_json()
        for _ in range(1 + seed % 3):
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            oplus = table["oplus"]
            oplus[a][b], oplus[c][d] = oplus[c][d], oplus[a][b]
        if seed % 2:
            a, b = rng.sample(range(n), 2)
            table["neg"][a], table["neg"][b] = table["neg"][b], table["neg"][a]
        bad = TableAlgebra.from_json(table, audit=False)
        expected = []
        for name, _, law in _axiom_groups():
            witness = next((t for t in itertools.product(bad.carrier, repeat=3)
                            if not law(bad, *t)), None)
            expected.append((name, witness))
        report = check_mv_axioms(bad)
        assert [(r.axiom, r.witness) for r in report.results] == expected
        assert not report.passed


def product_algebra(n, m):
    """Direct product of two chains as an audited table algebra."""
    pairs = list(itertools.product(Chain(n).carrier, Chain(m).carrier))
    idx = {p: i for i, p in enumerate(pairs)}
    cn, cm = Chain(n), Chain(m)
    oplus = [[idx[(cn.oplus(a1, b1), cm.oplus(a2, b2))] for (b1, b2) in pairs]
             for (a1, a2) in pairs]
    neg = [idx[(cn.neg(a1), cm.neg(a2))] for (a1, a2) in pairs]
    labels = [f"{a}|{b}" for a, b in pairs]
    return TableAlgebra(labels, oplus, neg, idx[(F(0), F(0))],
                        idx[(F(1), F(1))]), pairs, labels


class TestFilters:
    def test_generate_trivial(self):
        chain = Chain(3)
        assert filter_generate(chain, [F(1)]).members == frozenset({F(1)})

    def test_generate_half_gives_everything(self):
        # (1/2)(*)(1/2) = 0, and the up-set of 0 is the whole carrier
        chain = Chain(3)
        flt = filter_generate(chain, [F(1, 2)])
        assert flt.members == frozenset(chain.carrier)
        assert not flt.is_proper

    def test_generate_empty_is_unit_filter(self):
        assert filter_generate(Chain(3), []).members == frozenset({F(1)})

    def test_generated_filter_is_minimal(self):
        # removing any non-unit member breaks a filter law
        chain = Chain(6)
        flt = filter_generate(chain, [F(4, 5)])
        for member in sorted(flt.members):
            if member == F(1):
                continue
            with pytest.raises(FilterError):
                Filter(chain, flt.members - {member})

    def test_filter_invariants_enforced(self):
        chain = Chain(3)
        # {1/2, 1} is not (*)-closed: (1/2)(*)(1/2) = 0 escapes
        with pytest.raises(FilterError):
            Filter(chain, frozenset({F(1, 2), F(1)}))
        with pytest.raises(FilterError):
            Filter(chain, frozenset({F(1, 2)}))  # missing 1

    def test_extend_chain_is_unit_filter(self):
        # chains are simple: the unit filter is already the maximal one
        chain = Chain(3)
        flt = Filter(chain, frozenset({F(1)}))
        assert extend_to_maximal(chain, flt).members == frozenset({F(1)})

    def test_extend_boolean_chain(self):
        chain = Chain(2)
        flt = Filter(chain, frozenset({F(1)}))
        assert extend_to_maximal(chain, flt).members == frozenset({F(1)})

    def test_extend_rejects_improper(self):
        chain = Chain(3)
        improper = Filter(chain, frozenset(chain.carrier))
        with pytest.raises(ProperFilterRequired):
            extend_to_maximal(chain, improper)

    def test_extend_in_product_algebra(self):
        algebra, pairs, labels = product_algebra(2, 2)
        unit = Filter(algebra, frozenset({algebra.one}))
        maximal = extend_to_maximal(algebra, unit)
        assert len(maximal.members) == 2  # one ultrafilter of the square
        assert len(maximal_filters(algebra)) == 2

    def test_extend_constraint_not_found(self):
        chain = Chain(3)
        flt = Filter(chain, frozenset({F(1)}))
        with pytest.raises(FilterNotFound):
            extend_to_maximal(chain, flt, constraint=lambda f: False)


class TestQuotient:
    def test_chain_by_unit_filter_is_identity(self):
        chain = Chain(3)
        out, projection = quotient(chain, Filter(chain, frozenset({F(1)})))
        assert out == Chain(3)
        assert projection == {v: v for v in chain.carrier}

    def test_boolean_case(self):
        chain = Chain(2)
        out, projection = quotient(chain, Filter(chain, frozenset({F(1)})))
        assert out == Chain(2)
        assert projection == {F(0): F(0), F(1): F(1)}

    def test_rejects_improper(self):
        chain = Chain(3)
        with pytest.raises(ProperFilterRequired):
            quotient(chain, Filter(chain, frozenset(chain.carrier)))

    def test_product_by_maximal_gives_factor(self):
        algebra, pairs, labels = product_algebra(2, 3)
        maximal = maximal_filters(algebra)[0]
        out, projection = quotient(algebra, maximal)
        # quotient by an ultrafilter-like maximal filter is a chain factor
        assert out.n in (2, 3)
        assert projection[algebra.one] == F(1)
        assert projection[algebra.zero] == F(0)

    def test_product_by_unit_filter_rejected(self):
        algebra, pairs, labels = product_algebra(2, 2)
        with pytest.raises(NonMaximalFilter):
            quotient(algebra, Filter(algebra, frozenset({algebra.one})))

    def test_projection_is_homomorphism(self):
        algebra, pairs, labels = product_algebra(2, 3)
        for flt in maximal_filters(algebra):
            out, proj = quotient(algebra, flt)
            for a, b in itertools.product(algebra.carrier, repeat=2):
                assert proj[algebra.oplus(a, b)] == out.oplus(proj[a], proj[b])
                assert proj[algebra.odot(a, b)] == out.odot(proj[a], proj[b])
            for a in algebra.carrier:
                assert proj[algebra.neg(a)] == out.neg(proj[a])

    def test_quotients_recover_product_factors(self):
        # the maximal filters of a product are indexed by its factors, and
        # each quotient is the corresponding chain
        algebra, pairs, labels = product_algebra(2, 4)
        filters = maximal_filters(algebra)
        assert sorted(quotient(algebra, f)[0].n for f in filters) == [2, 4]


class TestIndexedView:
    @pytest.mark.parametrize("make", [lambda: Chain(5),
                                      lambda: product_algebra(2, 3)[0]])
    def test_tables_agree_with_element_operations(self, make):
        algebra = make()
        view = algebra.indexed()
        assert view is algebra.indexed() and view.indexed() is view
        els = view.elements
        assert els == tuple(algebra.carrier)
        assert (els[view.zero], els[view.one]) == (algebra.zero, algebra.one)
        for a, p in enumerate(els):
            assert els[view.neg[a]] == algebra.neg(p)
            for b, q in enumerate(els):
                assert els[view.oplus[a][b]] == algebra.oplus(p, q)
                assert els[view.odot[a][b]] == algebra.odot(p, q)
                assert view.le[a][b] == algebra.le(p, q)

    @pytest.mark.parametrize("n", range(2, 51))
    def test_chain_levels_agree_with_element_operations(self, n):
        # the chain's view is built from levels; _tabulate reads the same
        # tables off Chain's own Fraction operations
        view, read = Chain(n).indexed(), _tabulate(Chain(n))
        for name in ("elements", "zero", "one", "neg", "oplus", "odot",
                     "le"):
            assert getattr(view, name) == getattr(read, name), name

    def test_filters_of_a_view_are_index_sets(self):
        view = Chain(4).indexed()
        assert [f.members for f in maximal_filters(view)] \
            == [frozenset({3})]
        assert filter_generate(view, [2]).members == frozenset(range(4))


class FilterReference:
    """Filters and quotients of a finite algebra from the definitions.

    A filter is an up-set that contains 1 and is closed under (*); the
    filters here are those generated by one element, which in a finite
    algebra are all of them. a ~ b iff (a->b)(*)(b->a) lies in the filter.
    Works on carrier positions, with tables read off the element
    operations.
    """

    def __init__(self, algebra):
        self.carrier = list(algebra.carrier)
        at = {p: i for i, p in enumerate(self.carrier)}
        els = self.carrier
        self.odot = [[at[algebra.odot(p, q)] for q in els] for p in els]
        self.imp = [[at[algebra.implies(p, q)] for q in els] for p in els]
        self.le = [[algebra.le(p, q) for q in els] for p in els]
        self.zero, self.one = at[algebra.zero], at[algebra.one]

    def generated(self, seeds):
        members = {self.one, *seeds}
        while True:
            grown = set(members)
            for x in members:
                grown.update(y for y, up in enumerate(self.le[x]) if up)
                grown.update(self.odot[x][y] for y in members)
            if grown == members:
                return frozenset(members)
            members = grown

    def least(self, flt):
        return next(x for x in flt if all(self.le[x][y] for y in flt))

    def maximal(self):
        proper = {self.generated({e}) for e in range(len(self.carrier))}
        proper = [f for f in proper if self.zero not in f]
        maximal = [f for f in proper if not any(f < g for g in proper)]
        return sorted(maximal, key=self.least)

    def quotient(self, flt):
        classes = []
        for a in range(len(self.carrier)):
            for c in classes:
                b = c[0]
                if self.odot[self.imp[a][b]][self.imp[b][a]] in flt:
                    c.append(a)
                    break
            else:
                classes.append([a])
        k = len(classes)
        projection = {}
        for c in classes:
            rank = sum(1 for d in classes
                       if d is not c and self.imp[d[0]][c[0]] in flt)
            for a in c:
                projection[self.carrier[a]] = F(rank, k - 1)
        return k, projection

    def elements(self, flt):
        return frozenset(self.carrier[i] for i in flt)


KERNEL_ALGEBRAS = {
    **{f"chain{n}": (lambda n=n: Chain(n)) for n in range(2, 7)},
    **{f"product{n}x{m}": (lambda n=n, m=m: product_algebra(n, m)[0])
       for n, m in ((2, 3), (2, 4), (3, 3))},
    "functional16": pattern_algebra,
    "functional81": small_algebra,
}


class TestFilterKernelAgainstReference:
    @pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
    def test_kernel_matches_reference(self, name):
        algebra = KERNEL_ALGEBRAS[name]()
        ref = FilterReference(algebra)
        maximal = ref.maximal()
        assert [f.members for f in maximal_filters(algebra)] \
            == [ref.elements(f) for f in maximal]
        for e, p in enumerate(ref.carrier):
            generated = ref.generated({e})
            assert filter_generate(algebra, [p]).members \
                == ref.elements(generated)
            if ref.zero in generated:
                continue
            first = next(f for f in maximal if generated <= f)
            flt = Filter(algebra, ref.elements(generated))
            assert extend_to_maximal(algebra, flt).members \
                == ref.elements(first)
        for f in maximal:
            chain, projection = quotient(algebra,
                                         Filter(algebra, ref.elements(f)))
            assert (chain.n, projection) == ref.quotient(f)


class TestFilterMessages:
    def test_non_maximal_message_is_pinned(self):
        algebra, _, _ = product_algebra(2, 2)
        with pytest.raises(NonMaximalFilter) as exc:
            quotient(algebra, Filter(algebra, frozenset({algebra.one})))
        assert str(exc.value) == ("classes of '0|1' and '1|0' are "
                                  "incomparable; quotient is no chain")

    def test_filter_errors_name_carrier_elements(self):
        chain = Chain(5)
        with pytest.raises(FilterError) as exc:
            Filter(chain, frozenset({F(1, 4), F(1)}))
        assert str(exc.value) == ("not (*)-closed: Fraction(1, 4)(*)"
                                  "Fraction(1, 4) escapes the member set")
        with pytest.raises(FilterError) as exc:
            Filter(chain, frozenset({F(0), F(1)}))
        assert str(exc.value) == ("not upward closed at Fraction(0, 1) <= "
                                  "Fraction(1, 4)")
        algebra, _, _ = product_algebra(2, 2)
        with pytest.raises(FilterError) as exc:
            Filter(algebra, frozenset({"0|0", "1|1"}))
        assert str(exc.value) == "not upward closed at '0|0' <= '0|1'"

    def test_functional_filter_error_names_tuples(self):
        algebra = pattern_algebra()
        with pytest.raises(FilterError) as exc:
            Filter(algebra, frozenset({algebra.zero, algebra.one}))
        assert repr(algebra.zero) in str(exc.value)
