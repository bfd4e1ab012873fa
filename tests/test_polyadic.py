import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    assignments, coordinate_generator, pattern_algebra, pattern_generator,
    pattern_of, small_algebra,
)
from mvlogic.mv_core import Chain
from mvlogic.polyadic import (
    AbstractPolyadicAlgebra, FunctionalSetAlgebra, InsufficientSpareIndices,
    NotASubuniverse, SignatureError, TruncationError, algebra_from_json,
    audit_axioms, build_generated, cyl, dimension_set, minimal_support,
    neat_reduct, normalize_scopes, normalize_transformations, q_forall,
    subst, term_substitution,
)
from mvlogic.transform import FinTransformation, SemigroupSpec, compose


class TestBuildGenerated:
    def test_no_generators_gives_constants(self):
        algebra = build_generated((0, 1), 2, Chain(3), [], "full",
                                  "powerset", cap=50)
        assert set(algebra.carrier) == {algebra.zero, algebra.one}

    def test_single_point_single_generator(self):
        # oracle: close {1/4} under the chain operations directly
        chain = Chain(5)
        closure = {F(0), F(1), F(1, 4)}
        while True:
            new = {chain.neg(a) for a in closure}
            new |= {chain.oplus(a, b) for a in closure for b in closure}
            new |= {chain.odot(a, b) for a in closure for b in closure}
            if new <= closure:
                break
            closure |= new
        algebra = build_generated((0,), 1, chain, [(F(1, 4),)], "full",
                                  "powerset", cap=30)
        assert {p[0] for p in algebra.carrier} == closure

    def test_truncation_never_returns_partial(self):
        assigns = list(itertools.product((0, 1), repeat=3))
        rng = random.Random(9)
        wild = tuple(Chain(3).carrier[rng.randrange(3)] for _ in assigns)
        with pytest.raises(TruncationError):
            build_generated((0, 1, 2), 2, Chain(3), [wild], "full",
                            "powerset", cap=30)

    def test_generator_audit_passes(self):
        report = audit_axioms(small_algebra())
        assert report.passed


def reference_build_generated(index_set, base, chain, generators,
                              transformations, scopes, cap=200):
    """The closure on chain values, through the algebra's element
    operations: the reference that build_generated's level closure must
    reproduce, element for element and in the same order."""
    index_set = tuple(sorted(index_set))
    if isinstance(base, int):
        base = tuple(range(base))
    scopes = normalize_scopes(index_set, scopes)
    maps, truncated = normalize_transformations(index_set, transformations)
    if truncated:
        raise TruncationError("semigroup closure hit its cap; raise it first")

    algebra = FunctionalSetAlgebra(
        index_set, base, chain, carrier=(), generators=(),
        transformations=maps, scopes=scopes)
    size = len(algebra.assignments)
    gens = []
    for g in generators:
        g = tuple(g)
        if len(g) != size:
            raise ValueError(f"generator has {len(g)} entries, expected {size}")
        for v in g:
            if not chain.contains(v):
                raise ValueError(f"generator value {v} is not in {chain!r}")
        gens.append(g)

    elements = []
    seen = set()

    def admit(p):
        if p not in seen:
            if len(elements) >= cap:
                raise TruncationError(
                    f"carrier closure exceeded the cap of {cap}")
            seen.add(p)
            elements.append(p)

    admit(algebra.zero)
    admit(algebra.one)
    for g in gens:
        admit(g)

    i = 0
    while i < len(elements):
        p = elements[i]
        admit(algebra.neg(p))
        for tau in maps:
            admit(algebra.subst_el(tau, p))
        for j in scopes:
            admit(algebra.cyl_el(j, p))
        for q in elements[: i + 1]:
            admit(algebra.oplus(p, q))
            admit(algebra.odot(p, q))
        i += 1

    return FunctionalSetAlgebra(
        index_set, base, chain, carrier=tuple(elements),
        generators=tuple(gens), transformations=maps, scopes=scopes)


def _by_levels(chain, index_size, levels, key=None):
    """Element of Chain over |X|=2 with the given levels, one per
    assignment or, with key, one per key class of the assignment."""
    points = assignments(index_size, 2)
    pick = key or points.index
    return tuple(chain.carrier[levels[pick(x)]] for x in points)


def _spec(index_set, chain, gens, semigroup="full", scopes="powerset",
          cap=300):
    return index_set, 2, chain, gens, semigroup, scopes, cap


L3, L2, L5 = Chain(3), Chain(2), Chain(5)
# the generators of the small_algebra() and pattern_algebra() fixtures
SMALL_GEN = [_by_levels(L3, 2, (1, 0), key=lambda x: x[0])]
PATTERN_GEN = [pattern_generator(random.Random(3), L3)]
CLOSURE_SPECS = {
    "small": _spec((0, 1), L3, SMALL_GEN, cap=120),
    "pattern": _spec((0, 1, 2), L3, PATTERN_GEN, cap=200),
    # one algebra of each family the benchmark pools
    "i3p": _spec((0, 1, 2), L3, [_by_levels(L3, 3, (0, 2, 1, 2), pattern_of)],
                 cap=200),
    "i2l3": _spec((0, 1), L3, [_by_levels(L3, 2, (1, 2, 2, 2))]),
    "i2l2": _spec((0, 1), L2, [_by_levels(L2, 2, (0, 0, 0, 1))]),
    "l5-constants": _spec((0, 1), L5, [(v,) * 4 for v in L5.carrier],
                          cap=60),
    "semigroup": _spec(
        (0, 1, 2), L3, [_by_levels(L3, 3, (2, 0, 1, 2), pattern_of)],
        SemigroupSpec((FinTransformation.transposition((0, 1, 2), 0, 1),
                       FinTransformation.replacement((0, 1, 2), 2, 0)), 100)),
    "singletons": _spec((0, 1, 2), L3, PATTERN_GEN, scopes="singletons"),
}


class TestClosureAgainstReference:
    def test_fixtures_are_covered(self):
        assert small_algebra().generators == tuple(SMALL_GEN)
        assert pattern_algebra().generators == tuple(PATTERN_GEN)

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_same_algebra_in_the_same_order(self, name):
        *args, cap = CLOSURE_SPECS[name]
        got = build_generated(*args, cap=cap)
        want = reference_build_generated(*args, cap=cap)
        assert got.carrier == want.carrier
        assert got.generators == want.generators
        assert got.transformations == want.transformations
        assert got.scopes == want.scopes
        with pytest.raises(TruncationError):
            build_generated(*args, cap=len(want.carrier) - 1)
        with pytest.raises(TruncationError):
            reference_build_generated(*args, cap=len(want.carrier) - 1)


class TestOperations:
    def test_cyl_empty_scope(self):
        algebra = small_algebra()
        for p in algebra.carrier:
            assert cyl(algebra, frozenset(), p) == p

    def test_cyl_full_scope_is_constant_sup(self):
        algebra = small_algebra()
        for p in algebra.carrier:
            out = cyl(algebra, frozenset(algebra.index_set), p)
            assert set(out) == {max(p)}

    def test_subst_identity(self):
        algebra = small_algebra()
        ident = FinTransformation.identity(algebra.index_set)
        for p in algebra.carrier:
            assert subst(algebra, ident, p) == p

    def test_q_is_dual(self):
        algebra = small_algebra()
        for p in algebra.carrier:
            for j in algebra.scopes:
                assert q_forall(algebra, j, p) \
                    == algebra.neg(cyl(algebra, j, algebra.neg(p)))

    def test_signature_errors(self):
        algebra = small_algebra()
        stranger = FinTransformation.identity((0, 1, 2))
        with pytest.raises(SignatureError):
            subst(algebra, stranger, algebra.one)
        with pytest.raises(SignatureError):
            cyl(algebra, frozenset({7}), algebra.one)

    def test_subst_composition_exhaustive(self):
        algebra = small_algebra()
        for sigma, tau in itertools.product(algebra.transformations, repeat=2):
            comp = compose(sigma, tau)
            for p in algebra.carrier:
                assert subst(algebra, comp, p) \
                    == subst(algebra, sigma, subst(algebra, tau, p))

    def test_cyl_additivity_exhaustive(self):
        algebra = small_algebra()
        for j1, j2 in itertools.product(algebra.scopes, repeat=2):
            for p in algebra.carrier:
                assert cyl(algebra, j1 | j2, p) \
                    == cyl(algebra, j1, cyl(algebra, j2, p))


class TestDimensions:
    def test_constants_have_empty_dimension(self):
        algebra = small_algebra()
        assert dimension_set(algebra, algebra.zero) == frozenset()
        assert dimension_set(algebra, algebra.one) == frozenset()
        assert minimal_support(algebra, algebra.one) == frozenset()

    def test_coordinate_function(self):
        algebra = small_algebra()
        g = algebra.generators[0]
        assert dimension_set(algebra, g) <= {0}
        assert minimal_support(algebra, g) == dimension_set(algebra, g)

    def test_diagonal_indicator_depends_on_both(self):
        assigns = list(itertools.product((0, 1), repeat=2))
        diag = tuple(F(1) if x[0] == x[1] else F(0) for x in assigns)
        algebra = build_generated((0, 1), 2, Chain(2), [diag], "full",
                                  "powerset", cap=40)
        assert dimension_set(algebra, diag) == frozenset({0, 1})
        # a full-dimension generator still yields a law-abiding algebra
        assert audit_axioms(algebra).passed

    def test_cyl_removes_dimension(self):
        algebra = small_algebra()
        for p in algebra.carrier:
            for i in algebra.index_set:
                out = cyl(algebra, frozenset({i}), p)
                assert cyl(algebra, frozenset({i}), out) == out

    def test_replacement_dimension_bound(self):
        algebra = small_algebra()
        for p in algebra.carrier:
            for i, j in itertools.permutations(algebra.index_set, 2):
                out = subst(algebra,
                            FinTransformation.replacement(
                                algebra.index_set, i, j), p)
                delta = dimension_set(algebra, out)
                assert delta <= (dimension_set(algebra, p) - {i}) | {j}


class TestNeatReduct:
    def test_full_alpha_is_whole_algebra(self):
        algebra = small_algebra()
        reduct = neat_reduct(algebra, set(algebra.index_set))
        assert set(reduct.elements) == set(algebra.carrier)

    def test_empty_alpha_is_constants(self):
        algebra = small_algebra()
        reduct = neat_reduct(algebra, frozenset())
        for p in reduct.elements:
            assert dimension_set(algebra, p) == frozenset()

    def test_wide_element_excluded(self):
        henkin = build_generated(
            (0, 1, 2), 2, Chain(2),
            [coordinate_generator(3, 2, 0)], "full", "powerset", cap=300)
        diagonalish = None
        for p in henkin.carrier:
            if dimension_set(henkin, p) == frozenset({0, 1}):
                diagonalish = p
                break
        assert diagonalish is not None
        reduct = neat_reduct(henkin, frozenset({0}))
        assert diagonalish not in reduct.elements

    def test_flavors_agree_on_functional_algebras(self):
        algebra = small_algebra()
        for alpha in (frozenset(), frozenset({0}), frozenset({0, 1})):
            fin = neat_reduct(algebra, alpha, flavor="FiniteT")
            full = neat_reduct(algebra, alpha, flavor="FullT")
            assert set(fin.elements) == set(full.elements)

    def test_restricted_transformations_fix_complement(self):
        algebra = small_algebra()
        reduct = neat_reduct(algebra, frozenset({0}))
        for t in reduct.transformations:
            assert t.apply(1) == 1 and t.apply(0) == 0


class TestTermSubstitution:
    def test_single_replacement(self):
        algebra = small_algebra()
        tau = FinTransformation.replacement(algebra.index_set, 0, 1)
        # needs one spare index; |I| = 2 leaves none next to {0,1},
        # so use the three-point variant
        wide = build_generated(
            (0, 1, 2), 2, Chain(2),
            [coordinate_generator(3, 2, 0)], "full", "powerset", cap=300)
        tau3 = FinTransformation.replacement((0, 1, 2), 0, 1)
        for p in wide.generators:
            assert term_substitution(wide, tau3, p) == subst(wide, tau3, p)

    def test_identity_map(self):
        algebra = small_algebra()
        ident = FinTransformation.identity(algebra.index_set)
        for p in algebra.carrier:
            assert term_substitution(algebra, ident, p) == p

    def test_transposition_needs_two_spares(self):
        algebra = small_algebra()
        swap = FinTransformation.transposition((0, 1), 0, 1)
        target = next(p for p in algebra.carrier
                      if dimension_set(algebra, p) == frozenset({0}))
        with pytest.raises(InsufficientSpareIndices):
            term_substitution(algebra, swap, target)

    def test_agrees_with_direct_substitution_when_room(self):
        # two-point support needs two fresh indices, so four dimensions
        dom = (0, 1, 2, 3)
        assigns = list(itertools.product((0, 1), repeat=4))
        e01 = tuple(F(1) if x[0] == x[1] else F(0) for x in assigns)
        gens = (FinTransformation.replacement(dom, 0, 2),
                FinTransformation.replacement(dom, 1, 3),
                FinTransformation.replacement(dom, 2, 1),
                FinTransformation.replacement(dom, 3, 0),
                FinTransformation.transposition(dom, 0, 1))
        wide = build_generated(dom, 2, Chain(2), [e01],
                               SemigroupSpec(gens, 400), "singletons",
                               cap=300)
        swap = FinTransformation.transposition(dom, 0, 1)
        assert dimension_set(wide, e01) == frozenset({0, 1})
        assert term_substitution(wide, swap, e01) == subst(wide, swap, e01)


class TestAuditor:
    def test_pattern_algebras_pass(self):
        rng = random.Random(0)
        chain = Chain(3)
        gens = [pattern_generator(rng, chain) for _ in range(2)]
        algebra = build_generated((0, 1, 2), 2, chain, gens, "full",
                                  "powerset", cap=200)
        report = audit_axioms(algebra)
        assert report.passed
        names = {r.name for r in report.results}
        assert {"polyadic-1-s-identity", "polyadic-2-s-composition",
                "polyadic-3-c-additive", "polyadic-4-s-agreement",
                "polyadic-5-c-injective", "exists-laws-1-6", "q-laws-1-3",
                "q-4-s-agreement", "q-5-q-injective",
                "dlaw-1-cylinder", "dlaw-2-s-endomorphism", "dlaw-4-modify",
                "dlaw-5-unique-preimage", "dlaw-6-9-replacements"} <= names

    def test_corrupted_cylinder_caught_with_witness(self):
        abstract = AbstractPolyadicAlgebra.from_functional(small_algebra())
        sane = audit_axioms(abstract)
        assert sane.passed
        bad = abstract.corrupted(frozenset({0}), 0, 2)
        report = audit_axioms(bad)
        assert not report.passed
        assert any(not r.holds and r.witness for r in report.results)

    def test_trivial_one_element_algebra(self):
        from mvlogic.mv_core import TableAlgebra
        mv = TableAlgebra(["*"], [[0]], [0], 0, 0)
        ident = FinTransformation.identity((0,))
        trivial = AbstractPolyadicAlgebra(
            mv, (0,), (ident,), (frozenset(), frozenset({0})),
            {ident: (0,)}, {frozenset(): (0,), frozenset({0}): (0,)})
        assert audit_axioms(trivial).passed


class TestIndexedAlgebra:
    @pytest.mark.parametrize("make", [small_algebra, pattern_algebra])
    def test_tables_agree_with_element_operations(self, make):
        algebra = make()
        view = algebra.indexed()
        assert view is algebra.indexed()
        els = view.elements
        assert els == algebra.carrier
        assert (els[view.zero], els[view.one]) == (algebra.zero, algebra.one)
        for a, p in enumerate(els):
            assert els[view.neg[a]] == algebra.neg(p)
            for b, q in enumerate(els):
                assert els[view.oplus[a][b]] == algebra.oplus(p, q)
                assert els[view.odot[a][b]] == algebra.odot(p, q)
                assert view.le[a][b] == algebra.le(p, q)
        for t in algebra.transformations:
            assert [els[x] for x in view.subst[t]] \
                == [algebra.subst_el(t, p) for p in els]
        for j in algebra.scopes:
            assert [els[x] for x in view.cyl[j]] \
                == [algebra.cyl_el(j, p) for p in els]
            assert [els[x] for x in view.q[j]] \
                == [algebra.q_el(j, p) for p in els]

    def test_from_functional_keeps_the_tables(self):
        # the 16-element pattern algebra keeps the table-algebra audit cheap
        view = pattern_algebra().indexed()
        abstract = AbstractPolyadicAlgebra.from_functional(view.algebra)
        tables = abstract.indexed()
        assert tables.elements == tuple(view.carrier)
        for name in ("zero", "one", "neg", "oplus", "odot", "le", "subst",
                     "cyl", "q"):
            assert getattr(tables, name) == getattr(view, name), name


class TestSerialization:
    def test_spec_round_trip_through_dump(self):
        algebra = small_algebra()
        dumped = algebra.to_json()
        again = algebra_from_json(dumped)
        assert again.carrier == algebra.carrier
        assert again.transformations == algebra.transformations
        assert again.scopes == algebra.scopes

    def test_build_from_generator_spec(self):
        spec = {
            "index_set": 2, "base": 2, "chain": 3,
            "generators": [{"(0,0)": "1/2", "(0,1)": "1/2",
                            "(1,0)": "0", "(1,1)": "0"}],
            "semigroup": "full", "scopes": "powerset", "cap": 120,
        }
        algebra = algebra_from_json(spec)
        assert algebra.generators[0] == small_algebra().generators[0]
