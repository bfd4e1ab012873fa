import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from builders import (
    assignments, coordinate_generator, pattern_algebra, pattern_generator,
    pattern_of, small_algebra,
)
from mvlogic import interlab, mv_core, pavelka, polyadic
from mvlogic.mv_core import (
    MAX_VALUATIONS, ONE, ZERO, AuditReport, Chain, TableAlgebra,
    maximal_filters,
)
from mvlogic.polyadic import (
    AbstractPolyadicAlgebra, FunctionalSetAlgebra, InsufficientSpareIndices,
    NotASubuniverse, SignatureError, TruncationError, _assignment_count,
    algebra_from_json, audit_axioms, build_generated, cyl, dimension_set,
    minimal_support, neat_reduct, normalize_scopes, normalize_transformations,
    q_forall, subst, term_substitution,
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

    def test_chain_carrier_is_never_read(self, monkeypatch):
        # a generator value v is level v * top, and the values of the
        # levels that occur are made once, at the end
        *args, cap = CLOSURE_SPECS["l5-constants"]
        want = build_generated(*args, cap=cap)

        def unread(chain):
            raise AssertionError("Chain.carrier was read")

        monkeypatch.setattr(Chain, "carrier", property(unread))
        got = build_generated(*args, cap=cap)
        huge = build_generated((0, 1), 2, Chain(10 ** 6), [], "full",
                               "powerset", cap=5)
        assert got.carrier == want.carrier
        assert huge.carrier == (huge.zero, huge.one)

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

# halves over a chain on each side of the switch from byte rows to tuple
# rows (2 * top <= 255, chains of up to 128 values): their sums pass 255
# at 129 and 201 values
CLOSURE_SPECS.update(
    (f"l{n}-halves", _spec((0, 1), Chain(n), [_by_levels(
        Chain(n), 2, (n // 2, 0, n - 1, n // 2))], cap=100))
    for n in (127, 129, 201))

# |I| = 2 over |X| = 17: 289 assignments, so that the closure reads the
# substitutions at positions past a byte (tuple rows) while its level rows
# stay bytes; the generator is the set of x with x0 = 0 and x1 != 0
CLOSURE_SPECS["x17"] = ((0, 1), 17, L2, [tuple(
    ONE if x[0] == 0 and x[1] else ZERO for x in assignments(2, 17))],
    "full", "powerset", 20)


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


# and three more: a set of maps that is not closed, so that some products
# are missing, the empty index set, whose one map has no values, and an
# index set and a base given out of order, so that the assignments
# (3,3), (3,1), (1,3), (1,1) are not in sorted order
MORE_SPECS = {
    "unclosed": _spec((0, 1, 2), L3, PATTERN_GEN, [
        FinTransformation.transposition((0, 1, 2), 0, 1),
        FinTransformation.replacement((0, 1, 2), 1, 2)]),
    "no-indices": _spec((), L3, []),
    "unsorted-base": ((1, 0), (3, 1), L3, [tuple(
        L3.carrier[v] for v in (2, 1, 0, 1))], "full", "powerset", 300),
}


@pytest.fixture(scope="module",
                params=sorted(CLOSURE_SPECS) + sorted(MORE_SPECS))
def closure_view(request):
    *args, cap = {**CLOSURE_SPECS, **MORE_SPECS}[request.param]
    return build_generated(*args, cap=cap).indexed()


class TestHowMapsCombine:
    """The composition table, the agreement partitions and the replacement
    lookup of the view against compose and a scan over pairs of maps."""

    def test_composition_table(self, closure_view):
        maps = closure_view.maps
        want = [[maps.index(compose(s, t)) if compose(s, t) in maps else None
                 for t in maps] for s in maps]
        assert closure_view.composition == want

    def test_agreement_partition(self, closure_view):
        maps, index = closure_view.maps, closure_view.algebra.index_set
        for size in range(len(index) + 1):
            for j in itertools.combinations(index, size):
                variants = [tuple(y for y, u in enumerate(maps)
                                  if all(u.apply(i) == t.apply(i)
                                         for i in index if i not in j))
                            for t in maps]
                assert closure_view.agreement(j) \
                    == tuple(dict.fromkeys(variants))

    def test_replacement_lookup(self, closure_view):
        index = closure_view.algebra.index_set
        for i, j in itertools.product(index, repeat=2):
            t = FinTransformation.from_dict({i: j}, index)
            assert closure_view.replacement(i, j) \
                == closure_view.subst.get(t)

    def test_injective_pairs(self, closure_view):
        maps, index = closure_view.maps, closure_view.algebra.index_set
        scopes = closure_view.algebra.scopes
        want = []
        for t in maps:
            pairs = []
            for j in scopes:
                pre = frozenset(i for i in index if t.apply(i) in j)
                if len({t.apply(i) for i in pre}) == len(pre) \
                        and pre in scopes:
                    pairs.append((j, pre))
            want.append(pairs)
        assert closure_view.injective == want

    def test_modified_positions(self, closure_view):
        maps, index = closure_view.maps, closure_view.algebra.index_set
        assert closure_view.modified == [
            {i: [(j, maps.index(t.modify(i, j))) for j in index
                 if t.modify(i, j) in maps] for i in index} for t in maps]

    def test_positions_and_dimension_sets(self, closure_view):
        view = closure_view
        assert view.subst_at == [view.subst[t] for t in view.maps]
        assert view.dimensions == tuple(
            frozenset(i for i in view.algebra.index_set
                      if view.cylinder({i})[a] != a) for a in view.carrier)


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

    def test_cyl_is_the_supremum_off_j(self):
        *args, cap = MORE_SPECS["unsorted-base"]
        algebra = build_generated(*args, cap=cap)
        index, xs = algebra.index_set, algebra.assignments
        assert xs != tuple(sorted(xs))
        for j in normalize_scopes(index, "powerset"):
            off = [k for k, i in enumerate(index) if i not in j]
            for p in algebra.carrier:
                assert algebra.cyl_el(j, p) == tuple(
                    max(v for y, v in zip(xs, p)
                        if all(x[k] == y[k] for k in off)) for x in xs)


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


    @pytest.mark.parametrize("alpha, operation, key", [
        ({0}, "cyl[0]", frozenset({0})),
        ({0, 1}, "subst{0->1,1->0,2->2}",
         FinTransformation.transposition((0, 1, 2), 0, 1)),
    ], ids=["cylinder", "substitution"])
    def test_entry_leaving_the_reduct_is_caught(self, alpha, operation, key):
        # the table algebra of the pattern algebra, but for one entry of
        # c_{0} or s_(0 1), which sends 0 (a member for every alpha) to an
        # element that depends on an index outside alpha; the dimension
        # sets, and so the members, are those of the intact algebra
        abstract = AbstractPolyadicAlgebra.from_functional(pattern_algebra())
        view = abstract.indexed()
        assert neat_reduct(abstract, alpha).elements
        outside = next(b for b in view.carrier
                       if not view.dimensions[b] <= alpha)
        s_tables, c_tables = dict(view.subst), dict(view.cyl)
        tables = c_tables if operation.startswith("cyl") else s_tables
        tables[key] = (outside, *tables[key][1:])
        corrupted = AbstractPolyadicAlgebra(
            abstract.mv, abstract.index_set, abstract.transformations,
            abstract.scopes, s_tables, c_tables)
        with pytest.raises(NotASubuniverse) as caught:
            neat_reduct(corrupted, alpha)
        assert str(caught.value) \
            == f"{operation} escapes the candidate subuniverse at 0"
        assert (caught.value.operation, caught.value.witness) \
            == (operation, 0)


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

    def test_tables_must_hold_carrier_indices(self):
        abstract = AbstractPolyadicAlgebra.from_functional(small_algebra())
        view = abstract.indexed()
        t = FinTransformation.identity(abstract.index_set)
        n = len(view.carrier)
        for wrong in (view.subst[t][:-1], (*view.subst[t][:-1], n),
                      (*view.subst[t][:-1], -1)):
            with pytest.raises(ValueError, match="carrier index"):
                AbstractPolyadicAlgebra(
                    abstract.mv, abstract.index_set, abstract.transformations,
                    abstract.scopes, {**view.subst, t: wrong}, view.cyl)

    def test_trivial_one_element_algebra(self):
        from mvlogic.mv_core import TableAlgebra
        mv = TableAlgebra(["*"], [[0]], [0], 0, 0)
        ident = FinTransformation.identity((0,))
        trivial = AbstractPolyadicAlgebra(
            mv, (0,), (ident,), (frozenset(), frozenset({0})),
            {ident: (0,)}, {frozenset(): (0,), frozenset({0}): (0,)})
        assert audit_axioms(trivial).passed


def reference_audit_axioms(algebra):
    """(name, holds, checked, witness) per identity family, one instance
    at a time: the per-element generators of the auditor before it
    compared whole table rows, with their own first-witness loop."""
    V = algebra.indexed()
    els = V.carrier
    scopes = list(algebra.scopes)
    scope_set = set(scopes)
    maps = list(algebra.transformations)
    map_set = set(maps)
    index = list(algebra.index_set)
    results = []

    def _audit(name, pairs):
        checked, witness = 0, None
        for lhs, rhs, found in pairs:
            checked += 1
            if lhs != rhs:
                head, *ids = found
                witness = head + tuple(V.elements[p] for p in ids)
                break
        return name, witness is None, checked, witness

    # polyadic axioms 1..5
    identity = FinTransformation.identity(tuple(sorted(index)))
    if identity in map_set:
        s_id = V.subst[identity]
        results.append(_audit("polyadic-1-s-identity",
                              ((s_id[p], p, ((), p)) for p in els)))
    else:
        results.append(("polyadic-1-s-identity", True, 0, None))

    def composition_pairs():
        for sigma, tau in itertools.product(maps, repeat=2):
            comp = compose(sigma, tau)
            if comp in map_set:
                s_c, s_s, s_t = V.subst[comp], V.subst[sigma], V.subst[tau]
                head = (sigma, tau)
                for p in els:
                    yield (s_c[p], s_s[s_t[p]], (head, p))

    results.append(_audit("polyadic-2-s-composition", composition_pairs()))

    def cyl_union_pairs():
        for j, j2 in itertools.product(scopes, repeat=2):
            if j | j2 in scope_set:
                c_u, c_j, c_j2 = V.cyl[j | j2], V.cyl[j], V.cyl[j2]
                head = (tuple(sorted(j)), tuple(sorted(j2)))
                for p in els:
                    yield (c_u[p], c_j[c_j2[p]], (head, p))

    results.append(_audit("polyadic-3-c-additive", cyl_union_pairs()))

    def agreement_pairs(tables):
        for j in scopes:
            outside = [i for i in index if i not in j]
            buckets = {}
            for t in maps:
                buckets.setdefault(tuple(t.apply(i) for i in outside),
                                   []).append(t)
            cj = tables[j]
            tag = tuple(sorted(j))
            for group in buckets.values():
                for sigma, tau in itertools.combinations(group, 2):
                    s_s, s_t = V.subst[sigma], V.subst[tau]
                    head = (sigma, tau, tag)
                    for p in els:
                        yield (s_s[cj[p]], s_t[cj[p]], (head, p))

    results.append(_audit("polyadic-4-s-agreement", agreement_pairs(V.cyl)))

    def injective_pairs(tables):
        for sigma in maps:
            s_s = V.subst[sigma]
            for j in scopes:
                pre = frozenset(i for i in index if sigma.apply(i) in j)
                images = [sigma.apply(i) for i in pre]
                if len(set(images)) != len(images) or pre not in scope_set:
                    continue
                op_j, op_pre = tables[j], tables[pre]
                head = (sigma, tuple(sorted(j)))
                for p in els:
                    yield (op_j[s_s[p]], s_s[op_pre[p]], (head, p))

    results.append(_audit("polyadic-5-c-injective", injective_pairs(V.cyl)))

    # existential quantifier laws, per scope
    def exists_laws():
        for j in scopes:
            cj = V.cyl[j]
            tag = tuple(sorted(j))
            yield (cj[V.zero], V.zero, (("E1", tag),))
            for p in els:
                yield (V.le[p][cj[p]], True, (("E2", tag), p))
                cp = cj[p]
                yield (cj[V.odot[p][p]], V.odot[cp][cp], (("E5", tag), p))
                yield (cj[V.oplus[p][p]], V.oplus[cp][cp], (("E6", tag), p))
            for p in els:
                cjp = cj[p]
                for b in els:
                    cb = cj[b]
                    yield (cj[V.odot[p][cb]], V.odot[cjp][cb],
                           (("E3", tag), p, b))
                    yield (cj[V.oplus[p][cb]], V.oplus[cjp][cb],
                           (("E4", tag), p, b))

    results.append(_audit("exists-laws-1-6", exists_laws()))

    # q laws 1..3 (4 and 5 mirror the substitution laws below)
    def q_laws():
        for j in scopes:
            qj, cj = V.q[j], V.cyl[j]
            tag = tuple(sorted(j))
            yield (qj[V.one], V.one, (("Q1-unit", tag),))
            for p in els:
                yield (V.le[qj[p]][p], True, (("Q1-decreasing", tag), p))
                qp = qj[p]
                yield (qj[V.odot[p][p]], V.odot[qp][qp],
                       (("Q1-square-odot", tag), p))
                yield (qj[V.oplus[p][p]], V.oplus[qp][qp],
                       (("Q1-square-oplus", tag), p))
                yield (cj[qj[p]], qj[p], (("Q3-cq", tag), p))
                yield (qj[cj[p]], cj[p], (("Q3-qc", tag), p))
            for p in els:
                qjp = qj[p]
                for b in els:
                    qb = qj[b]
                    yield (qj[V.odot[p][qb]], V.odot[qjp][qb],
                           (("Q1-odot", tag), p, b))
                    yield (qj[V.oplus[p][qb]], V.oplus[qjp][qb],
                           (("Q1-oplus", tag), p, b))
        for j, j2 in itertools.product(scopes, repeat=2):
            if j | j2 in scope_set:
                q_u, q_j, q_j2 = V.q[j | j2], V.q[j], V.q[j2]
                head = ("Q2", tuple(sorted(j)), tuple(sorted(j2)))
                for p in els:
                    yield (q_u[p], q_j[q_j2[p]], (head, p))

    results.append(_audit("q-laws-1-3", q_laws()))
    results.append(_audit("q-4-s-agreement", agreement_pairs(V.q)))
    results.append(_audit("q-5-q-injective", injective_pairs(V.q)))

    # endomorphism property of every substitution
    def endo_pairs():
        for t in maps:
            s_t = V.subst[t]
            yield (s_t[V.zero], V.zero, (("zero", t),))
            yield (s_t[V.one], V.one, (("one", t),))
            neg, oplus, odot = ("neg", t), ("oplus", t), ("odot", t)
            for p in els:
                yield (s_t[V.neg[p]], V.neg[s_t[p]], (neg, p))
                row = V.oplus[p]
                row_d = V.odot[p]
                sp = s_t[p]
                for q in els:
                    yield (s_t[row[q]], V.oplus[sp][s_t[q]], (oplus, p, q))
                    yield (s_t[row_d[q]], V.odot[sp][s_t[q]], (odot, p, q))

    results.append(_audit("dlaw-2-s-endomorphism", endo_pairs()))

    # single-index interaction laws, where the signature provides them
    singles = sorted(next(iter(j)) for j in scopes if len(j) == 1)
    domain = tuple(sorted(index))

    def repl(i, j):
        t = FinTransformation.replacement(domain, i, j)
        return t if t in map_set else None

    def dlaw1_pairs():
        for i in singles:
            ci = V.cyl[frozenset({i})]
            for p in els:
                cp = ci[p]
                yield (V.le[p][cp], True, (("D1-increasing", i), p))
                yield (ci[cp], cp, (("D1-idempotent", i), p))
                yield (ci[V.neg[cp]], V.neg[cp], (("D1-complement", i), p))
            for k in singles:
                ck = V.cyl[frozenset({k})]
                for p in els:
                    yield (ci[ck[p]], ck[ci[p]], (("D1-commute", i, k), p))
            for p in els:
                cip = ci[p]
                for q in els:
                    ciq = ci[q]
                    yield (ci[V.oplus[p][ciq]], V.oplus[cip][ciq],
                           (("D1-oplus", i), p, q))

    results.append(_audit("dlaw-1-cylinder", dlaw1_pairs()))

    def dlaw4_pairs():
        for t in maps:
            s_t = V.subst[t]
            for i in singles:
                ci = V.cyl[frozenset({i})]
                for j in index:
                    tij = t.modify(i, j)
                    if tij not in map_set:
                        continue
                    s_tij = V.subst[tij]
                    head = ("D4", t, i, j)
                    for p in els:
                        cp = ci[p]
                        yield (s_t[cp], s_tij[cp], (head, p))

    results.append(_audit("dlaw-4-modify", dlaw4_pairs()))

    def dlaw5_pairs():
        for t in maps:
            s_t = V.subst[t]
            for j in singles:
                pre = [i for i in index if t.apply(i) == j]
                if len(pre) != 1 or frozenset({pre[0]}) not in scope_set:
                    continue
                i = pre[0]
                ci, cj = V.cyl[frozenset({i})], V.cyl[frozenset({j})]
                qi, qj = V.q[frozenset({i})], V.q[frozenset({j})]
                c_head, q_head = ("D5-c", t, i, j), ("D5-q", t, i, j)
                for p in els:
                    yield (s_t[ci[p]], cj[s_t[p]], (c_head, p))
                    yield (s_t[qi[p]], qj[s_t[p]], (q_head, p))

    results.append(_audit("dlaw-5-unique-preimage", dlaw5_pairs()))

    def dlaw6to9_pairs():
        for i, j in itertools.permutations(singles, 2):
            sij = repl(i, j)
            if sij is None:
                continue
            sji = repl(j, i)
            s_ij = V.subst[sij]
            ci, cj = V.cyl[frozenset({i})], V.cyl[frozenset({j})]
            qi, qj = V.q[frozenset({i})], V.q[frozenset({j})]
            for p in els:
                sp = s_ij[p]
                yield (ci[sp], sp, (("D6-c", i, j), p))
                yield (qi[sp], sp, (("D6-q", i, j), p))
                yield (s_ij[ci[p]], ci[p], (("D7-c", i, j), p))
                yield (s_ij[qi[p]], qi[p], (("D7-q", i, j), p))
                for k in singles:
                    if k in (i, j):
                        continue
                    ck = V.cyl[frozenset({k})]
                    qk = V.q[frozenset({k})]
                    yield (s_ij[ck[p]], ck[sp], (("D8-c", i, j, k), p))
                    yield (s_ij[qk[p]], qk[sp], (("D8-q", i, j, k), p))
                if sji is not None:
                    s_ji = V.subst[sji]
                    yield (ci[s_ji[p]], cj[s_ij[p]], (("D9-c", i, j), p))
                    yield (qi[s_ji[p]], qj[s_ij[p]], (("D9-q", i, j), p))

    results.append(_audit("dlaw-6-9-replacements", dlaw6to9_pairs()))

    return results


def _pattern_corruptions():
    """Sixteen corrupted copies of the abstract pattern algebra: eight with
    two distinct entries of a cylinder table swapped, eight with one entry
    of a substitution table moved (the identity's first)."""
    abstract = AbstractPolyadicAlgebra.from_functional(pattern_algebra())
    view = abstract.indexed()
    n = len(view.carrier)
    rng = random.Random(5)
    scopes = [j for j in abstract.scopes if j]
    out = []
    for k in range(8):
        scope = scopes[k % len(scopes)]
        a, b = rng.sample(range(n), 2)
        while view.cyl[scope][a] == view.cyl[scope][b]:
            a, b = rng.sample(range(n), 2)
        out.append(abstract.corrupted(scope, a, b))
    maps = [FinTransformation.identity(abstract.index_set)] \
        + rng.sample(list(abstract.transformations), 7)
    for t in maps:
        s_tables = {u: list(table) for u, table in view.subst.items()}
        a = rng.randrange(n)
        s_tables[t][a] = (s_tables[t][a] + 1 + rng.randrange(n - 1)) % n
        out.append(AbstractPolyadicAlgebra(
            abstract.mv, abstract.index_set, abstract.transformations,
            abstract.scopes, s_tables, view.cyl))
    return out


def _quantifier_corruption(generators, sets, dual):
    """The Boolean algebra of the subsets of four points, as the |I| = 1
    algebra the generators give over L2, with c_{0} replaced by a map read
    off the sets: p goes to the first set above p in the list of the
    empty set, the sets and the whole set; with dual, to the complement of
    the first set below ~p in the list of the whole set, the sets and the
    empty set. With one index, only this quantifier's laws can fail."""
    def element(points):
        return tuple(ONE if x in points else ZERO for x in range(4))

    functional = build_generated((0,), 4, L2, map(element, generators),
                                 "full", "powerset", cap=16)
    abstract = AbstractPolyadicAlgebra.from_functional(functional)
    view = abstract.indexed()
    ends = [set(range(4)), set()] if dual else [set(), set(range(4))]
    order = [functional.indexed().index_of[element(s)]
             for s in [ends[0], *sets, ends[1]]]
    if dual:
        below = [next(s for s in order if view.le[s][p])
                 for p in view.carrier]
        c = [view.neg[below[view.neg[p]]] for p in view.carrier]
    else:
        c = [next(s for s in order if view.le[p][s]) for p in view.carrier]
    return AbstractPolyadicAlgebra(
        abstract.mv, abstract.index_set, abstract.transformations,
        abstract.scopes, view.subst, {**view.cyl, frozenset({0}): c})


def _square_chain(n):
    """The square of the chain Ln, as the |I| = 1 algebra over two points
    that (1/(n-1), 0) and (0, 1/(n-1)) generate: n^2 elements, so L16
    gives the largest carrier the auditor holds as byte rows and L17 one
    it holds as tuples."""
    chain = Chain(n)
    step = chain.carrier[1]
    return build_generated((0,), 2, chain, [(step, ZERO), (ZERO, step)],
                           "full", "powerset", cap=400)


def _with_cylinder_entry(functional, x, value):
    """The table algebra of a functional |I| = 1 algebra, but for c_{0},
    which sends carrier index x to value."""
    view = functional.indexed()
    # the table algebra's own MV audit stops at 100 elements
    mv = TableAlgebra(view.carrier, view.oplus, view.neg, view.zero,
                      view.one, audit=False)
    c = list(view.cyl[frozenset({0})])
    c[x] = value
    return AbstractPolyadicAlgebra(
        mv, functional.index_set, functional.transformations,
        functional.scopes, view.subst, {**view.cyl, frozenset({0}): c})


def _with_last_map_entry_moved(functional):
    """The table algebra of a functional algebra, but for the table of its
    last map, whose last entry is moved to the next carrier index."""
    view = functional.indexed()
    mv = TableAlgebra(view.carrier, view.oplus, view.neg, view.zero,
                      view.one, audit=False)
    last = view.maps[-1]
    table = list(view.subst[last])
    table[-1] = (table[-1] + 1) % len(table)
    return AbstractPolyadicAlgebra(
        mv, functional.index_set, functional.transformations,
        functional.scopes, {**view.subst, last: table}, view.cyl)


@pytest.fixture(scope="module")
def corrupted_small_cylinder():
    abstract = AbstractPolyadicAlgebra.from_functional(small_algebra())
    return abstract.corrupted(frozenset({0}), 0, 2)


class TestAuditAgainstReference:
    def test_corrupted_cylinder_table(self, corrupted_small_cylinder):
        got = [(r.name, r.holds, r.checked, r.witness)
               for r in audit_axioms(corrupted_small_cylinder).results]
        assert got == reference_audit_axioms(corrupted_small_cylinder)
        assert not all(holds for _, holds, _, _ in got)

    @pytest.mark.parametrize("k", range(16))
    def test_corrupted_abstract_algebras(self, k):
        algebra = _pattern_corruptions()[k]
        want = reference_audit_axioms(algebra)
        assert not all(holds for _, holds, _, _ in want)
        assert [(r.name, r.holds, r.checked, r.witness)
                for r in audit_axioms(algebra).results] == want

    @pytest.mark.parametrize("generators, sets, dual, heads", [
        ([{0}, {1}, {2}, {3}], [{0, 1}, {1, 2}, {2, 3}, {0, 3}], False,
         ("E3", "Q1-oplus", "D1-oplus")),
        ([{0}, {1}, {2}, {3}], [{1, 2, 3}, {3}, {0, 1, 2}, {0}], True,
         ("E4", "Q1-oplus", "D1-oplus")),
        ([{0, 1, 2}, {2}, {0, 3}, {1, 2, 3}], [{1, 2}, {0, 3}, {0, 1}, {2, 3}],
         False, ("E3", "Q1-odot", "D1-oplus")),
    ])
    def test_corrupted_distributive_laws(self, generators, sets, dual, heads):
        # each family's first failure is a distributive law, which the
        # auditor checks on the image of the quantifier first; its witness
        # and count come from the walk over every pair after those differ
        algebra = _quantifier_corruption(generators, sets, dual)
        want = reference_audit_axioms(algebra)
        assert [(r.name, r.holds, r.checked, r.witness)
                for r in audit_axioms(algebra).results] == want
        assert [(name, witness[0]) for name, holds, _, witness in want
                if not holds] == list(zip(
                    ("exists-laws-1-6", "q-laws-1-3", "dlaw-1-cylinder"),
                    heads))

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["intact", "corrupted"])
    @pytest.mark.parametrize("n", [16, 17])
    def test_row_type_boundary(self, n, corrupt):
        # 256 elements take byte rows and 289 tuple rows. Corrupted, c_{0}
        # sends x = (1 - 1/(n-1), 5/(n-1)), late in the carrier, to 1:
        # then of the block of E2, E5 and E6 only E5 fails, at x alone, so
        # the count is that of the block's interleaved walk
        intact = _square_chain(n)
        view = intact.indexed()
        x = view.index_of[(ONE - F(1, n - 1), F(5, n - 1))]
        assert n * n - 10 <= x < n * n == len(view.carrier)
        algebra = _with_cylinder_entry(intact, x, view.one) if corrupt \
            else intact
        want = reference_audit_axioms(algebra)
        assert [(r.name, r.holds, r.checked, r.witness)
                for r in audit_axioms(algebra).results] == want
        exists = {name: witness for name, _, _, witness in want}[
            "exists-laws-1-6"]
        assert exists == (("E5", (0,), x) if corrupt else None)

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["intact", "last-map-corrupted"])
    @pytest.mark.parametrize("name",
                             sorted(CLOSURE_SPECS) + sorted(MORE_SPECS))
    def test_every_spec(self, name, corrupt):
        # small and pattern are the small_algebra() and pattern_algebra()
        # fixtures. A block covers a whole family, or one outer map of it:
        # with the last entry of the last map's table moved, such a block
        # fails late, and its walk must find the instance of the reference
        *args, cap = {**CLOSURE_SPECS, **MORE_SPECS}[name]
        algebra = build_generated(*args, cap=cap)
        if corrupt:
            algebra = _with_last_map_entry_moved(algebra)
        want = reference_audit_axioms(algebra)
        assert [(r.name, r.holds, r.checked, r.witness)
                for r in audit_axioms(algebra).results] == want
        assert all(holds for _, holds, _, _ in want) is not corrupt

    def test_a_block_per_map(self, monkeypatch):
        # the pattern algebra's 27 maps and 8 scopes: composition and both
        # injective families hand first_witness one block per map, both
        # agreement families one per (map, scope) at most
        drawn = []

        def counting(blocks):
            drawn.append(0)

            def each():
                for block in blocks:
                    drawn[-1] += 1
                    yield block
            return mv_core.first_witness(each())

        monkeypatch.setattr(polyadic, "first_witness", counting)
        algebra = pattern_algebra()
        results = audit_axioms(algebra).results
        assert len(drawn) == len(results)
        blocks = {r.name: k for r, k in zip(results, drawn)}
        maps, scopes = len(algebra.transformations), len(algebra.scopes)
        assert (maps, scopes) == (27, 8)
        for name in ("polyadic-2-s-composition", "polyadic-5-c-injective",
                     "q-5-q-injective"):
            assert blocks[name] <= maps, name
        for name in ("polyadic-4-s-agreement", "q-4-s-agreement"):
            assert blocks[name] <= maps * scopes, name

    def test_corruptions_reach_every_family(self):
        failing = {name for algebra in _pattern_corruptions()
                   for name, holds, _, _ in reference_audit_axioms(algebra)
                   if not holds}
        assert failing == {name for name, _, _, _ in
                           reference_audit_axioms(pattern_algebra())}


def diag4():
    """The |I| = 4 algebra over L2 that the diagonal x0 = x1 generates
    under the full semigroup: 256 elements, the most that take byte
    rows."""
    diagonal = tuple(ONE if x[0] == x[1] else ZERO
                     for x in assignments(4, 2))
    return build_generated(range(4), 2, Chain(2), [diagonal], "full",
                           "powerset", cap=256)


class TestIndexedAlgebra:
    @pytest.mark.parametrize("make, row", [
        (small_algebra, bytes), (diag4, bytes),
        (lambda: _square_chain(17), tuple)],
        ids=["small81", "diag4-256", "square289"])
    def test_tables_are_rows_of_one_type(self, make, row):
        # bytes up to 256 elements, tuples past that: chosen once, by the
        # view, for every table it holds or derives, c_{} too
        view = make().indexed()
        assert view.row is row
        assert {type(t) for t in (
            view.neg, *view.oplus, *view.odot, *view.le,
            *view.subst.values(), *view.cyl.values(), *view.q.values(),
            view.cylinder(()))} == {row}

    def test_a_byte_row_view_holds_a_byte_an_entry(self):
        # diag4's view with its derived (*), <= and q: three 256 x 256
        # tables and 256 s_tau rows, a byte an entry (2.2 MB as tuples)
        algebra = diag4()
        tracemalloc.start()
        try:
            view = algebra.indexed()
            view.odot, view.le, view.q
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(view.carrier) == 256 and size < 1 << 20

    @pytest.mark.parametrize("name",
                             sorted(CLOSURE_SPECS) + sorted(MORE_SPECS))
    def test_tables_agree_with_element_operations(self, name):
        # small and pattern are the small_algebra() and pattern_algebra()
        # fixtures
        *args, cap = {**CLOSURE_SPECS, **MORE_SPECS}[name]
        algebra = build_generated(*args, cap=cap)
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
                == [algebra.neg(algebra.cyl_el(j, algebra.neg(p)))
                    for p in els]

    def test_derived_tables_are_built_on_first_read(self):
        # the queries of `poly dims` read cylinders only: the n x n odot
        # and le tables and the q tables are not built for them
        *args, cap = CLOSURE_SPECS["i3p"]
        algebra = build_generated(*args, cap=cap)
        view = algebra.indexed()
        p = algebra.carrier[5]
        dimension_set(algebra, p)
        minimal_support(algebra, p)
        derived = {"odot", "le", "q"}
        assert not derived & set(vars(view))
        tables = {name: getattr(view, name) for name in derived}
        assert derived <= set(vars(view))
        assert all(getattr(view, name) is table
                   for name, table in tables.items())

    def test_no_view_without_tables(self):
        # the reference closure builds its algebra from the carrier alone
        *args, cap = CLOSURE_SPECS["small"]
        algebra = reference_build_generated(*args, cap=cap)
        with pytest.raises(ValueError, match="without tables has no view"):
            algebra.indexed()

    def test_a_table_algebra_shares_its_reducts_derived_tables(self):
        abstract = AbstractPolyadicAlgebra.from_functional(small_algebra())
        audit_axioms(abstract)
        view, reduct = abstract.indexed(), abstract.mv.indexed()
        assert view.odot is reduct.odot and view.le is reduct.le

    def test_signature_tables_are_built_on_first_read(self):
        # how the maps combine, and the dimension sets, are derived by
        # the first query that reads them, then kept
        *args, cap = CLOSURE_SPECS["i3p"]
        algebra = build_generated(*args, cap=cap)
        view = algebra.indexed()
        names = {"subst_at", "composition", "injective", "modified",
                 "dimensions"}
        assert not names & set(vars(view))
        audit_axioms(algebra)
        dimension_set(algebra, algebra.carrier[5])
        tables = {name: vars(view)[name] for name in names}
        audit_axioms(algebra)
        assert all(getattr(view, name) is table
                   for name, table in tables.items())
        assert view.agreement({0}) is view.agreement([0])

    def test_from_functional_keeps_the_tables(self):
        # the 16-element pattern algebra keeps the table-algebra audit cheap
        view = pattern_algebra().indexed()
        abstract = AbstractPolyadicAlgebra.from_functional(view.algebra)
        tables = abstract.indexed()
        assert tables.elements == tuple(view.carrier)
        for name in ("zero", "one", "neg", "oplus", "odot", "le", "subst",
                     "cyl", "q"):
            assert getattr(tables, name) == getattr(view, name), name


class TestMaximalFiltersAreKept:
    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_kept_filters_equal_a_fresh_build(self, name):
        # the filters of the first call are the up-sets of the atoms, and
        # a second call returns a new list of the same Filter objects
        *args, cap = CLOSURE_SPECS[name]
        algebra = build_generated(*args, cap=cap)
        first = maximal_filters(algebra)
        V, _, dec = mv_core._coding(algebra)
        assert first == [mv_core._up_set(algebra, V, dec, e)
                         for e in mv_core._skeleton_atoms(V)]
        again = maximal_filters(algebra)
        assert again == first and again is not first
        assert all(f is g for f, g in zip(again, first))

    def test_first_call_validates_on_view_indices(self, monkeypatch):
        # the filters are built and validated on the view's indices, and
        # their members decoded once: no member is looked up in element
        # form, and the filters equal those validated in element form
        *args, cap = CLOSURE_SPECS["i3p"]
        algebra = build_generated(*args, cap=cap)

        def contains(p):
            raise AssertionError("a member looked up in element form")

        monkeypatch.setattr(algebra, "contains", contains)
        filters = maximal_filters(algebra)
        monkeypatch.undo()
        index_of = algebra.indexed().index_of
        for flt in filters:
            assert flt == mv_core.Filter(algebra, flt.members)
            assert flt.ids == frozenset(map(index_of.__getitem__,
                                            flt.members))

    @staticmethod
    def kept_queries(algebra):
        """Every query an algebra or its maximal filters keep, each asked
        twice: (name, first, second, value of a fresh algebra's query)."""
        def ask(query):
            return query(algebra), query(algebra)

        def henkin(alg):
            # from 1, every maximal filter is a candidate
            hf = interlab.henkin_filter_build(alg, alg.one)
            return getattr(hf, "witnesses", None)

        yield "audit", *ask(audit_axioms)
        yield "pavelka", *ask(lambda alg: pavelka.functional_pavelka(
            alg, require_full=False))
        yield "henkin", *ask(henkin)
        for j in algebra.scopes:
            yield f"agreement-{sorted(j)}", *ask(
                lambda alg: alg.indexed().agreement(j))
        for k in range(len(maximal_filters(algebra))):
            yield f"ranks-{k}", *ask(lambda alg: mv_core.quotient_ranks(
                maximal_filters(alg)[k]))

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_kept_values_equal_a_fresh_build(self, name):
        # a second query returns the very value of the first, which
        # equals the same query's on a fresh algebra
        *args, cap = CLOSURE_SPECS[name]
        algebra, fresh = (build_generated(*args, cap=cap) for _ in range(2))
        fresh_values = {q: first for q, first, _ in self.kept_queries(fresh)}
        for query, first, again in self.kept_queries(algebra):
            assert again is first, query
            assert first is None or isinstance(first, (
                tuple, AuditReport, pavelka.PavelkaAlgebra)), query
            want = fresh_values[query]
            if query == "pavelka":  # each names its own algebra as base
                first, want = ((pav.chain, pav.constants)
                               for pav in (first, want))
            assert first == want, query

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_skipped_henkin_filters_keep_none(self, name):
        # the filters the search from 1 passes over keep None, the one it
        # returns its witness tuple
        *args, cap = CLOSURE_SPECS[name]
        algebra = build_generated(*args, cap=cap)
        hf = interlab.henkin_filter_build(algebra, algebra.one)
        filters = maximal_filters(algebra)
        found = filters.index(hf.filter) if isinstance(
            hf, interlab.HenkinFilter) else len(filters)
        for flt in filters[:found]:
            assert flt._kept["witnesses"] is None
        for flt in filters[found:found + 1]:
            assert flt._kept["witnesses"] is hf.witnesses

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_errors_are_raised_on_every_call_and_never_kept(self, name):
        *args, cap = CLOSURE_SPECS[name]
        algebra = build_generated(*args, cap=cap)
        maximal = maximal_filters(algebra)
        # the proper filters that are not maximal: up-sets of the nonzero
        # idempotents that are no atom
        V, _, dec = mv_core._coding(algebra)
        others = [mv_core._up_set(algebra, V, dec, e) for e in V.carrier
                  if V.odot[e][e] == e and e != V.zero]
        others = [flt for flt in others if flt not in maximal]
        for flt in others:
            for _ in range(2):
                with pytest.raises(mv_core.NonMaximalFilter):
                    mv_core.quotient_ranks(flt)
            assert "ranks" not in getattr(flt, "_kept", {})
        chain = algebra.chain
        size = len(algebra.assignments)
        if all(algebra.contains((r,) * size) for r in chain.carrier):
            assert pavelka.functional_pavelka(algebra) \
                is pavelka.functional_pavelka(algebra, require_full=True)
        else:
            for _ in range(2):
                with pytest.raises(ValueError, match="carrier lacks "
                                   "constant functions"):
                    pavelka.functional_pavelka(algebra, require_full=True)
            assert ("pavelka", True) not in getattr(algebra, "_kept", {})
            assert pavelka.functional_pavelka(algebra, require_full=False) \
                is pavelka.functional_pavelka(algebra, require_full=False)

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_a_corrupted_copy_gets_its_own_failing_audit(self, name):
        # c_J swaps its entries at 0 and 1, so E1 (c_J 0 = 0) fails
        *args, cap = CLOSURE_SPECS[name]
        abstract = AbstractPolyadicAlgebra.from_functional(
            build_generated(*args, cap=cap))
        sane = audit_axioms(abstract)
        view = abstract.indexed()
        scope = next(j for j in abstract.scopes if j)
        bad = abstract.corrupted(scope, view.zero, view.one)
        report = audit_axioms(bad)
        assert sane.passed and not report.passed
        assert audit_axioms(bad) is report
        assert audit_axioms(abstract) is sane
        assert audit_axioms(abstract.corrupted(scope, view.zero, view.one)) \
            == report

    def test_a_kept_failing_report_holds_no_list(self):
        # the corruptions fail every family; the witnesses of a kept
        # report name scopes as tuples, so no caller can change the report
        # that another caller reads
        def holds_a_list(value):
            return isinstance(value, list) or isinstance(value, tuple) \
                and any(map(holds_a_list, value))

        for algebra in _pattern_corruptions():
            report = audit_axioms(algebra)
            assert audit_axioms(algebra) is report and not report.passed
            assert not any(holds_a_list(r.witness) for r in report.results)

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_quotient_returns_a_new_projection_each_call(self, name):
        *args, cap = CLOSURE_SPECS[name]
        algebra = build_generated(*args, cap=cap)
        for flt in maximal_filters(algebra):
            chain, projection = mv_core.quotient(algebra, flt)
            projection[algebra.one] = None
            again, fresh = mv_core.quotient(algebra, flt)
            assert again is chain and fresh is not projection
            assert fresh[algebra.one] == ONE
            assert fresh == {p: chain.carrier[r] for p, r in zip(
                algebra.carrier, mv_core.quotient_ranks(flt)[1])}

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_seeds_on_one_filter_share_its_witnesses(self, name):
        *args, cap = CLOSURE_SPECS[name]
        algebra = build_generated(*args, cap=cap)
        landed = {}
        for seed in set(algebra.carrier) - {algebra.zero}:
            hf = interlab.henkin_filter_build(algebra, seed)
            if isinstance(hf, interlab.HenkinFilter):
                assert hf.seed == seed
                landed.setdefault(hf.filter, []).append(hf)
        for builds in landed.values():
            assert all(hf.witnesses is builds[0].witnesses for hf in builds)
        # the search from 1 returns the first filter with witnesses, and so
        # does the search from every other nonzero member of it
        hf = interlab.henkin_filter_build(algebra, algebra.one)
        if isinstance(hf, interlab.HenkinFilter):
            assert {b.seed for b in landed[hf.filter]} \
                == hf.members - {algebra.zero}


class TestQueriesOnTheTableAlgebra:
    """The public queries answer on the table algebra of a functional
    algebra as on the functional algebra, label i standing for carrier
    element i."""

    @pytest.mark.parametrize("name", ["small", "pattern"])
    def test_same_answers_as_the_functional_algebra(self, name):
        *args, cap = CLOSURE_SPECS[name]
        functional = build_generated(*args, cap=cap)
        abstract = AbstractPolyadicAlgebra.from_functional(functional)
        label = {p: i for i, p in enumerate(functional.carrier)}.__getitem__

        def term(algebra, t, x):
            # the element term_substitution gives, or why it has no room
            try:
                return term_substitution(algebra, t, x)
            except InsufficientSpareIndices as exc:
                return str(exc)

        for a, p in enumerate(functional.carrier):
            for j in functional.scopes:
                assert cyl(abstract, j, a) == label(cyl(functional, j, p))
                assert q_forall(abstract, j, a) \
                    == label(q_forall(functional, j, p))
            for t in functional.transformations:
                assert subst(abstract, t, a) == label(subst(functional, t, p))
                want = term(functional, t, p)
                assert term(abstract, t, a) \
                    == (want if isinstance(want, str) else label(want))
            assert dimension_set(abstract, a) == dimension_set(functional, p)
            assert minimal_support(abstract, a) \
                == minimal_support(functional, p)

    def test_element_outside_the_carrier(self):
        abstract = AbstractPolyadicAlgebra.from_functional(pattern_algebra())
        stranger = len(abstract.mv.carrier)
        tau = FinTransformation.identity(abstract.index_set)
        for query, arg in ((cyl, frozenset({0})), (q_forall, frozenset({0})),
                           (subst, tau)):
            with pytest.raises(SignatureError):
                query(abstract, arg, stranger)
        with pytest.raises(SignatureError):
            term_substitution(abstract, tau, stranger)

    def test_filters_of_the_table_algebra(self):
        # the filter entry points read the elements of the table algebra
        # as the labels of its MV reduct, and refuse a stranger alike
        abstract = AbstractPolyadicAlgebra.from_functional(pattern_algebra())
        mv, stranger = abstract.mv, len(abstract.mv.carrier)
        for a in mv.carrier:
            assert mv_core.principal_filter(abstract, a).members \
                == mv_core.principal_filter(mv, a).members
        unit = frozenset({abstract.one})
        assert mv_core.Filter(abstract, unit).members == unit
        for algebra in (mv, abstract):
            with pytest.raises(mv_core.FilterError,
                               match=f"^{stranger} is not a carrier element"):
                mv_core.Filter(algebra, unit | {stranger})
            for make in (mv_core.principal_filter,
                         lambda A, a: mv_core.filter_generate(A, [a])):
                with pytest.raises(mv_core.CarrierError,
                                   match=f"^{stranger} is not in the carrier"):
                    make(algebra, stranger)

    @pytest.mark.parametrize("query", [dimension_set, minimal_support])
    def test_dimensions_need_a_carrier_element(self, query):
        functional = pattern_algebra()
        abstract = AbstractPolyadicAlgebra.from_functional(functional)
        for algebra, stranger in ((functional, (F(1, 3),) * 8),
                                  (abstract, len(functional.carrier))):
            with pytest.raises(SignatureError,
                               match="element is not in the carrier"):
                query(algebra, stranger)

    def test_cylinder_outside_the_signature(self):
        # the functional algebra takes block suprema for any J; the table
        # algebra has the tables of its scope family only
        *args, cap = CLOSURE_SPECS["singletons"]
        functional = build_generated(*args, cap=cap)
        abstract = AbstractPolyadicAlgebra.from_functional(functional)
        pair, els = frozenset({0, 1}), functional.carrier
        assert [els[x] for x in functional.indexed().cylinder(pair)] \
            == [functional.cyl_el(pair, p) for p in els]
        assert minimal_support(functional, functional.zero) == frozenset()
        with pytest.raises(SignatureError, match=r"scope \[0, 1\] is not"):
            minimal_support(abstract, 0)
        # c_{} is the identity in the signature or out of it
        assert tuple(abstract.indexed().cylinder(())) \
            == tuple(range(len(els)))


class TestSerialization:
    def test_spec_round_trip_through_dump(self):
        algebra = small_algebra()
        dumped = algebra.to_json()
        again = algebra_from_json(dumped)
        assert again.carrier == algebra.carrier
        assert again.transformations == algebra.transformations
        assert again.scopes == algebra.scopes

    def test_reloaded_dump_has_the_same_view(self):
        view = pattern_algebra().indexed()
        again = algebra_from_json(view.algebra.to_json()).indexed()
        assert again.elements == view.elements
        for name in ("zero", "one", "neg", "oplus", "odot", "le", "subst",
                     "cyl", "q"):
            assert getattr(again, name) == getattr(view, name), name

    def test_dump_must_be_the_closure_of_its_generators(self):
        dumped = small_algebra().to_json()
        carrier = dumped["carrier"]
        for wrong in (carrier[:-1], carrier[:1] + carrier[2:] + carrier[1:2],
                      carrier + carrier[-1:]):
            with pytest.raises(ValueError):
                algebra_from_json(dict(dumped, carrier=wrong))

    def test_build_from_generator_spec(self):
        spec = {
            "index_set": 2, "base": 2, "chain": 3,
            "generators": [{"(0,0)": "1/2", "(0,1)": "1/2",
                            "(1,0)": "0", "(1,1)": "0"}],
            "semigroup": "full", "scopes": "powerset", "cap": 120,
        }
        algebra = algebra_from_json(spec)
        assert algebra.generators[0] == small_algebra().generators[0]


class TestCaps:
    """Every cap raises TruncationError, an input error, before its
    product is built; none of these tests builds one."""

    def test_cap_errors_are_input_errors(self):
        assert issubclass(TruncationError, ValueError)

    def test_full_semigroup_admits_four_indices_and_no_more(self):
        assert len(normalize_transformations(range(4), "full")[0]) == 256
        for n in (5, 7, 1000):
            with pytest.raises(TruncationError, match="full semigroup"):
                normalize_transformations(range(n), "full")

    def test_assignment_count_cap(self):
        assert _assignment_count(18, 2) == 2 ** 18
        assert _assignment_count(1, MAX_VALUATIONS) == MAX_VALUATIONS
        assert _assignment_count(18, 1) == 1
        for points, base in ((19, 2), (1, MAX_VALUATIONS + 1), (20, 1),
                             (10 ** 9, 1), (3, 10 ** 100)):
            with pytest.raises(TruncationError):
                _assignment_count(points, base)

    def test_no_assignment_is_built_past_the_cap(self):
        with pytest.raises(TruncationError):
            FunctionalSetAlgebra(range(19), range(2), Chain(2), (), (), (),
                                 ())
        with pytest.raises(TruncationError):
            build_generated(range(30), 1, Chain(2), [],
                            SemigroupSpec(()), "singletons")
        for index_set, base in ((10 ** 9, 1), (7, 10 ** 6), (20, 2)):
            with pytest.raises(TruncationError):
                algebra_from_json({"index_set": index_set, "base": base,
                                   "chain": 2, "generators": [],
                                   "semigroup": {"generators": []}})
