import itertools
import random
from fractions import Fraction as F

import pytest

from builders import (
    coordinate_generator, henkin_demo_algebra, pattern_algebra, small_algebra,
)
from mvlogic import interlab, mv_core, pavelka, polyadic
from mvlogic.interlab import (
    Exhausted, Found, HenkinFilter, NotFoundWithin, PremiseNotEntailed,
    TermCyl, TermNeg, TermOdot, TermOne, TermOplus, TermSub, TermVar,
    TermZero, VocabSplit, ZeroElement, eta_agreement_check, eta_translate,
    henkin_filter_build, interpolant_search, leq, representation_map,
)
from mvlogic.mv_core import Chain
from mvlogic.polyadic import SignatureError, build_generated, dimension_set
from mvlogic.semantics import Model, SearchTooLarge, entails, random_model
from mvlogic.syntax import (
    Atom, BOTTOM, Exists, Implies, LanguageSpec, Odot, Oplus, TOP, parse,
    predicates_of, random_formula, render,
)
from mvlogic.transform import FinTransformation, compose
from test_acceptance import boolean_representatives
from test_polyadic import CLOSURE_SPECS
from test_reads import per_row_represent, triples
from test_semantics import _prop_eval

PROPS = LanguageSpec(num_vars=2, reserve=1,
                     predicates=(("p", 0), ("q", 0), ("r", 0)))
P, Q, R = Atom("p", ()), Atom("q", ()), Atom("r", ())


class TestLeq:
    def test_zero_below_everything(self):
        chain = Chain(4)
        for b in chain.carrier:
            assert leq(F(0), b, chain)

    def test_reflexive(self):
        chain = Chain(4)
        for a in chain.carrier:
            assert leq(a, a, chain)

    def test_strict_example(self):
        assert not leq(F(1), F(1, 2), Chain(3))

    def test_agrees_with_numeric_order(self):
        chain = Chain(6)
        for a, b in itertools.product(chain.carrier, repeat=2):
            assert leq(a, b, chain) == (a <= b)


class TestInterpolantSearch:
    def test_common_atom_found(self):
        split = VocabSplit(frozenset({"p", "q"}), frozenset({"p", "r"}))
        out = interpolant_search(Odot(P, Q), Oplus(P, R), split, depth=4)
        assert out.found and out.interpolant == P

    def test_self_interpolation(self):
        split = VocabSplit(frozenset({"p"}), frozenset({"p"}))
        out = interpolant_search(P, P, split, depth=3)
        assert out.found and out.interpolant == P

    def test_premise_not_entailed(self):
        split = VocabSplit(frozenset({"p"}), frozenset({"q"}))
        with pytest.raises(PremiseNotEntailed):
            interpolant_search(P, Q, split, depth=3)

    def test_found_interpolants_independently_verified(self):
        # the search-side evaluator and the model-based one must agree on
        # every published witness, across a batch of boolean pairs
        rng = random.Random(6)
        from mvlogic.interlab import _candidate_formulas
        pool_a = list(_candidate_formulas(frozenset({"p", "q"}), 3))
        pool_b = list(_candidate_formulas(frozenset({"q", "r"}), 3))
        split = VocabSplit(frozenset({"p", "q"}), frozenset({"q", "r"}))
        checked = 0
        for _ in range(200):
            a = pool_a[rng.randrange(len(pool_a))]
            b = pool_b[rng.randrange(len(pool_b))]
            try:
                out = interpolant_search(a, b, split, depth=5)
            except PremiseNotEntailed:
                continue
            if out.found:
                checked += 1
                c = out.interpolant
                assert predicates_of(c) <= {"q"}
                assert not entails([], Implies(a, c), PROPS, 1, 2).refuted
                assert not entails([], Implies(c, b), PROPS, 1, 2).refuted
        assert checked > 20

    def test_not_found_is_bounded_verdict(self):
        # over the three-valued chain no size-1 candidate sits between
        # p(*)(q(*)q) and (q(*)q)(+)r, but q(*)q itself does at size 3
        split = VocabSplit(frozenset({"p", "q"}), frozenset({"q", "r"}))
        a = Odot(P, Odot(Q, Q))
        b = Oplus(Odot(Q, Q), R)
        shallow = interpolant_search(a, b, split, depth=1, chain_n=3)
        assert isinstance(shallow, NotFoundWithin) and shallow.depth == 1
        deeper = interpolant_search(a, b, split, depth=3, chain_n=3)
        assert deeper.found and deeper.interpolant == Odot(Q, Q)

    def test_bounded_model_scope(self):
        lang = LanguageSpec(num_vars=3, reserve=1,
                            predicates=(("p", 1), ("q", 1)))
        a = Atom("q", ("v0",))
        b = Oplus(Atom("q", ("v0",)), Atom("p", ("v0",)))
        split = VocabSplit(frozenset({"q"}), frozenset({"p", "q"}))
        out = interpolant_search(a, b, split, depth=2, chain_n=2,
                                 scope=("bounded-model", 2), language=lang)
        assert out.found

    def test_bounded_candidate_order(self):
        # size 1, then size 2 (negations and one-variable blocks), each
        # stratum in render order; size 3 adds the binary connectives
        from mvlogic.interlab import _candidate_formulas
        lang = LanguageSpec(num_vars=3, reserve=1,
                            predicates=(("p", 1), ("r", 0)))
        pool = [render(f) for f in _candidate_formulas(
            frozenset({"p", "r"}), 3, lang, ["v0", "v1"])]
        atoms = ["F", "T", "p(v0)", "p(v1)", "r"]
        assert pool[:30] == atoms + [
            f"{q}{{{v}}} {f}" for q in "AE" for v in ("v0", "v1")
            for f in atoms] + [f"~{f}" for f in atoms]
        assert len(pool) == 230
        assert pool[30:36] == [
            "A{v0} A{v0} F", "A{v0} A{v0} T", "A{v0} A{v0} p(v0)",
            "A{v0} A{v0} p(v1)", "A{v0} A{v0} r", "A{v0} A{v1} F"]
        assert pool[-5:] == ["~~F", "~~T", "~~p(v0)", "~~p(v1)", "~~r"]


def fraction_search(a, b, split, depth, chain_n):
    """The propositional interpolant search on Fraction valuations: each
    check walks both sides at every valuation of their atoms, and a hit
    is verified again through semantics.entails."""
    chain = Chain(chain_n)

    def holds(lhs, rhs):
        atoms = sorted(predicates_of(lhs) | predicates_of(rhs))
        for values in itertools.product(chain.carrier, repeat=len(atoms)):
            valuation = dict(zip(atoms, values))
            if _prop_eval(lhs, valuation, chain) \
                    > _prop_eval(rhs, valuation, chain):
                return False
        return True

    def verified(c):
        return not any(entails([], phi, PROPS, 1, chain_n).refuted
                       for phi in (Implies(a, c), Implies(c, b)))

    if not holds(a, b):
        raise PremiseNotEntailed(f"{render(a)} does not entail {render(b)}")
    for c in interlab._candidate_formulas(split.common, depth):
        if holds(a, c) and holds(c, b) and verified(c):
            return Found(c)
    return NotFoundWithin(depth)


def search_outcome(search, a, b, depth, chain_n):
    """(found, interpolant or depth), or the reason the premise fails."""
    split = VocabSplit(frozenset({"p", "q"}), frozenset({"q", "r"}))
    try:
        out = search(a, b, split, depth, chain_n)
    except PremiseNotEntailed as exc:
        return str(exc)
    return out.found, out.interpolant if out.found else out.depth


# no formula over q alone sits between these on L3 or L4: the max of the
# first and the min of the second lie strictly between 0 and 1, and at
# q = 0 and q = 1 every formula over q alone is 0 or 1
NO_INTERPOLANT = (parse("p (*) (p -> ~p)", PROPS),
                  parse("(r -> ~r) -> ~r", PROPS))


def formula_size(phi):
    """The number of nodes of a formula, the size candidates are ordered
    by."""
    return 1 + sum(formula_size(getattr(phi, key))
                   for key in ("body", "left", "right") if hasattr(phi, key))


class TestCaps:
    @staticmethod
    def strata(leaves, n_vars, depth):
        """The stratum sizes _stratum_size gives, up to depth."""
        sizes = {}
        for size in range(1, depth + 1):
            sizes[size] = range(interlab._stratum_size(size, sizes, leaves,
                                                       n_vars))
        return [len(sizes[s]) for s in sizes]

    def test_stratum_sizes_match_the_enumeration(self):
        lang = LanguageSpec(num_vars=3, reserve=1,
                            predicates=(("p", 1), ("r", 0)))
        for common, language, variables, leaves in (
                ({"q"}, None, (), 3), ({"p", "q"}, None, (), 4),
                ({"p", "r"}, lang, ["v0", "v1"], 5)):
            sizes = [0] * 5
            for c in interlab._candidate_formulas(frozenset(common), 5,
                                                  language, variables):
                sizes[formula_size(c) - 1] += 1
            assert sizes == self.strata(leaves, len(variables), 5)

    def test_cap_admits_the_exhaustive_one_atom_depth_9_search(self):
        assert sum(self.strata(3, 0, 9)) == 732753 \
            <= interlab.MAX_CANDIDATES < sum(self.strata(4, 0, 9))

    def test_stratum_past_the_cap_is_not_built(self, monkeypatch):
        # size 1 holds F, T and q; size 2 would be their negations
        def built(*args):
            raise AssertionError("a stratum past the cap was built")

        monkeypatch.setattr(interlab, "MAX_CANDIDATES", 5)
        monkeypatch.setattr(interlab, "Neg", built)
        pool = []
        with pytest.raises(SearchTooLarge) as exc:
            pool.extend(interlab._candidate_formulas(frozenset({"q"}), 9))
        assert [render(c) for c in pool] == ["F", "T", "q"]
        assert str(exc.value) == \
            "6 candidates up to size 2 exceed the cap of 5"

    def test_truth_table_past_the_cap_is_not_built(self, monkeypatch):
        def built(*args):
            raise AssertionError("a truth table past the cap was built")

        monkeypatch.setattr(interlab, "_level_tables", built)
        split = VocabSplit(frozenset({"p", "q", "s"}), frozenset({"q", "r"}))
        a = parse("p (*) q (*) s", LanguageSpec(
            num_vars=2, reserve=1,
            predicates=(("p", 0), ("q", 0), ("s", 0))))
        with pytest.raises(SearchTooLarge) as exc:
            interpolant_search(a, Oplus(Q, R), split, depth=3, chain_n=100)
        assert str(exc.value) == \
            "100^3 valuations exceed the cap of 500000"

    def test_search_meets_the_cap(self, monkeypatch):
        split = VocabSplit(frozenset({"p", "q"}), frozenset({"q", "r"}))
        monkeypatch.setattr(interlab, "MAX_CANDIDATES", 771)
        assert interpolant_search(*NO_INTERPOLANT, split, depth=5,
                                  chain_n=3) == NotFoundWithin(5)
        monkeypatch.setattr(interlab, "MAX_CANDIDATES", 770)
        with pytest.raises(SearchTooLarge):
            interpolant_search(*NO_INTERPOLANT, split, depth=5, chain_n=3)


class TestAgainstFractionSearch:
    def test_criterion_07_pairs(self):
        _, reps_a = boolean_representatives(["p", "q"])
        _, reps_b = boolean_representatives(["q", "r"])
        found = 0
        for a in reps_a.values():
            for b in reps_b.values():
                expected = search_outcome(fraction_search, a, b, 9, 2)
                assert search_outcome(interpolant_search, a, b, 9, 2) \
                    == expected, (render(a), render(b))
                found += expected[0] is True
        assert found > 0

    def test_seeded_l3_l4_pairs(self):
        rng = random.Random(12)
        left = LanguageSpec(num_vars=2, reserve=1,
                            predicates=(("p", 0), ("q", 0)))
        right = LanguageSpec(num_vars=2, reserve=1,
                             predicates=(("q", 0), ("r", 0)))
        kinds = set()
        for i in range(300):
            a = random_formula(rng, left, 3, quantifiers=False)
            b = random_formula(rng, right, 3, quantifiers=False)
            expected = search_outcome(fraction_search, a, b, 5, 3 + i % 2)
            assert search_outcome(interpolant_search, a, b, 5, 3 + i % 2) \
                == expected, (render(a), render(b))
            kinds.add(type(expected))
        assert kinds == {str, tuple}

    @pytest.mark.parametrize("chain_n", [3, 4])
    def test_no_interpolant_pair(self, chain_n):
        expected = search_outcome(fraction_search, *NO_INTERPOLANT, 5, chain_n)
        assert expected == (False, 5)
        assert search_outcome(interpolant_search, *NO_INTERPOLANT, 5,
                              chain_n) == expected

    def test_no_interpolant_pair_at_depth_7(self):
        split = VocabSplit(frozenset({"p", "q"}), frozenset({"q", "r"}))
        assert interpolant_search(*NO_INTERPOLANT, split, depth=7,
                                  chain_n=3) == NotFoundWithin(7)


class TestHenkin:
    def test_demo_algebra_succeeds(self):
        algebra, g = henkin_demo_algebra()
        hf = henkin_filter_build(algebra, g)
        assert isinstance(hf, HenkinFilter)
        assert g in hf.members
        # every logged witness really is in the filter
        dom = tuple(sorted(algebra.index_set))
        for w in hf.witnesses:
            repl = FinTransformation.replacement(dom, w.index, w.chosen)
            assert algebra.subst_el(repl, w.element) in hf.members
            if w.spare:
                assert w.chosen not in dimension_set(algebra, w.element)

    def test_constants_algebra_vacuous(self):
        algebra = build_generated((0, 1), 2, Chain(2), [], "full",
                                  "powerset", cap=40)
        hf = henkin_filter_build(algebra, algebra.one)
        assert isinstance(hf, HenkinFilter)
        assert hf.members == frozenset({algebra.one})

    def test_single_index_exhausts(self):
        g = coordinate_generator(1, 2, 0)
        algebra = build_generated((0,), 2, Chain(2), [g], "full",
                                  "powerset", cap=40)
        out = henkin_filter_build(algebra, g)
        assert isinstance(out, Exhausted)
        assert out.examined >= 1

    def test_zero_element_rejected(self):
        algebra = build_generated((0, 1), 2, Chain(2), [], "full",
                                  "powerset", cap=40)
        with pytest.raises(ZeroElement):
            henkin_filter_build(algebra, algebra.zero)

    @pytest.mark.parametrize("stranger", [(F(1, 7),) * 4, "junk"],
                             ids=["off-chain", "no-element"])
    def test_element_outside_the_carrier_rejected(self, stranger):
        # refused by name, not answered with Exhausted(examined=0)
        with pytest.raises(SignatureError) as caught:
            henkin_filter_build(small_algebra(), stranger)
        assert str(caught.value) \
            == f"element is not in the carrier: {stranger!r}"


class TestRepresentation:
    def test_demo_audit_passes(self):
        algebra, g = henkin_demo_algebra()
        hf = henkin_filter_build(algebra, g)
        psi, audit = representation_map(algebra, hf)
        assert audit.passed
        clauses = {c.clause for c in audit.results}
        assert {"unit-0", "unit-1", "neg", "oplus", "odot", "subst-action",
                "cyl-sup", "nonzero-at-identity"} <= clauses

    def test_constants_algebra_injective(self):
        chain = Chain(3)
        consts = [tuple(r for _ in range(4)) for r in chain.carrier]
        algebra = build_generated((0, 1), 2, chain, consts, "full",
                                  "powerset", cap=40)
        hf = henkin_filter_build(algebra, algebra.one)
        psi, audit = representation_map(algebra, hf)
        assert audit.passed
        at = algebra.indexed().index_of
        images = {psi[at[p]] for p in algebra.carrier}
        assert len(images) == len(algebra.carrier)

    def test_psi_of_one_is_one(self):
        algebra, g = henkin_demo_algebra()
        hf = henkin_filter_build(algebra, g)
        psi, _ = representation_map(algebra, hf)
        chain, _ = mv_core.quotient_ranks(hf.filter)
        V = algebra.indexed()
        assert set(psi[V.one]) == {chain.n - 1}
        assert set(psi[V.zero]) == {0}


def assert_psi_through_elements(algebra, hf):
    """psi[i][xi] is the level of s_x p in the quotient chain, p the
    element of index i, with s_x p and its class read off the element
    operations: subst_el and the quotient by the members of hf."""
    psi, audit = representation_map(algebra, hf)
    assert audit.passed
    chain, projection = mv_core.quotient(
        algebra, mv_core.Filter(algebra, hf.members))
    level = {v: r for r, v in enumerate(chain.carrier)}
    at = algebra.indexed().index_of
    assert len(psi) == len(algebra.carrier)
    for p in algebra.carrier:
        assert psi[at[p]] == tuple(
            level[projection[algebra.subst_el(x, p)]]
            for x in algebra.transformations)


class TestPsiOnIndices:
    def test_demo_psi_through_elements(self):
        algebra, g = henkin_demo_algebra()
        assert_psi_through_elements(algebra, henkin_filter_build(algebra, g))

    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_psi_through_elements(self, name):
        *args, cap = CLOSURE_SPECS[name]
        algebra = build_generated(*args, cap=cap)
        for seed in (algebra.carrier[1], algebra.one):
            hf = henkin_filter_build(algebra, seed)
            # the semigroup spec has no Henkin filter
            assert isinstance(hf, HenkinFilter) == (name != "semigroup")
            if isinstance(hf, HenkinFilter):
                assert_psi_through_elements(algebra, hf)

    def test_henkin_filter_holds_its_maximal_filter(self):
        algebra = small_algebra()
        V = algebra.indexed()
        hf = henkin_filter_build(algebra, algebra.carrier[1])
        assert HenkinFilter.__record_fields__ \
            == ("filter", "seed", "witnesses")
        assert hf.filter in mv_core.maximal_filters(algebra)
        assert hf.members == frozenset(V.elements[i] for i in hf.filter.ids)

    def test_one_filter_set_per_algebra(self, monkeypatch):
        # the Henkin search, both maps and the quotient read the maximal
        # filters of the algebra, each validated once
        algebra = small_algebra()
        validated = []
        validate = mv_core.Filter._validate

        def counted(flt, *args):
            validated.append(flt)
            return validate(flt, *args)

        monkeypatch.setattr(mv_core.Filter, "_validate", counted)
        hf = henkin_filter_build(algebra, algebra.carrier[1])
        representation_map(algebra, hf)
        pavelka.pavelka_representation(
            algebra, pavelka.functional_pavelka(algebra, require_full=False),
            hf)
        filters = mv_core.maximal_filters(algebra)
        for flt in filters:
            mv_core.quotient(algebra, flt)
        assert len(validated) == len(filters) > 0
        assert any(hf.filter is flt for flt in filters)
        assert hf.members == hf.filter.members

    def test_representation_maps_build_no_filter(self, monkeypatch):
        algebra = small_algebra()
        pav = pavelka.functional_pavelka(algebra, require_full=False)
        hf = henkin_filter_build(algebra, algebra.one)
        built = []
        real = mv_core.Filter.__post_init__

        def counted(flt):
            built.append(flt)
            real(flt)

        monkeypatch.setattr(mv_core.Filter, "__post_init__", counted)
        assert representation_map(algebra, hf)[1].passed
        assert pavelka.pavelka_representation(algebra, pav, hf)[1].passed
        assert built == []

    def test_filter_of_another_algebra_refused(self):
        algebra, other = small_algebra(), pattern_algebra()
        pav = pavelka.functional_pavelka(other, require_full=False)
        hf = henkin_filter_build(algebra, algebra.one)
        with pytest.raises(ValueError, match="is no filter of"):
            representation_map(other, hf)
        with pytest.raises(ValueError, match="is no filter of"):
            pavelka.pavelka_representation(other, pav, hf)


def _first(name, triples):
    """(name, holds, witness) of the first (lhs, rhs, witness) that differs."""
    for lhs, rhs, witness in triples:
        if lhs != rhs:
            return name, False, witness
    return name, True, None


def reference_clauses(V, rows, vs, top):
    """The ~, (+), (*), subst-action and cyl-sup clauses of the psi rows,
    one instance at a time: the per-element generators of the
    representation audits before they compared whole rows."""
    els = V.elements
    position = {x: xi for xi, x in enumerate(vs)}
    clauses = {"neg": _first("neg", (
        (rows[V.neg[i]], tuple(top - r for r in row), (els[i],))
        for i, row in enumerate(rows)))}
    for name, table, combine in (
            ("oplus", V.oplus, lambda u, v: min(u + v, top)),
            ("odot", V.odot, lambda u, v: max(u + v - top, 0))):
        clauses[name] = _first(name, (
            (rows[table[i][k]], tuple(map(combine, row, rows[k])),
             (els[i], els[k]))
            for i, row in enumerate(rows) for k in V.carrier))

    def subst_pairs():
        for tau in vs:
            targets = [position.get(compose(x, tau)) for x in vs]
            if None in targets:
                continue
            s_tau = V.subst[tau]
            for i, row in enumerate(rows):
                yield (rows[s_tau[i]], tuple(row[t] for t in targets),
                       (tau, els[i]))

    def cyl_pairs():
        index_set = V.algebra.index_set
        for k in (next(iter(j)) for j in V.algebra.scopes if len(j) == 1):
            variants = [
                [yi for yi, y in enumerate(vs)
                 if all(y.apply(i) == x.apply(i) for i in index_set if i != k)]
                for x in vs]
            ck = V.cyl[frozenset({k})]
            for i, row in enumerate(rows):
                cp = rows[ck[i]]
                for xi, ids in enumerate(variants):
                    yield (cp[xi], max(row[yi] for yi in ids),
                           (k, els[i], vs[xi]))

    clauses["subst-action"] = _first("subst-action", subst_pairs())
    clauses["cyl-sup"] = _first("cyl-sup", cyl_pairs())
    return clauses


# carrier index and coordinate of the psi entry moved by one level
SPOTS = [None, (0, 0), (1, 0), (2, 1), (5, 2), (-1, -1), (9, 3), (40, 1)]


def l129_halves():
    """The 81-element halves algebra over Chain(129): Pavelka's top is
    128, so its psi rows are tuples rather than byte strings."""
    *args, cap = CLOSURE_SPECS["l129-halves"]
    return build_generated(*args, cap=cap)


class TestClausesAgainstReference:
    @pytest.fixture(params=[small_algebra, pattern_algebra, l129_halves],
                    ids=["small", "pattern", "l129-halves"])
    def perturbed(self, request, monkeypatch):
        """(algebra, rows seen): build_psi with one entry moved, per spot,
        in its rows and its columns alike. Both maps build psi through
        interlab.represent, so patching interlab reaches both."""
        algebra = request.param()
        seen = []

        def install(spot):
            real = interlab.build_psi

            def build_psi(V, levels, vs, top):
                rows, columns = real(V, levels, vs, top)
                rows = [list(row) for row in rows]
                if spot is not None:
                    i, xi = spot[0] % len(rows), spot[1] % len(vs)
                    v = rows[i][xi]
                    rows[i][xi] = v - 1 if v else v + 1
                rows = [tuple(row) for row in rows]
                seen.append(rows)
                return rows, list(map(type(columns[0]), zip(*rows)))

            monkeypatch.setattr(interlab, "build_psi", build_psi)

        return algebra, seen, install

    @pytest.mark.parametrize("spot", SPOTS)
    def test_representation_map(self, perturbed, spot):
        algebra, seen, install = perturbed
        install(spot)
        V = algebra.indexed()
        hf = henkin_filter_build(algebra, algebra.carrier[1])
        _, audit = representation_map(algebra, hf)
        rows = seen[-1]
        vs = algebra.transformations
        flt = mv_core.Filter(algebra, hf.members)
        top = mv_core.quotient_ranks(flt)[0].n - 1
        ref = reference_clauses(V, rows, vs, top)
        identity = vs.index(FinTransformation.identity(algebra.index_set))
        want = [
            _first("unit-0", [(rows[V.zero], (0,) * len(vs), ("0",))]),
            _first("unit-1", [(rows[V.one], (top,) * len(vs), ("1",))]),
            ref["neg"], ref["oplus"], ref["odot"], ref["subst-action"],
            ref["cyl-sup"],
            _first("nonzero-at-identity", [(
                rows[V.index_of[hf.seed]][identity] != 0, True,
                ("identity component of the seed element",))])]
        assert [(c.clause, c.holds, c.witness) for c in audit.results] == want
        assert audit.passed == (spot is None)

    @pytest.mark.parametrize("spot", SPOTS)
    def test_pavelka_representation(self, perturbed, spot):
        algebra, seen, install = perturbed
        install(spot)
        V = algebra.indexed()
        pav = pavelka.functional_pavelka(algebra, require_full=False)
        hf = henkin_filter_build(algebra, algebra.one)
        _, audit = pavelka.pavelka_representation(algebra, pav, hf)
        rows = seen[-1]
        vs = algebra.transformations
        top = pav.chain.n - 1
        level = {v: r for r, v in enumerate(pav.chain.carrier)}
        ref = reference_clauses(V, rows, vs, top)
        want = [
            _first("unit-0", [(rows[V.zero], (0,) * len(vs), ("0",))]),
            _first("unit-1", [(rows[V.one], (top,) * len(vs), ("1",))]),
            _first("constants", [
                (rows[V.index_of[pav.constant(r)]], (level[r],) * len(vs),
                 (r,)) for r in pav.levels]),
            ref["neg"], ref["oplus"], ref["odot"], ref["cyl-sup"]]
        assert [(c.clause, c.holds, c.witness) for c in audit.results] == want

    @pytest.mark.parametrize("spot", SPOTS)
    @pytest.mark.parametrize("make", [small_algebra, pattern_algebra,
                                      l129_halves],
                             ids=["small", "pattern", "l129-halves"])
    def test_repeated_columns(self, make, spot):
        # the graded psi columns of the Pavelka representation (tuple rows
        # on l129-halves), with a copy of one column that has one entry
        # moved by a level, per spot: the columns twice over give the
        # clauses of the distinct columns and of the per-instance reference
        algebra = make()
        V = algebra.indexed()
        pav = pavelka.functional_pavelka(algebra, require_full=False)
        hf = henkin_filter_build(algebra, algebra.one)
        top = pav.chain.n - 1
        columns = list(map(tuple, interlab.build_psi(
            V, pavelka._degrees(pav, hf.filter, V.carrier, 0),
            algebra.transformations, top)[1]))
        if spot is not None:
            i, xi = spot[0] % len(V.carrier), spot[1] % len(columns)
            moved = list(columns[xi])
            moved[i] = moved[i] - 1 if moved[i] else moved[i] + 1
            columns.append(tuple(moved))

        def clauses(columns):
            return [(c.clause, c.holds, c.witness) for c in
                    mv_core.homomorphism_clauses(V, columns, top)]

        ref = reference_clauses(V, list(zip(*columns)),
                                algebra.transformations, top)
        assert clauses(columns + columns) \
            == clauses(list(dict.fromkeys(columns))) \
            == [ref["neg"], ref["oplus"], ref["odot"]]


def two_transpose_psi(V, levels, vs, top):
    """psi's (rows, columns) by the construction that one builder replaced:
    the rows from the levels read coordinate by coordinate and transposed,
    and the columns transposed back from the rows."""
    rows = mv_core._transpose(
        [tuple(map(levels.__getitem__, V.subst[x])) for x in vs],
        len(V.carrier))
    row = mv_core._row_type(max(len(V.carrier) - 1, 2 * top))
    return rows, list(map(row, zip(*rows)))


def separate_maps(algebra, hf, pav):
    """(rows, [(clause, holds, witness)]) of the crisp map and of the graded
    one, each with its own preamble and clause list over the columns of
    two_transpose_psi, as the two maps were written before they shared
    interlab.represent."""
    V, vs = algebra.indexed(), algebra.transformations
    n = len(V.carrier)

    def units(rows, top):
        return [mv_core.clause_result("unit-0", [mv_core._instance(
                    rows[V.zero], (0,) * len(vs), ("0",))]),
                mv_core.clause_result("unit-1", [mv_core._instance(
                    rows[V.one], (top,) * len(vs), ("1",))])]

    chain, ranks = mv_core.quotient_ranks(hf.filter)
    top = chain.n - 1
    rows, columns = two_transpose_psi(V, ranks, vs, top)
    row = type(columns[0])

    def subst_blocks():
        for tau, targets in zip(vs, zip(*V.composition)):
            if None not in targets:
                at = row(V.subst[tau])
                yield mv_core.column_block(
                    [mv_core._read(col, at) for col in columns],
                    list(map(columns.__getitem__, targets)),
                    zip(itertools.repeat(tau), V.elements), n)

    crisp = [*units(rows, top),
             *mv_core.homomorphism_clauses(V, columns, top),
             mv_core.clause_result("subst-action", subst_blocks()),
             interlab.cyl_sup_clause(V, columns)]
    identity = FinTransformation.identity(tuple(sorted(algebra.index_set)))
    if identity in vs:
        seed = rows[V.index_of[hf.seed]][vs.index(identity)]
        crisp.append(mv_core.clause_result("nonzero-at-identity", [
            mv_core._instance(seed != 0, True, (
                "identity component of the seed element",))]))
    crisp_rows = rows

    top = pav.chain.n - 1
    rows, columns = two_transpose_psi(
        V, pavelka._degrees(pav, hf.filter, V.carrier, 0), vs, top)
    graded = [*units(rows, top),
              mv_core.clause_result("constants", [(
                  [rows[c] for _, c in pav._bar],
                  [(l,) * len(vs) for l, _ in pav._bar], zip(pav.levels))]),
              *mv_core.homomorphism_clauses(V, columns, top),
              interlab.cyl_sup_clause(V, columns)]

    def triples(results):
        return [(c.clause, c.holds, c.witness) for c in results]

    # the maps keep their rows, so they return them as a tuple
    return (tuple(crisp_rows), triples(crisp)), (tuple(rows), triples(graded))


class TestOnePsi:
    @pytest.mark.parametrize("name", sorted(CLOSURE_SPECS))
    def test_both_maps_against_separate_construction(self, name):
        # every closure spec but the semigroup one has Henkin filters
        *args, cap = CLOSURE_SPECS[name]
        algebra = build_generated(*args, cap=cap)
        pav = pavelka.functional_pavelka(algebra, require_full=False)
        found = 0
        for seed in (algebra.carrier[1], algebra.one):
            hf = henkin_filter_build(algebra, seed)
            if not isinstance(hf, HenkinFilter):
                continue
            found += 1
            got = [(rows, [(c.clause, c.holds, c.witness)
                           for c in audit.results]) for rows, audit in (
                representation_map(algebra, hf),
                pavelka.pavelka_representation(algebra, pav, hf))]
            assert got == list(separate_maps(algebra, hf, pav))
        assert found == (0 if name == "semigroup" else 2)

    @pytest.mark.parametrize("make", [small_algebra, pattern_algebra,
                                      l129_halves],
                             ids=["small", "pattern", "l129-halves"])
    def test_builder_against_two_transposes(self, make):
        # byte columns on small and pattern, tuple columns on l129-halves
        algebra = make()
        V = algebra.indexed()
        pav = pavelka.functional_pavelka(algebra, require_full=False)
        hf = henkin_filter_build(algebra, algebra.one)
        chain, ranks = mv_core.quotient_ranks(hf.filter)
        for levels, top in (
                (ranks, chain.n - 1),
                (pavelka._degrees(pav, hf.filter, V.carrier, 0),
                 pav.chain.n - 1)):
            rows, columns = interlab.build_psi(
                V, levels, algebra.transformations, top)
            assert (rows, columns) == two_transpose_psi(
                V, levels, algebra.transformations, top)
            assert {type(c) for c in columns} == {
                mv_core._row_type(max(len(V.carrier) - 1, 2 * top))}


def i3p_algebra():
    *args, cap = CLOSURE_SPECS["i3p"]
    return build_generated(*args, cap=cap)


class TestKeptMaps:
    """Both maps keep what their filter fixes: the rows and every clause
    but the crisp map's seed clause, which each call checks for its own
    seed, as each call refuses another algebra's filter."""

    def test_a_second_call_reads_the_kept_rows(self):
        got = []
        for algebra in (i3p_algebra(), i3p_algebra()):
            pav = pavelka.functional_pavelka(algebra, require_full=False)
            hf = henkin_filter_build(algebra, algebra.one)
            for represent in (
                    lambda: representation_map(algebra, hf),
                    lambda: pavelka.pavelka_representation(algebra, pav, hf)):
                (rows, audit), (again, audit_again) = represent(), represent()
                assert again is rows
                assert audit_again == audit and audit.passed
                assert type(rows) is tuple
                assert {type(r) for r in rows} == {tuple}
                got.append(rows)
        # the rows of a fresh algebra are equal, and not the same object
        assert got[2:] == got[:2]
        assert got[2] is not got[0]

    def test_each_seed_gets_its_own_seed_clause(self):
        # two Henkin filters on one maximal filter: one seeded at a member,
        # one at an element of rank 0, whose identity component is 0
        algebra = i3p_algebra()
        V = algebra.indexed()
        identity = V.position[algebra.index_set]
        flt = mv_core.maximal_filters(algebra)[0]
        _, ranks = mv_core.quotient_ranks(flt)
        member = HenkinFilter(flt, V.elements[max(flt.ids)], ())
        killed = HenkinFilter(flt, V.elements[max(
            a for a in V.carrier if ranks[a] == 0)], ())
        rows = representation_map(algebra, member)[0]
        assert rows[V.index_of[killed.seed]][identity] == 0
        for hf, holds in [(member, True), (killed, False)] * 2:
            got, audit = representation_map(algebra, hf)
            assert got is rows
            assert audit.results[-1].clause == "nonzero-at-identity"
            assert audit.results[-1].holds is holds
            assert triples(audit) == triples(per_row_represent(
                algebra, hf, mv_core.quotient_ranks)[1])

    def test_another_algebras_filter_is_refused_on_every_call(self):
        ours, theirs = i3p_algebra(), i3p_algebra()
        pav, their_pav = (pavelka.functional_pavelka(a, require_full=False)
                          for a in (ours, theirs))
        hf = henkin_filter_build(ours, ours.one)
        representation_map(ours, hf)
        pavelka.pavelka_representation(ours, pav, hf)
        for _ in range(2):
            for call in (
                    lambda: representation_map(theirs, hf),
                    lambda: pavelka.pavelka_representation(
                        theirs, their_pav, hf),
                    lambda: pavelka.pavelka_representation(
                        ours, their_pav, hf)):
                with pytest.raises(ValueError, match="is no filter of"):
                    call()


class TestEta:
    def test_variable_clause(self):
        assert eta_translate(TermVar(0), 2) == Atom("p0", ("v0", "v1"))

    def test_constant_clauses(self):
        assert eta_translate(TermZero(), 2) == BOTTOM
        assert eta_translate(TermOne(), 2) == TOP

    def test_cylinder_clause(self):
        phi = eta_translate(TermCyl(1, TermVar(0)), 2)
        assert phi == Exists(frozenset({"v1"}), Atom("p0", ("v0", "v1")))

    def test_random_agreement(self):
        lang = LanguageSpec(num_vars=4, reserve=1,
                            predicates=(("p0", 2), ("p1", 2)))
        chain = Chain(3)
        rng = random.Random(7)
        maps = [FinTransformation((0, 1), v)
                for v in itertools.product((0, 1), repeat=2)]

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                roll = rng.random()
                if roll < 0.1:
                    return TermZero()
                if roll < 0.2:
                    return TermOne()
                return TermVar(rng.randrange(2))
            kind = rng.randrange(5)
            if kind == 0:
                return TermNeg(random_term(depth - 1))
            if kind == 1:
                return TermOplus(random_term(depth - 1), random_term(depth - 1))
            if kind == 2:
                return TermOdot(random_term(depth - 1), random_term(depth - 1))
            if kind == 3:
                return TermCyl(rng.randrange(2), random_term(depth - 1))
            return TermSub(maps[rng.randrange(4)], random_term(depth - 1))

        for _ in range(150):
            model = random_model(rng, lang, 2, chain)
            assert eta_agreement_check(random_term(4), model)

    def test_capture_prone_substitution_agrees(self):
        # s_[0|1] over a cylinder is the case raw substitution mistranslates
        lang = LanguageSpec(num_vars=4, reserve=1, predicates=(("p0", 2),))
        chain = Chain(2)
        table = {(0, 0): F(0), (0, 1): F(1), (1, 0): F(1), (1, 1): F(0)}
        model = Model(lang, 2, chain, {"p0": table})
        repl = FinTransformation.from_dict({0: 1}, (0, 1))
        term = TermSub(repl, TermCyl(0, TermVar(0)))
        assert eta_agreement_check(term, model)

    def test_parts_outside_any_signature(self, monkeypatch):
        # the eta check's set algebra has no maps and no scopes: the
        # element operations build the parts of its map and its scope on
        # first use, in an empty store
        store = polyadic._SignatureStore()
        monkeypatch.setattr(polyadic, "_SIGNATURES", store)
        lang = LanguageSpec(num_vars=4, reserve=1, predicates=(("p0", 2),))
        table = {(0, 0): F(0), (0, 1): F(1, 2), (1, 0): F(1), (1, 1): F(0)}
        model = Model(lang, 2, Chain(3), {"p0": table})
        swap = FinTransformation.transposition((0, 1), 0, 1)
        assert eta_agreement_check(TermSub(swap, TermCyl(1, TermVar(0))),
                                   model)
        assert {key[0] for key in store.parts} \
            == {"assignments", "positions", "blocks"}
        assert ("positions", (0, 1), (0, 1), ((1, 0),)) in store.parts
        assert ("blocks", (0, 1), (0, 1), (frozenset({1}),)) in store.parts
