import itertools
import random

import pytest

from mvlogic import transform
from mvlogic.mv_core import AuditReport
from mvlogic.transform import (
    IDENTITY_OMEGA, PRED, SUC, ClosureResult, FinTransformation,
    IndexSetMismatch, OmegaMap, SemigroupSpec, check_strongly_rich, compose,
    modify, parse_transformation, semigroup_closure, support,
)


def pointwise_equal(f, g, upto=12):
    return all(f.apply(x) == g.apply(x) for x in range(upto))


def random_omega(rng, shifts=3, points=6):
    """A map of shift -shifts..shifts with up to four override entries
    inside 0..points."""
    shift = rng.randint(-shifts, shifts)
    table = {rng.randint(0, points): rng.randint(0, points)
             for _ in range(rng.randint(0, 4))}
    return OmegaMap.make(table, shift)


def power(t, n):
    """t composed with itself, n >= 1 factors."""
    acc = t
    for _ in range(n - 1):
        acc = compose(acc, t)
    return acc


def reference_compose(f, g):
    """f after g on maps of the naturals as a table over compose's window,
    put in normal form by OmegaMap.make: the reference for compose."""
    def max_key(t):
        return max((k for k, _ in t.override), default=-1)

    bound = max(max_key(g), max_key(f) - g.shift, -g.shift,
                -f.shift - g.shift, 0) + 2
    return OmegaMap.make({x: f.apply(g.apply(x)) for x in range(bound + 1)},
                         f.shift + g.shift)


class TestCompose:
    def test_suc_after_pred(self):
        sp = compose(SUC, PRED)
        assert sp.shift == 0 and sp.override == ((0, 1),)
        # pointwise oracle on an initial segment
        for x in range(11):
            assert sp.apply(x) == SUC.apply(PRED.apply(x))

    def test_pred_after_suc_is_identity(self):
        assert compose(PRED, SUC) == IDENTITY_OMEGA

    def test_identity_neutral(self):
        rng = random.Random(0)
        for _ in range(50):
            f = random_omega(rng)
            assert compose(f, IDENTITY_OMEGA) == f
            assert compose(IDENTITY_OMEGA, f) == f

    def test_associativity_random(self):
        rng = random.Random(1)
        for _ in range(200):
            f, g, h = (random_omega(rng) for _ in range(3))
            assert compose(f, compose(g, h)) == compose(compose(f, g), h)

    def test_omega_maps_against_the_table_reference(self):
        # shifts -4..4 and overrides inside 0..8: equal to the table built
        # over the window and normalised, and pointwise f after g past it
        rng = random.Random(30)
        for _ in range(20000):
            f, g = (random_omega(rng, shifts=4, points=8) for _ in range(2))
            fg = compose(f, g)
            assert fg == reference_compose(f, g)
            assert fg == OmegaMap.make(dict(fg.override), fg.shift)
            assert all(fg.apply(x) == f.apply(g.apply(x)) for x in range(16))

    def test_finite_composition(self):
        dom = (0, 1, 2)
        f = FinTransformation.replacement(dom, 0, 1)
        g = FinTransformation.transposition(dom, 1, 2)
        fg = compose(f, g)
        assert [fg.apply(i) for i in dom] == [f.apply(g.apply(i)) for i in dom]

    def test_mismatch_errors(self):
        with pytest.raises(IndexSetMismatch):
            compose(SUC, FinTransformation.identity((0, 1)))
        with pytest.raises(IndexSetMismatch):
            compose(FinTransformation.identity((0, 1)),
                    FinTransformation.identity((0, 1, 2)))


class TestSupport:
    def test_identity_empty(self):
        assert support(IDENTITY_OMEGA) == support(IDENTITY_OMEGA)
        assert support(IDENTITY_OMEGA).finite
        assert support(IDENTITY_OMEGA).points == frozenset()

    def test_suc2_pred2(self):
        comp = compose(power(SUC, 2), power(PRED, 2))
        # oracle: composite should be x -> max(x, 2) pointwise
        for x in range(11):
            assert comp.apply(x) == max(x, 2)
        info = support(comp)
        assert info.finite and info.points == frozenset({0, 1})

    def test_single_replacement(self):
        t = FinTransformation.replacement(tuple(range(7)), 3, 5)
        assert support(t).points == frozenset({3})

    def test_infinite_support_reports_fixed_points(self):
        info = support(PRED)
        assert not info.finite
        assert info.points == frozenset({0})  # pred(0) = 0
        assert support(SUC).points == frozenset()

    def test_support_of_composition_contained(self):
        rng = random.Random(2)
        for _ in range(100):
            f, g = random_omega(rng), random_omega(rng)
            fg = compose(f, g)
            for x in range(10):
                if g.apply(x) == x and f.apply(x) == x:
                    assert fg.apply(x) == x


class TestModify:
    def test_identity_modification(self):
        t = modify(FinTransformation.identity((0, 1, 2, 3, 4)), 2, 4)
        assert t == FinTransformation.replacement((0, 1, 2, 3, 4), 2, 4)

    def test_noop_modification(self):
        t = FinTransformation.transposition((0, 1, 2), 0, 1)
        assert modify(t, 0, t.apply(0)) == t
        m = OmegaMap.make({2: 5}, 1)
        assert modify(m, 2, 5) == m

    def test_suc_pinned_at_zero(self):
        t = modify(SUC, 0, 0)
        assert t.shift == 1 and t.override == ((0, 0),)
        for x in range(1, 11):
            assert t.apply(x) == x + 1
        assert t.apply(0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            modify(FinTransformation.identity((0, 1)), 0, 5)


class TestNormalForm:
    def test_redundant_overrides_dropped(self):
        assert OmegaMap.make({3: 4}, 1) == SUC

    def test_pointwise_equality_iff_normal_forms_match(self):
        rng = random.Random(5)
        for _ in range(300):
            f, g = random_omega(rng), random_omega(rng)
            window = max(
                [k for k, _ in f.override] + [k for k, _ in g.override]
                + [abs(f.shift), abs(g.shift)], default=0) + 4
            same = all(f.apply(x) == g.apply(x) for x in range(window + 1))
            assert same == (f == g)


class TestRange:
    def test_in_range_and_missing_values_against_the_image(self):
        # overrides sit below 9 and the tail moves by at most 3, so the
        # first 60 points take every value below 40 that the map takes
        rng = random.Random(32)
        for _ in range(300):
            t = OmegaMap.make({rng.randrange(9): rng.randrange(9)
                               for _ in range(rng.randint(0, 3))},
                              rng.randint(-3, 3))
            image = {t.apply(x) for x in range(60)}
            assert ([t.in_range(m) for m in range(20)]
                    == [m in image for m in range(20)])
            assert set(t.missing_values()) == set(range(40)) - image


class TestClosure:
    def test_identity_alone(self):
        out = semigroup_closure(SemigroupSpec((IDENTITY_OMEGA,), 10))
        assert out.elements == (IDENTITY_OMEGA,) and not out.truncated

    def test_idempotent_replacement(self):
        t = FinTransformation.replacement((0, 1), 0, 1)
        out = semigroup_closure(SemigroupSpec((t,), 10))
        assert out.elements == (t,)
        assert compose(t, t) == t  # oracle for why it is alone

    def test_full_transformation_monoid_on_three_points(self):
        dom = (0, 1, 2)
        gens = [FinTransformation.replacement(dom, i, j)
                for i in dom for j in dom if i != j]
        gens += [FinTransformation.transposition(dom, i, j)
                 for i in dom for j in dom if i < j]
        out = semigroup_closure(SemigroupSpec(tuple(gens), 100))
        # oracle: enumerate all 27 total maps independently
        import itertools
        everything = {FinTransformation(dom, values)
                      for values in itertools.product(dom, repeat=3)}
        assert set(out.elements) == everything
        assert not out.truncated

    def test_closed_when_not_truncated(self):
        out = semigroup_closure(SemigroupSpec(
            (FinTransformation.replacement((0, 1), 0, 1),
             FinTransformation.transposition((0, 1), 0, 1)), 50))
        members = set(out.elements)
        for f in members:
            for g in members:
                assert compose(f, g) in members

    def test_truncation_reported(self):
        out = semigroup_closure(SemigroupSpec((SUC, PRED), 10))
        assert out.truncated
        assert len(out.elements) <= 10


def pairwise_closure(gens, cap):
    """The closure by pairs: every pair of found maps is composed both
    ways, and the pass stops at the first new map past the cap. The
    reference for semigroup_closure."""
    gens = list(dict.fromkeys(gens))
    elements, seen = list(gens), set(gens)
    i = 0
    while i < len(elements):
        for u in list(elements):
            for cand in (compose(elements[i], u), compose(u, elements[i])):
                if cand not in seen:
                    if len(elements) >= cap:
                        return seen, True
                    seen.add(cand)
                    elements.append(cand)
        i += 1
    return seen, False


def word_lengths(gens):
    """The fewest generators whose product is t, for every t they
    generate, found level by level."""
    lengths = {g: 1 for g in gens}
    level, k = list(lengths), 1
    while level:
        k += 1
        level = [t for t in dict.fromkeys(compose(f, g) for f in level
                                          for g in gens)
                 if t not in lengths]
        lengths.update(dict.fromkeys(level, k))
    return lengths


def _three_point_generator_sets():
    dom = (0, 1, 2)
    maps = [FinTransformation.replacement(dom, i, j)
            for i in dom for j in dom if i != j]
    maps += [FinTransformation.transposition(dom, i, j)
             for i in dom for j in dom if i < j]
    return [combo for size in (2, 3)
            for combo in itertools.combinations(maps, size)]


T4_GENERATORS = tuple(parse_transformation(text, range(4))
                      for text in ("[0|1]", "[0,1]", "[1,2]", "[2,3]"))


class TestClosureAgainstPairwise:
    @pytest.mark.parametrize("cap", [10, 100, 1000])
    @pytest.mark.parametrize("gens", _three_point_generator_sets()
                             + [T4_GENERATORS],
                             ids=lambda gens: ";".join(map(repr, gens)))
    def test_same_closure_or_a_breadth_first_prefix(self, gens, cap):
        out = semigroup_closure(SemigroupSpec(gens, cap))
        want, truncated = pairwise_closure(gens, cap)
        assert out.truncated == truncated
        assert len(out.elements) == len(want)
        if not truncated:
            assert out.elements == tuple(sorted(
                want, key=lambda t: t.sort_key()))
            return
        lengths = word_lengths(gens)
        longest = max(lengths[t] for t in out.elements)
        shorter = {t for t, k in lengths.items() if k < longest}
        assert shorter <= set(out.elements) <= set(lengths)

    def test_t4_closes_on_all_256_maps(self):
        out = semigroup_closure(SemigroupSpec(T4_GENERATORS, 1000))
        assert len(out.elements) == 4 ** 4 and not out.truncated


class TestStrongRichness:
    def test_suc_pred_passes(self):
        report = check_strongly_rich(SUC, PRED, n_max=16)
        assert report.passed
        for n, supp in enumerate(report.supports, start=1):
            assert supp == tuple(range(n))

    def test_reports_equal_those_of_the_table_reference(self, monkeypatch):
        rng = random.Random(31)
        ambient = SemigroupSpec(
            (OmegaMap.make({0: 1}, 0), OmegaMap.make({0: 1, 1: 0}, 0),
             SUC, PRED), 40)
        runs = [((SUC, PRED), {"n_max": n}) for n in range(1, 65)]
        runs += [((OmegaMap.make({0: 3}, 2), OmegaMap.make({1: 0}, -2)),
                  {"n_max": 8, "ambient": ambient, "sample": 4}),
                 ((modify(SUC, 0, 0), modify(PRED, 2, 5)),
                  {"n_max": 8, "ambient": ambient, "sample": 4}),
                 # supp(suc o pi) holds 1, the least point of Rg(suc)
                 ((SUC, OmegaMap.make({1: 1}, -1)), {"n_max": 4})]
        runs += [((random_omega(rng, 4, 8), random_omega(rng, 4, 8)),
                  {"n_max": 6}) for _ in range(300)]
        assert any(sigma.override and pi.override
                   for (sigma, pi), _ in runs)
        reports = [check_strongly_rich(*maps, **kw) for maps, kw in runs]
        # a support outside Rg(sigma^n), read point by point off the power;
        # a failure lists its stray points in increasing order
        strays = 0   # failures on override-free powers
        listed = 0   # failures that list more than one stray point
        for ((sigma, _), _), report in zip(runs, reports):
            found = {c.name: c for c in report.results}
            for n, points in enumerate(report.supports, start=1):
                if points is not None:
                    assert list(points) == sorted(points)
                    sig_pow = power(sigma, n)
                    inside = sorted(filter(sig_pow.in_range, points))
                    strays += bool(inside) and not sig_pow.override
                    listed += len(inside) > 1
                    c = found[f"support-outside-range-n{n}"]
                    assert (c.status, c.detail) == (
                        ("fail", f"{inside} lie inside Rg(sigma^{n})")
                        if inside else ("pass", ""))
        assert strays and listed
        monkeypatch.setattr(transform, "compose", reference_compose)
        assert reports == [check_strongly_rich(*maps, **kw)
                           for maps, kw in runs]

    def test_identity_fails_surjectivity(self):
        report = check_strongly_rich(IDENTITY_OMEGA, IDENTITY_OMEGA, n_max=2)
        assert not report.passed
        assert any(c.name == "range-not-everything" for c in report.failures())

    def test_suc_squared_fails_retraction(self):
        report = check_strongly_rich(power(SUC, 2), PRED, n_max=2)
        names = {c.name for c in report.failures()}
        assert "retraction-n1" in names
        # oracle: (pred o suc^2)(0) = 1 != 0
        assert compose(PRED, power(SUC, 2)).apply(0) == 1

    def test_violated_closure_conditions_fail(self):
        # the closure of [0|1] alone is {[0|1]}, finite and without suc or
        # pred, so every closure condition is violated, not unresolved
        ambient = SemigroupSpec((OmegaMap.make({0: 1}, 0),), 10)
        report = check_strongly_rich(SUC, PRED, ambient=ambient, n_max=1,
                                     sample=1, ij_bound=1)
        assert isinstance(report, AuditReport)
        assert report.closure_truncated is False and not report.passed
        assert [(c.name, c.holds) for c in report.failures()] == [
            ("closure-contains-sigma", False), ("closure-contains-pi", False),
            ("closure-modify[0|0]-omega(shift=0, {0->1})", False),
            ("closure-conjugate-omega(shift=0, {0->1})", False)]
        assert all(c.holds for c in report.results[:4])

    def test_closure_spot_checks_reported(self):
        ambient = SemigroupSpec(
            (OmegaMap.make({0: 1}, 0), OmegaMap.make({0: 1, 1: 0}, 0),
             SUC, PRED), 60)
        report = check_strongly_rich(SUC, PRED, ambient=ambient, n_max=4,
                                     sample=3, ij_bound=2)
        assert report.passed
        assert report.closure_truncated is True
        statuses = {c.status for c in report.results
                    if c.name.startswith("closure-")}
        assert statuses <= {"confirmed", "unresolved"}


class TestLiterals:
    def test_named_maps(self):
        assert parse_transformation("id") == IDENTITY_OMEGA
        assert parse_transformation("suc") == SUC
        assert parse_transformation("pred") == PRED

    def test_replacement_and_transposition(self):
        assert parse_transformation("[2|5]") == OmegaMap.make({2: 5}, 0)
        assert parse_transformation("[1,3]") == OmegaMap.make({1: 3, 3: 1}, 0)
        assert parse_transformation("[0|1]", domain=(0, 1, 2)) \
            == FinTransformation.replacement((0, 1, 2), 0, 1)

    def test_table_literal(self):
        t = parse_transformation("{0->2,1->2}")
        assert dict(zip(t.domain, t.values)) == {0: 2, 1: 2, 2: 2}

    def test_composition_literal(self):
        assert parse_transformation("suc.pred") == compose(SUC, PRED)
        assert parse_transformation("pred.suc") == IDENTITY_OMEGA

    def test_bad_literals(self):
        with pytest.raises(ValueError):
            parse_transformation("nonsense")
        with pytest.raises(ValueError):
            parse_transformation("suc", domain=(0, 1))
