import collections
import copy
import functools
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from builders import element_implies, pattern_algebra, small_algebra, to_table
from mvlogic import interlab, mv_core, pavelka, polyadic
from mvlogic.mv_core import (
    MAX_AUDIT_CARRIER, MAX_CHAIN_VIEW, STANDARD, AuditTooLarge, CarrierError,
    Chain, Filter, FilterError, FilterNotFound, IndexedMV, MVAxiomError,
    NonMaximalFilter, ProperFilterRequired, StandardRationals, TableAlgebra,
    ViewTooLarge, SAMPLE_DENOMINATOR, check_mv_axioms,
    eval_basic, extend_to_maximal, filter_generate, is_json_int, json_field,
    json_index_into, json_list_of, maximal_filters, principal_filter,
    quotient, residuum_by_maximization, tnorm_eval,
)
from mvlogic.polyadic import build_generated
from test_polyadic import CLOSURE_SPECS

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

    @pytest.mark.parametrize("algebra", [Chain(3), to_table(Chain(3))],
                             ids=["chain", "table"])
    def test_sampled_audits_only_the_standard_algebra(self, algebra):
        # sampled triples are arbitrary rationals: outside a chain's carrier
        # and unknown to a table's labels
        with pytest.raises(ValueError, match="needs StandardRationals"):
            check_mv_axioms(algebra, mode="sampled", count=10)

    def test_huge_chain_builds_no_carrier(self):
        chain = Chain(10 ** 9)
        assert chain._carrier is None and chain.n == 10 ** 9
        with pytest.raises(AuditTooLarge):
            check_mv_axioms(chain)
        assert chain._carrier is None
        assert Chain(5).carrier == tuple(F(i, 4) for i in range(5))

    def test_audit_cap_raises_before_the_first_triple(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the audit read a triple")

        big = to_table(Chain(MAX_AUDIT_CARRIER + 1), audit=False)
        monkeypatch.setattr(Chain, "oplus", walked)
        monkeypatch.setattr(TableAlgebra, "oplus", walked)
        for algebra in (Chain(MAX_AUDIT_CARRIER + 1), Chain(10 ** 5), big):
            with pytest.raises(AuditTooLarge, match="exhaustive audit cap"):
                check_mv_axioms(algebra)
        # every carrier audited today passes, up to the 81-element table
        # of AbstractPolyadicAlgebra.from_functional(small_algebra())
        assert MAX_AUDIT_CARRIER >= 81

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

    @pytest.mark.parametrize(
        "n,seed", [(n, s) for n in range(2, 8) for s in range(9)]
        + [pytest.param(n, None, id=f"chain{n}") for n in range(2, 13)])
    def test_witnesses_match_triple_loop(self, n, seed):
        # swapped entries of the chain's tables break several groups, and
        # seeds 6-8 also move zero, one or both; seed None audits the chain
        # itself. Each group's witness is the first failing triple of the
        # walk over carrier triples.
        if seed is None:
            algebra = Chain(n)
        else:
            algebra = TableAlgebra.from_json(corrupted_table(n, seed),
                                             audit=False)
        report = check_mv_axioms(algebra)
        assert [(r.axiom, r.holds, r.witness) for r in report.results] \
            == reference_audit(algebra)

    def test_corrupted_tables_fail_every_group(self):
        failed = {name for n in range(2, 8) for seed in range(9)
                  for name, holds, _ in reference_audit(
                      TableAlgebra.from_json(corrupted_table(n, seed),
                                             audit=False))
                  if not holds}
        assert failed == {name for name, _, _ in reference_axiom_groups()}

    def test_sampled_count_below_one_raises(self):
        for count in (0, -3):
            with pytest.raises(ValueError, match="count of at least 1"):
                check_mv_axioms(STD, mode="sampled", count=count)

    def test_sampled_witness_is_the_first_failing_draw(self, monkeypatch):
        # a law that fails exactly when x = 1, on chunks of 5 triples: the
        # 128th (*)-power of x, seven squarings, is max(128x - 127, 0),
        # nonzero only at x = 1 since 96/97 < 127/128. The witness is the
        # first such draw of the seeded sequence, which these seeds reach
        # after 28 to 41 draws
        def x_below_one(P, D, N, zero, one, x, y, z):
            for _ in range(7):
                x = D(x, x)
            return ((x, zero),)

        monkeypatch.setattr(mv_core, "SAMPLE_CHUNK", 5)
        monkeypatch.setattr(mv_core, "_AXIOMS",
                            (("x-below-one", 1, x_below_one),))
        for seed in (2, 3, 4):
            draws = sampled_triples(seed)
            first = next(t for t in draws if t[0] == 1)
            assert draws.index(first) >= 5
            report = check_mv_axioms(STD, mode="sampled", count=1000,
                                     seed=seed)
            assert report.results[0].witness == first

    @pytest.mark.parametrize("chunk", [5, 7])
    def test_sampled_witnesses_under_a_corrupted_lane_sum(self, monkeypatch,
                                                          chunk):
        # packed (+) returns u instead of u (+) v on the lanes where u > v;
        # each group's witness is the first triple, in drawing order, that
        # the element laws of StandardRationals with the same (+) refute
        class CorruptedSum(StandardRationals):
            def oplus(self, a, b):
                return a if a > b else super().oplus(a, b)

        lane_ops = mv_core._lane_ops

        def corrupted_lane_ops(d):
            pack, unpack, (oplus, odot, neg) = lane_ops(d)

            def bad_oplus(u, v):
                return pack([a if a > b else s for a, b, s in zip(
                    unpack(u), unpack(v), unpack(oplus(u, v)))])
            return pack, unpack, (bad_oplus, odot, neg)

        monkeypatch.setattr(mv_core, "SAMPLE_CHUNK", chunk)
        monkeypatch.setattr(mv_core, "_lane_ops", corrupted_lane_ops)
        algebra = CorruptedSum()
        for seed in range(6):
            triples = sampled_triples(seed, 40)
            want = [(name, witness is None, witness)
                    for name, _, law in reference_axiom_groups()
                    for witness in [next((t for t in triples
                                          if not law(algebra, *t)), None)]]
            report = check_mv_axioms(STD, mode="sampled", count=40, seed=seed)
            assert [(r.axiom, r.holds, r.witness)
                    for r in report.results] == want
            assert not report.passed and want[2][1]   # 3-units holds

    @pytest.mark.parametrize("chunk", [5, 7])
    def test_sampled_draws_are_those_of_randint(self, monkeypatch, chunk):
        # each coordinate randint(1, SAMPLE_DENOMINATOR), then randint(0,
        # den), on Random(seed), in chunks of SAMPLE_CHUNK triples
        monkeypatch.setattr(mv_core, "SAMPLE_CHUNK", chunk)
        for seed in range(50):
            count = 3 * chunk + seed % (chunk + 1)
            chunks = list(mv_core._sampled_draws(count, seed))
            assert [len(p) for p, _ in chunks] == [
                3 * min(chunk, count - start)
                for start in range(0, count, chunk)]
            rng = random.Random(seed)
            want = []
            for _ in range(3 * count):
                den = rng.randint(1, SAMPLE_DENOMINATOR)
                want.append((rng.randint(0, den), den))
            assert [pair for p, q in chunks for pair in zip(p, q)] == want

    def test_lanes_match_the_fraction_operations(self):
        # random lanes, and the boundary lanes u = 0, u = d and u + v = d,
        # over the largest common denominator of three draws, 97 * 96 * 95
        rng = random.Random(7)
        top = SAMPLE_DENOMINATOR * (SAMPLE_DENOMINATOR - 1) \
            * (SAMPLE_DENOMINATOR - 2)
        assert top == 884640
        d, u, v = [], [], []
        for den in [top] * 50 + [1, 2, 3, 97, 9312] + [
                math.lcm(*(rng.randint(1, SAMPLE_DENOMINATOR)
                           for _ in range(3))) for _ in range(400)]:
            a = rng.randint(0, den)
            for x, y in ((0, a), (a, 0), (den, a), (a, den), (a, den - a),
                         (den - a, a), (0, 0), (den, den),
                         (a, rng.randint(0, den))):
                d.append(den)
                u.append(x)
                v.append(y)
        pack, unpack, (oplus, odot, neg) = mv_core._lane_ops(d)
        U, V = pack(u), pack(v)
        assert unpack(U) == u and unpack(V) == v
        for got, op in ((oplus(U, V), STD.oplus), (odot(U, V), STD.odot)):
            assert [F(w, e) for w, e in zip(unpack(got), d)] == [
                op(F(a, e), F(b, e)) for a, b, e in zip(u, v, d)]
        assert [F(w, e) for w, e in zip(unpack(neg(U)), d)] == [
            STD.neg(F(a, e)) for a, e in zip(u, d)]

    @pytest.mark.parametrize("den", [97, 200, 1500, 2_000_000])
    def test_lanes_widen_with_the_denominator(self, monkeypatch, den):
        # a lane holds every value up to den ** 3, a bound on the common
        # denominator, and the sum of two
        monkeypatch.setattr(mv_core, "SAMPLE_DENOMINATOR", den)
        d = [den ** 3, den ** 3, 1]
        pack, unpack, (oplus, odot, neg) = mv_core._lane_ops(d)
        U, V = pack([den ** 3, den ** 3 - 1, 1]), pack([den ** 3, 1, 0])
        assert unpack(oplus(U, V)) == d
        assert unpack(odot(U, V)) == [den ** 3, 0, 0]
        assert unpack(neg(U)) == [0, 1, 0]
        if den < 1000:
            report = check_mv_axioms(STD, mode="sampled", count=200, seed=den)
            assert report.passed

    def test_no_lane_past_64_bits(self, monkeypatch):
        monkeypatch.setattr(mv_core, "SAMPLE_DENOMINATOR", 3 * 10 ** 6)
        with pytest.raises(ValueError, match="66-bit lanes"):
            mv_core._lane_ops([1])

    def test_sampled_memory_does_not_grow_with_count(self, monkeypatch):
        # chunks of 256 triples keep the traced runs short; the peak
        # follows the chunk, not the count
        monkeypatch.setattr(mv_core, "SAMPLE_CHUNK", 256)

        def peak(count):
            tracemalloc.start()
            try:
                check_mv_axioms(STD, mode="sampled", count=count)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(5 * 256) <= 1.5 * peak(256)


def corrupted_table(n, seed):
    """The JSON of Chain(n)'s table with oplus entries swapped, and for odd
    seeds neg entries swapped; seeds 6, 7 and 8 also move zero, one or
    both to another carrier index."""
    rng = random.Random(seed)
    table = to_table(Chain(n)).to_json()
    for _ in range(1 + seed % 3):
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        oplus = table["oplus"]
        oplus[a][b], oplus[c][d] = oplus[c][d], oplus[a][b]
    if seed % 2:
        a, b = rng.sample(range(n), 2)
        table["neg"][a], table["neg"][b] = table["neg"][b], table["neg"][a]
    if seed >= 6:
        keys = {6: ["zero"], 7: ["one"], 8: ["zero", "one"]}[seed]
        for key in keys:
            table[key] = rng.randrange(1, n - 1) if n > 2 \
                else 1 - table[key]
    return table


def sampled_triples(seed, count=50):
    """The first count triples of a sampled audit's seeded draws, as
    Fractions: each coordinate draws its denominator, then its numerator,
    by randint."""
    rng = random.Random(seed)
    triples = []
    for _ in range(count):
        triple = []
        for _ in range(3):
            q = rng.randint(1, SAMPLE_DENOMINATOR)
            triple.append(F(rng.randint(0, q), q))
        triples.append(tuple(triple))
    return triples


def reference_axiom_groups():
    """The eight axiom groups as element laws (name, arity, law); the law
    reads only its first `arity` arguments. Group 4 is a(*)0 = 0."""
    return (
        ("1-commutativity", 2, lambda A, a, b, c:
         A.oplus(a, b) == A.oplus(b, a) and A.odot(a, b) == A.odot(b, a)),
        ("2-associativity", 3, lambda A, a, b, c:
         A.oplus(a, A.oplus(b, c)) == A.oplus(A.oplus(a, b), c)
         and A.odot(a, A.odot(b, c)) == A.odot(A.odot(a, b), c)),
        ("3-units", 1, lambda A, a, b, c: A.oplus(a, A.zero) == a
         and A.odot(a, A.one) == a),
        ("4-annihilators", 1, lambda A, a, b, c: A.oplus(a, A.one) == A.one
         and A.odot(a, A.zero) == A.zero),
        ("5-complements", 1, lambda A, a, b, c: A.oplus(a, A.neg(a)) == A.one
         and A.odot(a, A.neg(a)) == A.zero),
        ("6-de-morgan", 2, lambda A, a, b, c:
         A.neg(A.oplus(a, b)) == A.odot(A.neg(a), A.neg(b))
         and A.neg(A.odot(a, b)) == A.oplus(A.neg(a), A.neg(b))),
        ("7-involution", 1, lambda A, a, b, c: A.neg(A.neg(a)) == a
         and A.neg(A.zero) == A.one),
        ("8-lukasiewicz", 2, lambda A, a, b, c:
         A.oplus(A.neg(A.oplus(A.neg(a), b)), b)
         == A.oplus(A.neg(A.oplus(A.neg(b), a)), a)),
    )


def reference_audit(algebra):
    """(axiom, holds, witness) of each group by the walk over carrier
    tuples, one law call per triple: the group's variables in carrier
    order, padded to a triple with the first carrier element."""
    carrier = algebra.carrier
    results = []
    for name, arity, law in reference_axiom_groups():
        pad = (carrier[0],) * (3 - arity)
        witness = next((head + pad for head in itertools.product(
            carrier, repeat=arity) if not law(algebra, *head, *pad)), None)
        results.append((name, witness is None, witness))
    return results


def tabulate(algebra):
    """The IndexedMV read off a finite algebra's own element operations."""
    carrier = algebra.carrier
    at = {v: i for i, v in enumerate(carrier)}.__getitem__
    return IndexedMV(carrier, algebra.zero, algebra.one,
                     [at(algebra.neg(a)) for a in carrier],
                     [[at(algebra.oplus(a, b)) for b in carrier]
                      for a in carrier])


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

    def test_a_filter_error_is_raised_on_every_call(self):
        # Chain(4) with 0 (+) 1 = 1: the up-set of the atom 1 is not
        # (*)-closed, and maximal_filters keeps no result of a failed call
        algebra = corrupted_chain(4, (0, 1, 3))
        messages = []
        for _ in range(2):
            with pytest.raises(FilterError) as exc:
                maximal_filters(algebra)
            messages.append(str(exc.value))
        assert messages == [
            "not (*)-closed: '1'(*)'1' escapes the member set"] * 2

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

    def test_filter_keeps_its_view_indices(self):
        algebra = small_algebra()
        members = frozenset(p for p in algebra.carrier
                            if all(v == 1 for v in p[:2]))
        at = algebra.indexed().index_of
        assert Filter(algebra, members).ids == frozenset(map(at.get, members))
        assert Filter(Chain(5), frozenset({F(1)})).ids == frozenset({4})

    def test_extend_refuses_a_filter_of_another_algebra(self):
        flt = Filter(Chain(5), frozenset({F(1)}))
        with pytest.raises(ValueError, match=r"Chain\(5\).*Chain\(3\)"):
            extend_to_maximal(Chain(3), flt)

    def test_extend_accepts_a_filter_of_an_equal_chain(self):
        # two equal chains index alike, though each builds its own view
        chain, other = Chain(5), Chain(5)
        flt = Filter(other, frozenset({F(1)}))
        assert chain.indexed() is not other.indexed()
        assert mv_core.filter_ids(flt, chain) == frozenset({4})
        assert extend_to_maximal(chain, flt).members == frozenset({F(1)})

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

    def test_refuses_a_filter_of_another_algebra(self):
        flt = Filter(Chain(5), frozenset({F(1)}))
        with pytest.raises(ValueError, match=r"Chain\(5\).*Chain\(3\)"):
            quotient(Chain(3), flt)

    def test_accepts_a_filter_of_an_equal_chain(self):
        out, projection = quotient(Chain(5),
                                   Filter(Chain(5), frozenset({F(1)})))
        assert out == Chain(5)
        assert projection == {v: v for v in Chain(5).carrier}

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
    @pytest.mark.parametrize("make", [
        lambda: Chain(5), lambda: product_algebra(2, 3)[0],
        lambda: TableAlgebra.from_json(corrupted_table(4, 2), audit=False),
        lambda: Chain(257), lambda: corrupted_product(3, 100, (250, 7, 13))],
        ids=["chain", "product", "corrupted", "chain257",
             "corrupted-product300"])
    def test_tables_agree_with_element_operations(self, make):
        algebra = make()
        view = algebra.indexed()
        assert view is algebra.indexed()
        els = view.elements
        assert els == tuple(algebra.carrier)
        assert (els[view.zero], els[view.one]) == (algebra.zero, algebra.one)
        for a, p in enumerate(els):
            assert els[view.neg[a]] == algebra.neg(p)
            for b, q in enumerate(els):
                assert els[view.oplus[a][b]] == algebra.oplus(p, q)
                assert els[view.odot[a][b]] == algebra.odot(p, q)
                assert view.le[a][b] == algebra.le(p, q)

    @pytest.mark.parametrize("make, row", [
        (lambda: Chain(256), bytes), (lambda: Chain(257), tuple),
        (lambda: corrupted_product(3, 100, (250, 7, 13)), tuple)],
        ids=["chain256", "chain257", "product300"])
    def test_tables_are_rows_of_one_type(self, make, row):
        # bytes up to 256 elements, tuples past that: chosen once, by the
        # view, for every table it holds or derives
        view = make().indexed()
        assert view.row is row
        assert {type(t) for t in (view.neg, *view.oplus, *view.odot,
                                  *view.le)} == {row}

    @pytest.mark.parametrize("n", range(2, 51))
    def test_chain_levels_agree_with_element_operations(self, n):
        # the chain's view is built from levels; tabulate reads the same
        # tables off Chain's own Fraction operations
        view, read = Chain(n).indexed(), tabulate(Chain(n))
        for name in ("elements", "zero", "one", "neg", "oplus", "odot",
                     "le"):
            assert getattr(view, name) == getattr(read, name), name

    def test_a_table_algebra_builds_one_view(self, monkeypatch):
        # its construction audit, indexed() and a second audit all read
        # the view that construction built from its tables
        data = to_table(Chain(4)).to_json()
        built = []
        init = IndexedMV.__init__

        def counted(view, *args):
            built.append(view)
            init(view, *args)

        monkeypatch.setattr(IndexedMV, "__init__", counted)
        algebra = TableAlgebra.from_json(data)
        assert check_mv_axioms(algebra).passed
        assert built == [algebra.indexed()]

    def test_the_standard_algebra_has_no_view(self):
        # every reader of a view refuses the infinite standard algebra
        for read in (STANDARD.indexed,
                     lambda: filter_generate(STANDARD, [F(1)]),
                     lambda: principal_filter(STANDARD, F(1)),
                     lambda: maximal_filters(STANDARD)):
            with pytest.raises(CarrierError, match="has no finite carrier"):
                read()

    def test_level_sums_are_min_and_max(self):
        for top in range(1, 65):
            _, plus, times = mv_core._level_tables(top)
            for s in range(2 * top + 1):
                assert (plus[s], times[s]) == (min(s, top), max(s - top, 0))

    def test_chain_view_cap_raises_before_building(self):
        # 10^5 levels would need three 10^10-entry tables
        for chain in (Chain(10 ** 5), Chain(MAX_CHAIN_VIEW + 1)):
            with pytest.raises(ViewTooLarge):
                chain.indexed()
            assert chain._indexed is None
        # the cap admits the Chain(1200) of the filter timings
        assert MAX_CHAIN_VIEW >= 1200

    def test_level_tables_stop_at_their_cap(self):
        # cleared, so that neither call is answered from the cache
        cap = mv_core.MAX_CHAIN_LEVELS
        mv_core._LEVEL_TABLES.clear()
        try:
            neg, plus, times = mv_core._level_tables(cap - 1)
            assert (len(neg), len(plus), len(times)) \
                == (cap, 2 * cap - 1, 2 * cap - 1)
            del neg, plus, times
            with pytest.raises(ViewTooLarge, match=r"^Chain\(1000001\) "
                               "exceeds the level-table cap of 1000000 "
                               "values$"):
                mv_core._level_tables(cap)
        finally:
            mv_core._LEVEL_TABLES.clear()

    def test_level_tables_keep_within_their_bound(self):
        # three chains of 4 x 10^5 levels hold 6 x 10^6 list entries: the
        # oldest leaves, while every byte-table chain stays
        tops = [400_000 + k for k in range(3)]
        mv_core._LEVEL_TABLES.clear()
        try:
            small = [mv_core._level_tables(top) for top in range(1, 128)]
            for top in tops:
                tables = mv_core._level_tables(top)
                assert mv_core._level_tables(top) is tables
                held = sum(len(t) for each in mv_core._LEVEL_TABLES.values()
                           if isinstance(each[0], list) for t in each)
                assert held <= mv_core.MAX_LEVEL_ENTRIES
            del tables
            assert list(mv_core._LEVEL_TABLES) == [*range(1, 128), *tops[1:]]
            assert all(mv_core._level_tables(top) is tables
                       for top, tables in zip(range(1, 128), small))
            # a chain at the cap fits alone
            mv_core._level_tables(mv_core.MAX_CHAIN_LEVELS - 1)
            assert list(mv_core._LEVEL_TABLES) == [
                *range(1, 128), mv_core.MAX_CHAIN_LEVELS - 1]
        finally:
            mv_core._LEVEL_TABLES.clear()


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
        self.imp = [[at[element_implies(algebra, p, q)] for q in els]
                    for p in els]
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


def reference_quotient(algebra, members):
    """quotient(algebra, Filter(algebra, members)) as the text of its
    NonMaximalFilter or as (chain size, projection), on the algebra's own
    operations: the classes, their order and their ranks as quotient_ranks
    finds them, then the ~, (+) and (*) clauses checked one p, or one
    (p, q), at a time, as the quotient checked them before it compared
    whole columns. A rank of -1, which a corrupted table can give, is
    compared as the integer it is."""
    els, imp = algebra.carrier, functools.partial(element_implies, algebra)
    reps, class_of = [], []
    for a in els:
        for k, r in enumerate(reps):
            if algebra.odot(imp(a, r), imp(r, a)) in members:
                class_of.append(k)
                break
        else:
            class_of.append(len(reps))
            reps.append(a)
    for r, s in itertools.combinations(reps, 2):
        if imp(r, s) not in members and imp(s, r) not in members:
            return (f"classes of {r!r} and {s!r} are incomparable; "
                    "quotient is no chain")
    rank = [sum(imp(s, r) in members for s in reps) - 1 for r in reps]
    ranks = {p: rank[k] for p, k in zip(els, class_of)}
    top = len(reps) - 1
    for p in els:
        if ranks[algebra.neg(p)] != top - ranks[p]:
            return f"projection breaks ~ at {p!r}"
    for symbol, op, combine in (
            ("(+)", algebra.oplus, lambda u, v: min(u + v, top)),
            ("(*)", algebra.odot, lambda u, v: max(u + v - top, 0))):
        for p, q in itertools.product(els, repeat=2):
            if ranks[op(p, q)] != combine(ranks[p], ranks[q]):
                return f"projection breaks {symbol} at ({p!r},{q!r})"
    if ranks[algebra.zero] != 0 or ranks[algebra.one] != top:
        return "projection moves a constant"
    return len(reps), {p: F(ranks[p], top) for p in els}


def quotient_outcome(algebra, flt):
    """quotient's NonMaximalFilter text, or (chain size, projection)."""
    try:
        chain, projection = quotient(algebra, flt)
    except NonMaximalFilter as exc:
        return str(exc)
    return chain.n, projection


def corrupted_chain(n, entry):
    """Chain(n) as a table, labels "0".."n-1", with oplus[i][j] set to v
    for entry (i, j, v); not audited."""
    oplus = [[min(i + j, n - 1) for j in range(n)] for i in range(n)]
    i, j, v = entry
    oplus[i][j] = v
    return TableAlgebra([str(i) for i in range(n)], oplus,
                        range(n - 1, -1, -1), 0, n - 1, audit=False)


def corrupted_product(n, m, entry):
    """Chain(n) x Chain(m) as a table, labels "a|b" for levels a and b,
    with one oplus entry set as in corrupted_chain; not audited."""
    pairs = list(itertools.product(range(n), range(m)))
    at = {p: i for i, p in enumerate(pairs)}
    oplus = [[at[min(a + c, n - 1), min(b + d, m - 1)] for c, d in pairs]
             for a, b in pairs]
    i, j, v = entry
    oplus[i][j] = v
    return TableAlgebra([f"{a}|{b}" for a, b in pairs], oplus,
                        [at[n - 1 - a, m - 1 - b] for a, b in pairs],
                        0, len(pairs) - 1, audit=False)


class TestFilterMessages:
    def test_non_maximal_message_is_pinned(self):
        algebra, _, _ = product_algebra(2, 2)
        with pytest.raises(NonMaximalFilter) as exc:
            quotient(algebra, Filter(algebra, frozenset({algebra.one})))
        assert str(exc.value) == ("classes of '0|1' and '1|0' are "
                                  "incomparable; quotient is no chain")

    @pytest.mark.parametrize("entry, message", [
        ((0, 3, 0), "projection breaks ~ at '0'"),
        ((0, 1, 0), "projection breaks (+) at ('0','a')"),
        ((1, 0, 2), "projection breaks (+) at ('a','0')"),
    ])
    def test_broken_projection_message_is_pinned(self, entry, message):
        # Chain(4) as a table with one oplus entry changed: the classes of
        # the filter {1} still form a chain, but the projection onto it
        # is no homomorphism
        labels = ["0", "a", "b", "1"]
        oplus = [[min(i + j, 3) for j in range(4)] for i in range(4)]
        i, j, v = entry
        oplus[i][j] = v
        algebra = TableAlgebra(labels, oplus, [3, 2, 1, 0], 0, 3,
                               audit=False)
        with pytest.raises(NonMaximalFilter) as exc:
            quotient(algebra, Filter(algebra, frozenset({"1"})))
        assert str(exc.value) == message

    def test_every_one_entry_corruption_of_chain4_is_pinned(self):
        # Chain(4) as a table with each oplus entry set to each other
        # value: TableAlgebra(..., audit=False) accepts all 48, the filter
        # {1} rejects 5 of them, and the quotient by it gives the text or
        # the chain of the per-instance reference on the other 43
        outcomes = {}
        for i, j, v in itertools.product(range(4), repeat=3):
            if v == min(i + j, 3):
                continue
            algebra = corrupted_chain(4, (i, j, v))
            try:
                flt = Filter(algebra, frozenset({"3"}))
            except FilterError:
                outcomes[i, j, v] = "filter"
                continue
            outcomes[i, j, v] = quotient_outcome(algebra, flt)
            assert outcomes[i, j, v] \
                == reference_quotient(algebra, flt.members), (i, j, v)
        kinds = collections.Counter(
            o if o == "filter" else type(o).__name__
            for o in outcomes.values())
        assert kinds == {"filter": 5, "str": 42, "tuple": 1}
        # 0 -> 0 = 1 (+) 0 is no longer 1: the class of 0 has no class
        # below it, itself included, and its rank is -1
        assert [outcomes[3, 0, v] for v in range(3)] \
            == ["projection breaks ~ at '0'"] * 3
        # 1 (+) 1 = 3: 1 and 2 fall into one class, between 0 and 3
        assert outcomes[1, 1, 3] == (3, {"0": F(0), "1": F(1, 2),
                                         "2": F(1, 2), "3": F(1)})

    @pytest.mark.parametrize("algebra, members, message", [
        # past 256 elements the rows are tuples: on the chain its 2 * top
        # passes 255 as well, on the product only n does, its quotient
        # being Chain(3)
        (lambda: corrupted_chain(300, (5, 7, 13)), {"299"},
         "projection breaks (+) at ('5','7')"),
        (lambda: corrupted_chain(300, (0, 299, 0)), {"299"},
         "projection breaks ~ at '0'"),
        (lambda: corrupted_product(3, 100, (250, 7, 13)),
         {f"2|{b}" for b in range(100)},
         "projection breaks (+) at ('2|50','0|7')"),
        # past the first block of p-rows that the (+) clause reads at once
        (lambda: corrupted_chain(300, (250, 7, 13)), {"299"},
         "projection breaks (+) at ('250','7')"),
    ], ids=["chain300-oplus", "chain300-neg", "product3x100",
            "chain300-second-block"])
    def test_broken_projection_past_256_elements(self, algebra, members,
                                                 message):
        algebra = algebra()
        flt = Filter(algebra, frozenset(members))
        assert quotient_outcome(algebra, flt) == message
        assert reference_quotient(algebra, flt.members) == message

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

    @pytest.mark.parametrize("algebra, members, message", [
        # Chain(4) with 0 (+) 3 = 0: the up-set of the atom 3 lacks 3 = 1
        # (no maximal extension was found here when candidates were
        # up-sets checked one at a time)
        (lambda: corrupted_chain(4, (0, 3, 0)), {"3"},
         "1 must belong to every filter"),
        # Ł3 x Ł2 with 0|0 (+) 0|1 = 1|0: the up-set of the atom 2|1 is
        # not (*)-closed (the up-set of the atom 0|1 was returned here)
        (lambda: corrupted_product(3, 2, (0, 1, 2)), {"2|1"},
         "not (*)-closed: '2|1'(*)'2|0' escapes the member set"),
    ], ids=["chain4", "l3xl2"])
    def test_extend_on_a_corrupted_table_raises_the_maximal_filters_error(
            self, algebra, members, message):
        # extend_to_maximal reads maximal_filters(algebra), so a filter of
        # an unaudited table whose maximal up-sets break the filter laws
        # gets their first FilterError
        algebra = algebra()
        flt = Filter(algebra, frozenset(members))
        for call in (lambda: extend_to_maximal(algebra, flt),
                     lambda: maximal_filters(algebra)):
            with pytest.raises(FilterError) as exc:
                call()
            assert str(exc.value) == message


class TestHomomorphismClauses:
    def test_a_long_chain_holds_a_block_of_rows_at_a_time(self):
        # the ranks of Chain(1200) by the filter {1}, on tuple rows: the
        # (+) and (*) clauses read whole p-rows a block at a time, so they
        # hold far less than one n x n tuple (8 bytes an entry) at once
        n = 1200
        view = Chain(n).indexed()
        view.odot  # derived on first read: built before the trace
        tracemalloc.start()
        try:
            results = mv_core.homomorphism_clauses(
                view, [tuple(range(n))], n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(r.clause, r.holds) for r in results] \
            == [("neg", True), ("oplus", True), ("odot", True)]
        assert peak < 8 * n * n // 2


class TestTableLabels:
    def test_labels_written_alike_are_refused(self):
        # a report writes a label, and a command word names one, as its
        # str(): the integer 0 and the string "0" would be one label
        oplus, neg = [[min(i + j, 2) for j in range(3)] for i in range(3)], \
            [2, 1, 0]
        for carrier in ([0, "0", 1], ["1", 0, 1]):
            with pytest.raises(ValueError, match="written distinctly"):
                TableAlgebra(carrier, oplus, neg, 0, 2)
            with pytest.raises(ValueError, match="written distinctly"):
                TableAlgebra.from_json({"carrier": carrier, "oplus": oplus,
                                        "neg": neg, "zero": 0, "one": 2})
        with pytest.raises(ValueError, match="must be distinct"):
            TableAlgebra([0, 0, 1], oplus, neg, 0, 2)
        assert TableAlgebra([0, "a", 1], oplus, neg, 0, 2).carrier \
            == (0, "a", 1)


class TestJsonField:
    def test_missing_key_is_an_input_error_unless_it_has_a_default(self):
        with pytest.raises(ValueError, match="'k' is missing"):
            json_field({}, "k", is_json_int, "an integer")
        assert json_field({}, "k", is_json_int, "an integer", None) is None
        assert json_field({"k": 3}, "k", is_json_int, "an integer", 0) == 3

    def test_a_default_does_not_excuse_a_bad_entry(self):
        for data in ({"k": True}, {"k": None}, {"k": "3"}):
            with pytest.raises(ValueError, match="'k' must be an integer"):
                json_field(data, "k", is_json_int, "an integer", 0)

    def test_no_object_is_an_input_error(self):
        for data in ([1], None, "k", 3):
            with pytest.raises(ValueError, match="expected an object"):
                json_field(data, "k", is_json_int, "an integer", 0)

    def test_list_and_index_shapes(self):
        rows = json_list_of(json_list_of(is_json_int))
        assert rows([[0, 1], []]) and not rows([[0, True]])
        assert not rows({"0": [1]})
        index = json_index_into("abc")
        assert [index(v) for v in (0, 2, 3, -1, False)] \
            == [True, True, False, False, False]


class TestRows:
    """The row primitives give the same entries on both row types: byte
    strings up to entries of 255, tuples past that."""

    ROW_TYPES = mv_core._row_type(254), mv_core._row_type(256)

    def test_the_switch(self):
        assert self.ROW_TYPES == (bytes, tuple)
        assert mv_core._row_type(255) is bytes

    def test_read(self):
        # a table of 130 entries: a byte table is read unpadded
        table = [(7 * k) % 200 for k in range(130)]
        at = [0, 129, 5, 64, 128, 5]
        for row in self.ROW_TYPES:
            got = mv_core._read(row(table), row(at))
            assert type(got) is row
            assert list(got) == [table[k] for k in at]

    def test_add(self):
        # the byte sums reach 255 and do not carry
        a, b = [0, 200, 127, 255, 1], [255, 55, 128, 0, 1]
        for row in self.ROW_TYPES:
            got = mv_core._add(row(a), row(b))
            assert type(got) is row
            assert list(got) == [255, 255, 255, 255, 2]

    def test_concat(self):
        parts = [[1, 2], [], [255], [0, 7, 9]]
        for row in self.ROW_TYPES:
            got = mv_core._concat(map(row, parts), row)
            assert type(got) is row
            assert list(got) == [1, 2, 255, 0, 7, 9]
            assert mv_core._concat([], row) == row()

    def test_interleave(self):
        rows = [[1, 2, 3], [4, 5, 6], [255, 0, 9]]
        for row in self.ROW_TYPES:
            got = mv_core._interleave([row(r) for r in rows])
            assert type(got) is row
            assert list(got) == [1, 4, 255, 2, 5, 0, 3, 6, 9]
            assert list(mv_core._interleave([row(rows[0])])) == rows[0]

    def test_level_tables_read_as_the_chain_operations(self):
        # top 127 takes byte rows, top 128 tuple rows
        for top in (1, 2, 127, 128):
            row = mv_core._row_type(2 * top)
            neg, plus, times = mv_core._level_tables(top)
            x = row(range(top + 1))
            y = row(3 * a % (top + 1) for a in range(top + 1))
            both = mv_core._add(x, y)
            assert list(mv_core._read(neg, x)) == [top - a for a in x]
            assert list(mv_core._read(plus, both)) \
                == [min(a + b, top) for a, b in zip(x, y)]
            assert list(mv_core._read(times, both)) \
                == [max(a + b - top, 0) for a, b in zip(x, y)]


class TestValue:
    """The value type of the engine against the Fraction of each value."""

    RATIOS = [(0, 1), (1, 1), (1, 2), (2, 3), (5, 7), (-3, 4), (7, 2)]

    def pairs(self):
        return [(mv_core.Value(p, q), F(p, q)) for p, q in self.RATIOS]

    def test_it_compares_hashes_and_prints_as_its_fraction(self):
        for v, f in self.pairs():
            assert v == f and f == v and not v != f
            assert hash(v) == hash(f) == hash(F(v)) == hash(v)
            assert (str(v), repr(v)) == (str(f), repr(f))
            for w, g in self.pairs():
                assert (v < w, v <= w, v == w, v >= w, v > w) \
                    == (f < g, f <= g, f == g, f >= g, f > g)
        assert repr(mv_core.Value(1, 2)) == "Fraction(1, 2)"

    def test_pickle_and_copies_keep_the_type_and_the_value(self):
        for v, f in self.pairs():
            hash(v)  # the kept hash is no part of a copy
            for other in (pickle.loads(pickle.dumps(v)), copy.copy(v),
                          copy.deepcopy(v)):
                assert type(other) is mv_core.Value
                assert other == f and hash(other) == hash(f)
                assert repr(other) == repr(f)

    def test_arithmetic_returns_plain_fractions(self):
        a, b = mv_core.Value(1, 3), mv_core.Value(1, 2)
        for result in (a + b, a - b, a * b, a / b, a % b, a ** 2,
                       -a, +a, abs(a), 1 - a, a + 1, a * F(3)):
            assert type(result) is F
        assert min(a, b) is a and max(a, b) is b

    def test_the_engine_hands_out_values(self):
        chain = Chain(5)
        assert {type(v) for v in chain.carrier} == {mv_core.Value}
        assert chain.carrier[0] is mv_core.ZERO
        assert chain.carrier[-1] is mv_core.ONE
        assert type(mv_core.parse_value(" 3/4 ")) is mv_core.Value
        algebra = small_algebra()
        assert {type(v) for p in algebra.carrier for v in p} \
            == {mv_core.Value}
        assert algebra.zero == algebra.carrier[0]

    def test_plain_fractions_find_their_element(self):
        V = small_algebra().indexed()
        for i, p in enumerate(V.elements):
            plain = tuple(map(F, p))
            assert {type(v) for v in plain} == {F}
            assert V.index_of[plain] == i
        assert Chain(5).indexed().index_of[F(1, 2)] == 2

    def test_the_queries_compute_no_fraction_hash(self, monkeypatch):
        # every value of a built i3p algebra was hashed once, when its view
        # indexed the elements; the queries hash values as often as they
        # like, each from the kept hash, and so does a second call of a
        # representation map, which reads what the first one kept
        *args, cap = CLOSURE_SPECS["i3p"]
        algebra = build_generated(*args, cap=cap)
        algebra.indexed()
        pav = pavelka.functional_pavelka(algebra, require_full=False)
        calls = []
        real = F.__hash__

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(F, "__hash__", counting)
        for flt in maximal_filters(algebra):
            quotient(algebra, flt)
        for p in algebra.carrier[1:]:
            hf = interlab.henkin_filter_build(algebra, p)
            if isinstance(hf, interlab.HenkinFilter):
                for _ in range(2):
                    interlab.representation_map(algebra, hf)
                    pavelka.pavelka_representation(algebra, pav, hf)
            polyadic.dimension_set(algebra, p)
            polyadic.minimal_support(algebra, p)
        assert calls == []
        hash(F(1, 3))  # a plain Fraction's hash is counted
        assert calls == [F(1, 3)]
