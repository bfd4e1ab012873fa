"""The reads of the algebra queries against the per-row code they replaced.

Below are verbatim copies, renamed with a `per_row_` prefix, of the code
that read a row once per p, per column or per map:
`homomorphism_clauses`, which read the (+) and (*) rows of psi once per
p; `cyl_sup_clause` and `represent`, whose subst-action and cyl-sup
blocks read every column of psi, repeated or not; `henkin_filter_build`,
whose witness loop tested `in members` element by element; and the
endomorphism family of `audit_axioms`, which checked every map's table,
repeated or not. They read through `mv_core._read`, which pads the table
on every call. Every algebra of CLOSURE_SPECS and MORE_SPECS, every
nonzero element, every maximal filter, and copies corrupted at one
cylinder entry, one (+) entry or one psi level must get the same names,
verdicts, counts and witnesses from both.

Two more copies walk their instances one at a time and raise at the
first breach: `neat_reduct`, whose closure loop read the tables entry by
entry against a member set, and `Filter._validate`, which walked member
pairs for (*)-closure and member/outsider pairs for upward closure. Both
must raise the same exception, message and witness, or build the same
reduct or filter, as the `mv_core.escape_blocks` rows that replaced them.
"""

import itertools
import random

import pytest

from mvlogic import interlab, mv_core, pavelka
from mvlogic.interlab import (
    Exhausted, HenkinFilter, WitnessEntry, ZeroElement, henkin_filter_build,
    representation_map,
)
from mvlogic.mv_core import (
    BLOCK_ENTRIES, AuditReport, Filter, FilterError, TableAlgebra, _concat,
    _instance, _interleave, _level_tables, _read, _row_type, clause_result,
    column_block, first_witness, maximal_filters,
)
from mvlogic.polyadic import (
    AbstractPolyadicAlgebra, IdentityResult, NeatReduct, NotASubuniverse,
    SignatureError, _check_signature, audit_axioms, build_generated,
    neat_reduct,
)
from mvlogic.transform import FinTransformation
from test_polyadic import CLOSURE_SPECS, MORE_SPECS, reference_audit_axioms

SPECS = sorted(CLOSURE_SPECS) + sorted(MORE_SPECS)

# -- the per-row code, as it was -------------------------------------------


def per_row_homomorphism_clauses(V, columns, top):
    els, n = V.elements, len(V.carrier)
    row = _row_type(max(n - 1, 2 * top))
    columns = list(dict.fromkeys(map(row, columns)))
    neg, plus, times = _level_tables(top)

    def blocks(table, sums):
        # p-rows i..j - 1 of the table, joined, against the rows of
        # psi_x(p) . psi_x(q) over q, joined
        step = max(1, BLOCK_ENTRIES // (n * max(1, len(columns))))
        for i in range(0, n, step):
            j = min(i + step, n)
            at = _concat(map(row, table[i:j]), row)
            yield column_block([_read(col, at) for col in columns],
                               [_concat([_read(sums[col[p]:], col)
                                         for p in range(i, j)], row)
                                for col in columns],
                               itertools.product(els[i:j], els),
                               (j - i) * n)

    negs = row(V.neg)
    return [clause_result("neg", [column_block(
                [_read(col, negs) for col in columns],
                [_read(neg, col) for col in columns], zip(els), n)]),
            clause_result("oplus", blocks(V.oplus, plus)),
            clause_result("odot", blocks(V.odot, times))]


def per_row_cyl_sup_clause(V, columns):
    row, n = type(columns[0]), len(V.carrier)

    def blocks():
        for k in (next(iter(j)) for j in V.algebra.scopes if len(j) == 1):
            sups = [None] * len(V.maps)
            for group in V.agreement({k}):
                # the first column passed twice keeps max from being handed
                # a lone level
                sup = row(map(max, columns[group[0]],
                              *map(columns.__getitem__, group)))
                for xi in group:
                    sups[xi] = sup
            at = row(V.cyl[frozenset({k})])
            lhs = [_read(col, at) for col in columns]
            witnesses = ((k, p, x) for p in V.elements for x in V.maps)
            yield ((lhs, sups, witnesses, n * len(columns)) if lhs == sups
                   else (_interleave(lhs), _interleave(sups), witnesses))

    return clause_result("cyl-sup", blocks())


def per_row_represent(algebra, hf, levels, pav=None):
    V = algebra.indexed()
    mv_core.filter_ids(hf.filter, algebra)  # refuses another algebra's
    chain, level = levels(hf.filter)
    vs, top = algebra.transformations, chain.n - 1
    # through the module, so that a test that patches build_psi reaches
    # this copy and interlab.represent alike
    rows, columns = interlab.build_psi(V, level, vs, top)
    row, n = type(columns[0]), len(V.carrier)

    def subst_blocks():
        # psi(s_tau p) against psi(p) read at the coordinates x tau: each
        # column read at s_tau's table against the column of x tau
        for tau, targets in zip(vs, zip(*V.composition)):
            if None not in targets:
                at = row(V.subst[tau])
                yield column_block([_read(col, at) for col in columns],
                                   list(map(columns.__getitem__, targets)),
                                   zip(itertools.repeat(tau), V.elements), n)

    results = [
        clause_result("unit-0", [_instance(rows[V.zero], (0,) * len(vs),
                                           ("0",))]),
        clause_result("unit-1", [_instance(rows[V.one], (top,) * len(vs),
                                           ("1",))]),
    ]
    if pav is not None:
        results.append(clause_result("constants", [(
            [rows[c] for _, c in pav._bar],
            [(l,) * len(vs) for l, _ in pav._bar], zip(pav.levels))]))
    results += per_row_homomorphism_clauses(V, columns, top)
    if pav is None:
        results.append(clause_result("subst-action", subst_blocks()))
    results.append(per_row_cyl_sup_clause(V, columns))
    identity = FinTransformation.identity(tuple(sorted(algebra.index_set)))
    if pav is None and identity in vs:
        seed = rows[V.index_of[hf.seed]][vs.index(identity)]
        results.append(clause_result("nonzero-at-identity", [_instance(
            seed != 0, True, ("identity component of the seed element",))]))
    return rows, AuditReport(tuple(results))


def per_row_henkin_filter_build(algebra, a):
    if a == algebra.zero:
        raise ZeroElement("the starting element must be nonzero")
    V = algebra.indexed()
    start = _check_signature(V, a)
    singles = [next(iter(j)) for j in algebra.scopes if len(j) == 1]

    def witnesses(members):
        found = []
        for k in singles:
            ck = V.cyl[frozenset({k})]
            for x in V.carrier:
                if ck[x] not in members:
                    continue
                delta = V.dimensions[x]
                for l in sorted(algebra.index_set, key=delta.__contains__):
                    repl = V.replacement(k, l)
                    if repl is not None and repl[x] in members:
                        found.append(WitnessEntry(k, V.elements[x], l,
                                                  l not in delta))
                        break
                else:
                    return None
        return found

    candidates = [flt for flt in maximal_filters(algebra) if start in flt.ids]
    for flt in candidates:
        found = witnesses(flt.ids)
        if found is not None:
            return HenkinFilter(flt, a, tuple(found))
    return Exhausted(len(candidates))


def per_row_endomorphism(algebra):
    """audit_axioms' dlaw-2-s-endomorphism result, map by map."""
    V = algebra.indexed()
    els = V.carrier
    n = len(els)
    maps = V.maps
    row, neg, S = V.row, V.neg, V.subst_at
    flat = [_concat(op, row) for op in (V.oplus, V.odot)]

    def at_p(rows, p):
        # the neg entry of p, then the oplus and odot entries of (p, q)
        # over q in turn
        cut = slice(p * n, p * n + n)
        return rows[0][p:p + 1] + _interleave([rows[1][cut], rows[2][cut]])

    def endo_blocks():
        for t, s_t in zip(maps, S):
            yield ((s_t[V.zero], s_t[V.one]), (V.zero, V.one),
                   ((("zero", t),), (("one", t),)))
            lhs = [_read(s_t, neg)] + [_read(s_t, op) for op in flat]
            rhs = [_read(neg, s_t)]
            for op in (V.oplus, V.odot):
                at = {v: _read(op[v], s_t) for v in set(s_t)}
                rhs.append(_concat(map(at.__getitem__, s_t), row))
            if lhs == rhs:
                yield (), (), (), n + 2 * n * n
                continue
            heads = ("oplus", t), ("odot", t)
            for p in els:
                yield (at_p(lhs, p), at_p(rhs, p), [(("neg", t), p)]
                       + [(head, p, q) for q in els for head in heads])

    checked, witness = first_witness(endo_blocks())
    if witness is not None:
        head, *ids = witness
        witness = head + tuple(V.elements[p] for p in ids)
    return IdentityResult("dlaw-2-s-endomorphism", witness is None, checked,
                          witness)


def per_row_neat_reduct(algebra, alpha, flavor="FiniteT"):
    alpha = frozenset(alpha)
    index = set(algebra.index_set)
    if not alpha <= index:
        raise SignatureError("alpha must be a subset of the index set")
    V = algebra.indexed()
    if flavor == "FiniteT":
        members = [a for a in V.carrier if V.dimensions[a] <= alpha]
    elif flavor == "FullT":
        rest = V.cylinder(index - alpha)
        members = [a for a in V.carrier if rest[a] == a]
    else:
        raise ValueError(f"unknown flavor {flavor!r}")

    scopes = tuple(j for j in algebra.scopes if j <= alpha)
    transformations = tuple(
        t for t in algebra.transformations
        if all(t.apply(i) == i for i in index - alpha)
        and all(t.apply(i) in alpha for i in alpha)
    )

    member = set(members)
    el = V.elements
    for a in members:
        if V.neg[a] not in member:
            raise NotASubuniverse("neg", el[a])
        for j in scopes:
            if V.cyl[j][a] not in member:
                raise NotASubuniverse(f"cyl{sorted(j)}", el[a])
        for t in transformations:
            if V.subst[t][a] not in member:
                raise NotASubuniverse(f"subst{t!r}", el[a])
        for b in members:
            if V.oplus[a][b] not in member:
                raise NotASubuniverse("oplus", (el[a], el[b]))
            if V.odot[a][b] not in member:
                raise NotASubuniverse("odot", (el[a], el[b]))
    elements = tuple(el[a] for a in members)
    return NeatReduct(algebra, alpha, flavor, elements, scopes,
                      transformations)


class PerRowFilter(Filter):
    """A Filter validated by the per-pair walk."""

    def _validate(self, V, inside, dec):
        # the laws over the members' view indices, pairs in carrier order
        ids = sorted(inside)
        object.__setattr__(self, "ids", inside)  # set once (frozen)
        for a in ids:
            row = V.odot[a]
            for b in ids:
                if row[b] not in inside:
                    raise FilterError(
                        f"not (*)-closed: {dec(a)!r}(*){dec(b)!r} escapes "
                        "the member set")
        outside = [b for b in V.carrier if b not in inside]
        for a in ids:
            row = V.le[a]
            for b in outside:
                if row[b]:
                    raise FilterError(
                        f"not upward closed at {dec(a)!r} <= {dec(b)!r}")


# -- the algebras ------------------------------------------------------------


def spec_algebra(name):
    *args, cap = {**CLOSURE_SPECS, **MORE_SPECS}[name]
    return build_generated(*args, cap=cap)


@pytest.fixture(params=[(name, table) for name in SPECS
                        for table in ("cyl", "oplus")],
                ids=lambda param: "-".join(param))
def corrupted(request):
    """The table algebra of a spec's algebra with one entry of one table
    moved to another carrier index, at a seeded spot: of c_{k} for the
    first single k ("cyl"), which no-indices has not, or of (+)
    ("oplus"), which then is no longer commutative."""
    name, table = request.param
    functional = spec_algebra(name)
    V = functional.indexed()
    n = len(V.carrier)
    rng = random.Random(f"{name}:{table}")
    oplus, cyl = [list(r) for r in V.oplus], dict(V.cyl)
    singles = [j for j in functional.scopes if len(j) == 1]
    if table == "cyl":
        if not singles:
            pytest.skip(f"{name} has no single scope")
        moved = cyl[singles[0]] = list(cyl[singles[0]])
    else:
        moved = oplus[rng.randrange(n)]
    x = rng.randrange(n)
    moved[x] = (moved[x] + 1 + rng.randrange(n - 1)) % n
    mv = TableAlgebra(V.carrier, oplus, V.neg, V.zero, V.one, audit=False)
    return AbstractPolyadicAlgebra(mv, functional.index_set,
                                   functional.transformations,
                                   functional.scopes, V.subst, cyl)


def outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def triples(report):
    return [(c.clause, c.holds, c.witness) for c in report.results]


def filters_of(algebra):
    """A HenkinFilter on every maximal filter of the algebra's view, its
    seed a member, so that the representation maps read every filter,
    Henkin or not; [] if a corrupted table breaks the filter laws."""
    V = algebra.indexed()
    try:
        filters = maximal_filters(algebra)
    except mv_core.FilterError:
        return []
    return [HenkinFilter(flt, V.elements[max(flt.ids)], ())
            for flt in filters]


def crisp(algebra, hf):
    return outcome(lambda: triples(representation_map(algebra, hf)[1])), \
        outcome(lambda: triples(per_row_represent(
            algebra, hf, mv_core.quotient_ranks)[1]))


def graded(algebra, hf):
    pav = pavelka.functional_pavelka(algebra, require_full=False)

    def levels(flt):
        return pav.chain, pavelka._degrees(pav, flt, algebra.indexed().carrier,
                                           0)

    return triples(pavelka.pavelka_representation(algebra, pav, hf)[1]), \
        triples(per_row_represent(algebra, hf, levels, pav)[1])


# -- the tests -------------------------------------------------------------


@pytest.mark.parametrize("name", SPECS)
def test_henkin_filter_of_every_nonzero_element(name):
    algebra = spec_algebra(name)
    for a in algebra.carrier:
        if a != algebra.zero:
            assert henkin_filter_build(algebra, a) \
                == per_row_henkin_filter_build(algebra, a)


def test_henkin_filter_on_a_corrupted_table(corrupted):
    for a in corrupted.indexed().elements:
        if a != corrupted.zero:
            assert outcome(henkin_filter_build, corrupted, a) \
                == outcome(per_row_henkin_filter_build, corrupted, a)


@pytest.mark.parametrize("name", SPECS)
def test_both_representations_on_every_maximal_filter(name):
    algebra = spec_algebra(name)
    for hf in filters_of(algebra):
        got, want = crisp(algebra, hf)
        assert got == want
        got, want = graded(algebra, hf)
        assert got == want


def test_crisp_representation_on_a_corrupted_table(corrupted):
    for hf in filters_of(corrupted):
        got, want = crisp(corrupted, hf)
        assert got == want


def test_a_failing_map_is_kept(corrupted):
    # a map that fails on a corrupted table is kept, failing clauses and
    # all, and a second call reads what the per-row code gets; an error,
    # as of a filter the corruption left not maximal, is raised again
    for hf in filters_of(corrupted):
        got = [outcome(representation_map, corrupted, hf) for _ in range(2)]
        want = outcome(per_row_represent, corrupted, hf,
                       mv_core.quotient_ranks)
        if not isinstance(want[1], AuditReport):
            assert got == [want, want]
            continue
        assert got[1][0] is got[0][0]
        assert [triples(audit) for _, audit in got] \
            == [triples(want[1])] * 2


@pytest.mark.parametrize("name", SPECS)
def test_representations_with_a_psi_level_moved(name, monkeypatch):
    # each filter's psi with one entry moved by a level, at a seeded spot
    # that both codes read alike; psi then breaks ~ at least
    algebra = spec_algebra(name)
    rng = random.Random(name)
    real = interlab.build_psi
    spot = []

    def moved(V, levels, vs, top):
        rows, columns = real(V, levels, vs, top)
        rows = [list(r) for r in rows]
        i, xi = spot[0] % len(rows), spot[1] % len(vs)
        v = rows[i][xi]
        rows[i][xi] = v - 1 if v else v + 1
        rows = [tuple(r) for r in rows]
        return rows, list(map(type(columns[0]), zip(*rows)))

    monkeypatch.setattr(interlab, "build_psi", moved)
    for hf in filters_of(algebra):
        for represent in (crisp, graded):
            spot[:] = rng.randrange(1000), rng.randrange(1000)
            got, want = represent(algebra, hf)
            assert got == want
            assert not all(holds for _, holds, _ in got)


@pytest.mark.parametrize("name", SPECS)
def test_clauses_of_repeated_and_moved_columns(name):
    # the crisp psi of every maximal filter, its columns twice over, as
    # they are and with one entry of the first column moved by a level at
    # seeded spots
    algebra = spec_algebra(name)
    V = algebra.indexed()
    n = len(V.carrier)
    rng = random.Random(name)
    for hf in filters_of(algebra):
        chain, ranks = mv_core.quotient_ranks(hf.filter)
        top = chain.n - 1
        columns = interlab.build_psi(V, ranks, algebra.transformations,
                                     top)[1]
        row = type(columns[0])
        for i in [None, 0, n - 1, *rng.sample(range(n), min(n, 4))]:
            cols = list(columns)
            if i is not None:
                first = list(cols[0])
                first[i] = first[i] - 1 if first[i] else first[i] + 1
                cols[0] = row(first)
            cols += cols
            assert mv_core.homomorphism_clauses(V, cols, top) \
                == per_row_homomorphism_clauses(V, cols, top)
            assert interlab.cyl_sup_clause(V, cols) \
                == per_row_cyl_sup_clause(V, cols)


def endomorphism(algebra):
    return next(r for r in audit_axioms(algebra).results
                if r.name == "dlaw-2-s-endomorphism")


@pytest.mark.parametrize("name", SPECS)
def test_endomorphism_family(name):
    algebra = spec_algebra(name)
    assert endomorphism(algebra) == per_row_endomorphism(algebra)


def test_audit_on_a_corrupted_table(corrupted):
    # the endomorphism family against the map-by-map copy, and every
    # family, read off the rows and the columns of the view's tables,
    # against the instance-by-instance reference: a moved (+) entry makes
    # the rows and the columns of (+) differ
    assert endomorphism(corrupted) == per_row_endomorphism(corrupted)
    assert [(r.name, r.holds, r.checked, r.witness)
            for r in audit_axioms(corrupted).results] \
        == reference_audit_axioms(corrupted)


@pytest.mark.parametrize("name", SPECS)
def test_endomorphism_family_with_a_repeated_table_moved(name):
    # every map whose table repeats an earlier map's, with one entry of
    # that later copy moved: the family fails there, at the same count
    # and witness as the map-by-map walk
    functional = spec_algebra(name)
    V = functional.indexed()
    n = len(V.carrier)
    seen = set()
    for t, s_t in zip(V.maps, V.subst_at):
        if s_t not in seen:
            seen.add(s_t)
            continue
        table = list(s_t)
        table[n // 2] = (table[n // 2] + 1) % n
        mv = TableAlgebra(V.carrier, V.oplus, V.neg, V.zero, V.one,
                          audit=False)
        algebra = AbstractPolyadicAlgebra(
            mv, functional.index_set, functional.transformations,
            functional.scopes, {**V.subst, t: table}, V.cyl)
        want = per_row_endomorphism(algebra)
        assert endomorphism(algebra) == want
        assert not want.holds


def test_an_i3p_algebra_repeats_tables():
    # the 27 maps of an |I| = 3 algebra have 16 distinct tables, so 11
    # maps count their instances without a read
    algebra = spec_algebra("i3p")
    V = algebra.indexed()
    assert (len(V.maps), len(set(V.subst_at))) == (27, 16)
    assert endomorphism(algebra) == per_row_endomorphism(algebra)


# -- neat reducts and filters ------------------------------------------------


def neat_cases(algebra):
    """Every alpha of the index set, each with both flavors."""
    index = algebra.index_set
    return [(frozenset(alpha), flavor) for size in range(len(index) + 1)
            for alpha in itertools.combinations(index, size)
            for flavor in ("FiniteT", "FullT")]


def neat_outcome(call, algebra, alpha, flavor):
    """What a neat reduct returns, or the type, message, operation and
    witness of what it raises."""
    try:
        return call(algebra, alpha, flavor)
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "operation", None),
                getattr(exc, "witness", None))


def neat_outcomes(algebra):
    """[(escape_blocks outcome, per-row outcome)] over neat_cases."""
    return [(neat_outcome(neat_reduct, algebra, alpha, flavor),
             neat_outcome(per_row_neat_reduct, algebra, alpha, flavor))
            for alpha, flavor in neat_cases(algebra)]


@pytest.mark.parametrize("name", SPECS)
def test_neat_reduct_of_every_alpha(name):
    functional = spec_algebra(name)
    for algebra in (functional,
                    AbstractPolyadicAlgebra.from_functional(functional)):
        outcomes = neat_outcomes(algebra)
        assert [got for got, _ in outcomes] == [want for _, want in outcomes]
        assert any(isinstance(got, NeatReduct) for got, _ in outcomes)


def corrupted_at(functional, table, alpha, rng):
    """The abstract algebra of functional with entries set to an element
    outside the FiniteT reduct of alpha, at a member x of it: of c_J for
    the first nonempty scope J within alpha ("cyl"), of s_t for the last
    map t that the reduct restricts to ("subst"), of both ("cyl+subst"),
    or of (+) at (x, y) for a member y ("oplus"), which moves (*) at
    (~x, ~y) too. None if the reduct is the carrier or has no such J."""
    V = functional.indexed()
    members = [a for a in V.carrier if V.dimensions[a] <= alpha]
    outside = [a for a in V.carrier if a not in set(members)]
    if not outside:
        return None
    x, y, to = rng.choice(members), rng.choice(members), rng.choice(outside)
    oplus, subst, cyl = [list(r) for r in V.oplus], dict(V.subst), \
        dict(V.cyl)
    if table == "oplus":
        oplus[x][y] = to
    if "cyl" in table:
        scopes = [j for j in functional.scopes if j and j <= alpha]
        if not scopes:
            return None
        cyl[scopes[0]] = list(cyl[scopes[0]])
        cyl[scopes[0]][x] = to
    if "subst" in table:
        index = set(functional.index_set)
        t = [t for t in functional.transformations
             if all(t.apply(i) == i for i in index - alpha)
             and all(t.apply(i) in alpha for i in alpha)][-1]
        subst[t] = list(subst[t])
        subst[t][x] = to
    mv = TableAlgebra(V.carrier, oplus, V.neg, V.zero, V.one, audit=False)
    return AbstractPolyadicAlgebra(mv, functional.index_set,
                                   functional.transformations,
                                   functional.scopes, subst, cyl)


# every FiniteT reduct of these two is the whole carrier
WHOLE_REDUCTS = ("l5-constants", "no-indices")


@pytest.mark.parametrize("table", ["cyl", "subst", "cyl+subst", "oplus"])
@pytest.mark.parametrize("name", [n for n in SPECS if n not in WHOLE_REDUCTS])
def test_neat_reduct_on_corrupted_tables(name, table):
    # a copy corrupted inside the FiniteT reduct of each alpha, read at
    # every alpha and flavor: the corrupted alpha's reduct breaks, at the
    # same operation and witness in both; c_J escapes before s_t at one
    # element, and a moved (+) entry moves (*) too, either escaping first
    functional = spec_algebra(name)
    rng = random.Random(f"{name}:{table}")
    broken = set()
    for alpha, flavor in neat_cases(functional):
        if flavor == "FullT":
            continue
        algebra = corrupted_at(functional, table, alpha, rng)
        if algebra is None:
            continue
        for got, want in neat_outcomes(algebra):
            assert got == want
            if isinstance(got, tuple) and got[0] is NotASubuniverse:
                broken.add(got[2].split("[")[0].split("{")[0])
        assert isinstance(neat_outcome(neat_reduct, algebra, alpha,
                                       "FiniteT"), tuple)
    assert broken & ({"oplus", "odot"} if table == "oplus"
                     else {table.split("+")[0]})


def filter_outcome(cls, algebra, members):
    """The members and view indices of a filter, or the type and message
    of what its construction raises."""
    try:
        flt = cls(algebra, members)
    except ValueError as exc:
        return type(exc), str(exc)
    return flt.members, flt.ids


@pytest.mark.parametrize("n, m", [(4, 1), (3, 2)], ids=["chain4", "l3xl2"])
def test_filter_on_every_member_set_of_a_corrupted_table(n, m):
    # Chain(n) x Chain(m) with each (+) entry set to each other value,
    # unaudited, and every member set of it
    pairs = list(itertools.product(range(n), range(m)))
    at = {p: i for i, p in enumerate(pairs)}
    oplus = [[at[min(a + c, n - 1), min(b + d, m - 1)] for c, d in pairs]
             for a, b in pairs]
    neg = [at[n - 1 - a, m - 1 - b] for a, b in pairs]
    labels = [str(i) for i in range(len(pairs))]
    subsets = [frozenset(s) for size in range(len(labels) + 1)
               for s in itertools.combinations(labels, size)]
    kinds = set()
    for i, j, v in itertools.product(range(len(pairs)), repeat=3):
        if v == oplus[i][j]:
            continue
        table = [list(r) for r in oplus]
        table[i][j] = v
        algebra = TableAlgebra(labels, table, neg, 0, len(pairs) - 1,
                               audit=False)
        for members in subsets:
            got = filter_outcome(Filter, algebra, members)
            assert got == filter_outcome(PerRowFilter, algebra, members)
            kinds.add(got[1].split(":")[0].split(" at")[0]
                      if got[0] is FilterError else "filter")
    assert kinds == {"filter", "1 must belong to every filter",
                          "not (*)-closed", "not upward closed"}


def test_escape_blocks_hold_runs_of_whole_rows(monkeypatch):
    # 1 + 4 results an a, so 12 entries hold two a's a block
    monkeypatch.setattr(mv_core, "BLOCK_ENTRIES", 12)
    V = mv_core.Chain(5).indexed()
    ids = [1, 2, 3, 4]
    unary, binary = [("neg", V.neg)], [("odot", V.odot)]
    blocks = list(mv_core.escape_blocks(V, ids, unary, binary))
    assert [len(lhs) for lhs, _, _ in blocks] == [10, 10]
    assert [w for _, _, witnesses in blocks for w in witnesses] == [
        w for a in ids
        for w in [("neg", a), *(("odot", a, b) for b in ids)]]
    # 1 (*) 1 = 0 escapes
    assert first_witness(mv_core.escape_blocks(V, ids, unary, binary)) \
        == (2, ("odot", 1, 1))


@pytest.mark.parametrize("entries", [1, 7])
@pytest.mark.parametrize("name", [n for n in SPECS if n not in WHOLE_REDUCTS])
def test_neat_reduct_a_few_entries_a_block(name, entries, monkeypatch):
    # blocks of one a, or of a few whole a's: the same reducts, breaches
    # and witnesses as the per-row walk
    monkeypatch.setattr(mv_core, "BLOCK_ENTRIES", entries)
    for table in ("cyl", "subst", "cyl+subst", "oplus"):
        test_neat_reduct_on_corrupted_tables(name, table)


@pytest.mark.parametrize("entries", [1, 7])
def test_filter_a_few_entries_a_block(entries, monkeypatch):
    monkeypatch.setattr(mv_core, "BLOCK_ENTRIES", entries)
    test_filter_on_every_member_set_of_a_corrupted_table(4, 1)
    test_filter_on_every_member_set_of_a_corrupted_table(3, 2)
