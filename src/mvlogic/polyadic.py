"""Polyadic MV algebras over a transformation semigroup and a scope family.

Two realizations: functional set algebras, whose elements are maps from
assignment tuples into a finite chain, and abstract table algebras with
explicit substitution and cylindrification tables. On top of both sit
the single-element queries (cyl, subst, q_forall), dimension sets,
supports, neat reducts, the replacement-chain form of finite
substitutions, and an exhaustive axiom auditor for every identity family
the theory demands, whose `IdentityResult`s `mv_core.first_witness` finds.

Every one of them, and in interlab and pavelka the Henkin filter search
and the representation maps, reads one `IndexedAlgebra`: the algebra's
operations as tables over carrier indices, extending mv_core's
`IndexedMV`, whose tables the algebra's filters and quotients read.
`build_generated` computes a functional algebra's operations once:
closing the carrier, it records the carrier index of every result, and
builds the algebra's view of those tables with it. Results leave in
element form. What depends only on a signature, the assignments of
(I, X), each map's assignment positions, each scope's blocks and the
"full" semigroup of I, is built once per process, on first use, and
kept in one bounded store (MAX_SIGNATURE_ENTRIES) that the closure and
the element operations read. How the signature's maps combine is read
off the view too (`subst_at`, `composition`, `agreement`, `injective`,
`modified`, `replacement`; `composition`, `injective` and `modified` off
each map's byte code of index positions), and so are the dimension sets
(`dimensions`). A functional algebra also has element operations, on
which interlab's term_eval, the second route the eta check compares
against, runs.

Inside the engine a value of the chain is an integer level (the closure
of `build_generated` runs on mv_core's rows of levels), and `Fraction`
appears only at the edges: the elements handed out, whose entries are
mv_core's `Value` (a Fraction that hashes once), the specs and the
reports.

The auditor checks the endomorphism laws once per distinct substitution
table, and audits an algebra object once: the report is kept on the
algebra (see mv_core.kept).
"""

from __future__ import annotations

import itertools
from operator import contains, getitem, itemgetter

from .mv_core import (
    MAX_VALUATIONS, AuditReport, Chain, IndexedMV, TableAlgebra, ONE, ZERO,
    Value, _add, _concat, _instance, _interleave, _level_tables, _read, _row_type,
    derived, escape_blocks, first_witness, format_point, format_value, kept,
    is_json_int, is_json_object, is_json_str, json_field, json_index_into,
    json_list_of, parse_point, parse_value, record,
)
from .transform import (
    FinTransformation, SemigroupSpec, parse_transformation, semigroup_closure,
)


# The most (+) and (*) entries that build_generated computes as one round
# (see there): the pairs that a cap trip can waste.
ROUND_ENTRIES = 1 << 12


class SignatureError(ValueError):
    """A scope or transformation is not part of the algebra's signature."""


class TruncationError(ValueError):
    """A carrier, semigroup or assignment count exceeded its cap; partial
    carriers are never returned."""


class NotASubuniverse(ValueError):
    def __init__(self, operation, witness):
        super().__init__(f"{operation} escapes the candidate subuniverse "
                         f"at {witness!r}")
        self.operation = operation
        self.witness = witness


class InsufficientSpareIndices(ValueError):
    """No fresh indices remain for the replacement-chain construction."""


def normalize_scopes(index_set, scopes):
    members = set(index_set)
    if scopes in ("powerset", "singletons"):
        # combinations come by size, then by sorted members
        sizes = range(len(members) + 1) if scopes == "powerset" else (0, 1)
        points = sorted(members)
        return tuple(frozenset(c) for size in sizes
                     for c in itertools.combinations(points, size))
    sets = [frozenset(j) for j in scopes]
    for j in sets:
        if not j <= members:
            raise SignatureError(f"scope {sorted(j)} escapes the index set")
    return tuple(sorted(set(sets), key=lambda j: (len(j), sorted(j))))


def _classes(rows, index_set, j):
    """The positions of rows, tuples over index_set, grouped by their
    entries off J: the groups in order of their first member, each in
    row order."""
    off = [k for k, i in enumerate(index_set) if i not in j]
    groups = {}
    for pos, x in enumerate(rows):
        groups.setdefault(tuple(x[k] for k in off), []).append(pos)
    return tuple(map(tuple, groups.values()))


def _assignment_count(points, base):
    """|X|^|I| for |I| = points and |X| = base. An algebra builds its
    |X|^|I| assignments and up to 2^|I| scopes as tuples, so either count
    past MAX_VALUATIONS raises TruncationError first (2^20 is past it)."""
    if max(base, 2) ** min(points, 20) > MAX_VALUATIONS:
        raise TruncationError(f"|I| = {points} over |X| = {base} gives more "
                              f"than {MAX_VALUATIONS} assignments or scopes")
    return base ** points


# The most entries that the signature store keeps between builds: two per
# assignment (the tuple and its index), one per assignment position of a
# map, two per assignment of a scope (its block id and its place in a
# block) and one per map of a "full" semigroup. The signatures of the
# tests, the golden corpus and the benchmark hold a few thousand; a part
# past the bound is kept alone.
MAX_SIGNATURE_ENTRIES = 100_000


class _SignatureStore:
    """What a functional algebra reads that depends only on its signature,
    built once per process: the parts, under their keys in the order
    built, each with its count of entries. The oldest part leaves first
    while they hold more than MAX_SIGNATURE_ENTRIES entries in all; the
    newest always stays. A part is built on its first use, so nothing is
    built on import, and is kept as tuples (the assignments' index is a
    dict) that no reader changes."""

    def __init__(self):
        self.parts, self.entries = {}, 0

    def get(self, key, build):
        """The part under key; build() gives (part, entries) the first
        time. An exception of build is raised and nothing is kept."""
        held = self.parts.get(key)
        if held is None:
            held = self.parts[key] = build()
            self.entries += held[1]
            while self.entries > MAX_SIGNATURE_ENTRIES and len(self.parts) > 1:
                self.entries -= self.parts.pop(next(iter(self.parts)))[1]
        return held[0]


_SIGNATURES = _SignatureStore()


def _assignments(index_set, base):
    """(assignments, index): the tuples of ^I X in product order, I and X
    sorted and given as tuples, and the position of each."""
    def build():
        points = tuple(itertools.product(base, repeat=len(index_set)))
        return (points, {x: k for k, x in enumerate(points)}), 2 * len(points)
    return _SIGNATURES.get(("assignments", index_set, base), build)


def _positions(index_set, base, maps):
    """The assignment positions of each s_tau, end to end, for the maps
    tau given by their values on the index set: entry k of a map's run is
    the position of x o tau, x the k-th assignment, so that s_tau p is p
    read at its run."""
    def build():
        points, index = _assignments(index_set, base)
        row = []
        for values in maps:
            at = [index_set.index(v) for v in values]
            row += [index[tuple(map(x.__getitem__, at))] for x in points]
        return tuple(row), len(row)
    return _SIGNATURES.get(("positions", index_set, base, maps), build)


def _blocks(index_set, base, scopes):
    """(ids, maxima) of the assignments grouped by their entries off J,
    for each J of scopes, a tuple of frozensets (see _classes): per block
    a getter of a row's entries there (the one entry as a slice), whose
    max is the block's supremum, and per J the id of each assignment's
    block, end to end. Ids count on from |X|^|I| and from the blocks of
    the scopes before, so that c_J p, for every J at once, is p followed
    by the suprema of its blocks read at ids."""
    def build():
        points, _ = _assignments(index_set, base)
        ids, maxima = [], []
        for j in scopes:
            block = [0] * len(points)
            for members in _classes(points, index_set, j):
                for pos in members:
                    block[pos] = len(points) + len(maxima)
                maxima.append(itemgetter(*members) if len(members) > 1 else
                              itemgetter(slice(members[0], members[0] + 1)))
            ids += block
        return (tuple(ids), tuple(maxima)), 2 * len(ids)
    return _SIGNATURES.get(("blocks", index_set, base, scopes), build)


def normalize_transformations(index_set, spec):
    domain = tuple(sorted(index_set))
    if spec == "full":
        # its |I|^|I| maps, in product order of their values, which is
        # their sort order, are held to the default closure cap of a
        # generated semigroup before any is built: "full" admits |I| <= 4
        def build():
            if len(domain) ** len(domain) > SemigroupSpec.cap:
                raise TruncationError(
                    f"the full semigroup on {len(domain)} indices has over "
                    f"{SemigroupSpec.cap} maps")
            maps = tuple(FinTransformation(domain, values) for values
                         in itertools.product(domain, repeat=len(domain)))
            return maps, len(maps)
        return _SIGNATURES.get(("full", domain), build), False
    truncated = False
    if isinstance(spec, SemigroupSpec):
        closure = semigroup_closure(spec)
        maps, truncated = set(closure.elements), closure.truncated
    else:
        maps = set(spec)
    maps.add(FinTransformation.identity(domain))
    if any(t.domain != domain for t in maps):
        raise SignatureError("semigroup lives on a different index set")
    return tuple(sorted(maps, key=lambda t: t.sort_key())), truncated


class IndexedAlgebra(IndexedMV):
    """A finite polyadic algebra as operation tables over carrier indices.

    Index i stands for elements[i], in the order of algebra.elements().
    The carrier is closed under every operation, so each one is a finite
    table, a row of type row as in IndexedMV: the MV tables, and
    subst[tau], cyl[J] and q[J] for every tau and J of the signature
    (c_{} is the identity), with q derived from neg and cyl on first read.
    Given the view of its MV reduct (a table algebra's), the view reads
    odot and le there, so that the two views share them.

    A map is found by value through one lookup built with the view,
    position (a map's value tuple to its index in maps), which replacement
    reads on each call, uncached. How the maps combine is read off byte
    codes instead: codes holds each map once as the positions of its
    values in the index set, and code_position finds a map by its code.
    Kept on first read: subst_at, codes, code_position, composition (one
    bytes.translate of all the codes per map), the agreement groups per
    J, injective (bit masks of the scopes), modified (spliced codes) and
    the dimension set of every carrier index (dimensions).
    """

    def __init__(self, algebra, neg, oplus, subst, cyl, reduct=None):
        super().__init__(algebra.elements(), algebra.zero, algebra.one,
                         neg, oplus)
        self.algebra = algebra
        self.reduct = reduct
        self.maps = tuple(algebra.transformations)
        self.position = {t.values: k for k, t in enumerate(self.maps)}
        self.subst = {t: self.row(table) for t, table in subst.items()}
        self.cyl = {frozenset(j): self.row(table) for j, table in cyl.items()}
        self._cylinders = {frozenset(): self.row(self.carrier), **self.cyl}

    @derived
    def odot(self):
        return super().odot if self.reduct is None else self.reduct.odot

    @derived
    def le(self):
        return super().le if self.reduct is None else self.reduct.le

    @derived
    def q(self):
        """q[J][a] is neg[cyl[J][neg[a]]]."""
        neg = self.neg
        return {j: _read(neg, _read(c, neg)) for j, c in self.cyl.items()}

    @derived
    def subst_at(self):
        """[s]: the table of maps[s], so that s_tau is read by position."""
        return [self.subst[t] for t in self.maps]

    @derived
    def codes(self):
        """[s]: maps[s] encoded as the row of its values' positions in the
        index set, of type _row_type(|I| - 1), so bytes up to 256 indices:
        maps[s] o maps[t] is codes[s] read at codes[t]."""
        point = {i: k for k, i in enumerate(self.algebra.index_set)}
        row = _row_type(len(point) - 1)
        return tuple(row(map(point.__getitem__, t.values)) for t in self.maps)

    @derived
    def code_position(self):
        """A code's position in maps, as position is a value tuple's."""
        return {c: k for k, c in enumerate(self.codes)}

    @derived
    def composition(self):
        """[s][t]: the position in maps of maps[s] o maps[t], or None outside
        the signature: all the codes joined, read at codes[s] once per s,
        and each |I|-entry slice looked up by code."""
        codes, at, n = self.codes, self.code_position.get, \
            len(self.algebra.index_set)
        joined = _concat(codes, _row_type(n - 1))
        cuts = [slice(k * n, k * n + n) for k in range(len(codes))]
        return [list(map(at, map(_read(s, joined).__getitem__, cuts)))
                for s in codes]

    def agreement(self, j):
        """The positions of the maps grouped by their values off J; the
        groups, by their first member, and each group in map order, as
        tuples. Kept per J (see mv_core.kept)."""
        j = frozenset(j)
        return kept(self, ("agreement", j), lambda: _classes(
            [t.values for t in self.maps], self.algebra.index_set, j))

    @derived
    def injective(self):
        """[s]: the pairs (J, preimage of J under maps[s]) of the scopes J,
        in scope order, whose preimage is a scope that maps[s] maps into J
        one to one. Read off codes[s] with sets of index positions as bit
        masks: maps[s] is one to one on the preimage of J when its image
        in J has as many bits."""
        point = {i: k for k, i in enumerate(self.algebra.index_set)}
        scopes = []
        for j in self.algebra.scopes:
            inside = [point[i] for i in j]
            scopes.append((j, inside, sum(1 << v for v in inside)))
        family = {mask: j for j, _, mask in scopes}
        out = []
        for code in self.codes:
            pre_of = [0] * len(point)  # the preimage of each position
            for k, v in enumerate(code):
                pre_of[v] |= 1 << k
            image, pairs = sum({1 << v for v in code}), []
            for j, inside, mask in scopes:
                pre = 0
                for v in inside:
                    pre |= pre_of[v]
                found = family.get(pre)
                if found is not None \
                        and (image & mask).bit_count() == pre.bit_count():
                    pairs.append((j, found))
            out.append(pairs)
        return out

    @derived
    def modified(self):
        """[s][i]: the pairs (j, position of maps[s] modified to send i to
        j), for the j of the index set, in order, whose modified map is in
        the signature: codes[s] spliced at i's position, looked up by code,
        so no map is built."""
        index = self.algebra.index_set
        at, row = self.code_position.get, _row_type(len(index) - 1)
        points = [(j, row((k,))) for k, j in enumerate(index)]
        return [{i: [(j, u) for j, b in points
                     if (u := at(code[:x] + b + code[x + 1:])) is not None]
                 for x, i in enumerate(index)} for code in self.codes]

    def replacement(self, i, j):
        """s_[i|j] as an index table, or None outside the signature: the
        identity with i sent to j, found by value."""
        k = self.position.get(tuple(j if x == i else x
                                    for x in self.algebra.index_set))
        return None if k is None else self.subst_at[k]

    def cylinder(self, j):
        """c_J as an index table for any J, cached; c_{} is the identity.

        Outside the signature a functional algebra takes block suprema
        (its cyl_el), -1 marking a value that leaves the carrier, which
        only such a J can produce; an abstract algebra has no such table.
        """
        j = frozenset(j)
        table = self._cylinders.get(j)
        if table is None:
            if self.algebra.kind == "abstract":
                raise SignatureError(f"scope {sorted(j)} is not in the "
                                     "scope family")
            table = self._cylinders[j] = tuple(
                self.index_of.get(self.algebra.cyl_el(j, p), -1)
                for p in self.elements)
        return table

    @derived
    def dimensions(self):
        """[a]: Delta of carrier index a, the indices i whose c_{i} moves
        it (see cylinder for an {i} outside the signature)."""
        cylinders = [(i, self.cylinder({i})) for i in self.algebra.index_set]
        return tuple(frozenset(i for i, c in cylinders if c[a] != a)
                     for a in self.carrier)


class FunctionalSetAlgebra:
    """Algebra of maps from assignment tuples ^I X into a finite chain.

    Elements are value tuples aligned with the lexicographic assignment
    order. Substitution precomposes with a transformation of the index
    set; cylindrification takes suprema over assignment classes. What
    these read depends only on the signature (I, X), and is read from
    the process's signature store, as build_generated reads it: the
    assignments, each map's assignment positions and each scope's blocks,
    built on first use for any map or scope. Its view is built with it by
    build_generated: an algebra built otherwise has no indexed view and
    no contains.
    """

    kind = "functional"
    is_finite = True

    def __init__(self, index_set, base, chain, carrier, generators,
                 transformations, scopes):
        _assignment_count(len(index_set), len(base))
        self.index_set = tuple(sorted(index_set))
        self.base = tuple(base)
        self.chain = chain
        self.transformations = transformations
        self.scopes = scopes
        self.assignments = _assignments(self.index_set, self.base)[0]
        self.carrier = tuple(carrier)
        self.generators = tuple(generators)
        self.zero = tuple(ZERO for _ in self.assignments)
        self.one = tuple(ONE for _ in self.assignments)
        self._indexed = None

    # -- element-level operations ------------------------------------

    def elements(self):
        return self.carrier

    def contains(self, p):
        return p in self.indexed().index_of

    def oplus(self, p, q):
        ch = self.chain
        return tuple(ch.oplus(a, b) for a, b in zip(p, q))

    def odot(self, p, q):
        ch = self.chain
        return tuple(ch.odot(a, b) for a, b in zip(p, q))

    def neg(self, p):
        ch = self.chain
        return tuple(ch.neg(a) for a in p)

    def le(self, p, q):
        return all(a <= b for a, b in zip(p, q))

    def check_args(self, args):
        for p in args:
            if not self.contains(p):
                raise SignatureError(f"{p!r} is not a carrier element")

    def subst_el(self, tau, p):
        positions = _positions(self.index_set, self.base,
                               (tuple(map(tau.apply, self.index_set)),))
        return type(p)(map(p.__getitem__, positions))

    def cyl_el(self, j, p):
        ids, maxima = _blocks(self.index_set, self.base, (frozenset(j),))
        row = p + tuple(max(m(p)) for m in maxima)
        return type(p)(map(row.__getitem__, ids))

    def mv_view(self):
        """The MV reduct for the filter machinery: the algebra itself."""
        return self

    def indexed(self):
        """The IndexedAlgebra that build_generated built with the algebra."""
        if self._indexed is None:
            raise ValueError("an algebra built without tables has no view")
        return self._indexed

    def to_json(self):
        def dump_element(p):
            return {
                format_point(x): format_value(v)
                for x, v in zip(self.assignments, p)
            }

        return {
            "index_set": list(self.index_set),
            "base": list(self.base),
            "chain": self.chain.n,
            "carrier": [dump_element(p) for p in self.carrier],
            "generators": [self.carrier.index(g) for g in self.generators],
            "transformations": [
                {str(i): t.apply(i) for i in self.index_set}
                for t in self.transformations
            ],
            "scopes": [sorted(j) for j in self.scopes],
        }


def build_generated(index_set, base, chain, generators, transformations,
                    scopes, cap=200):
    """Least carrier containing 0, 1 and the generators, closed under the
    MV operations, every substitution and every cylindrification.

    Deterministic closure order: constants and generators first, then for
    each frontier element negation, substitutions, cylindrifications, and
    the binary combinations with all earlier elements. Exceeding the cap
    raises; a partial carrier is never returned.

    The closure runs on mv_core rows of integer chain levels, v at v * top,
    of type _row_type(2 * top), a whole row per operation. The unary
    results of p are ~p, one _read of the level table, and all its s_tau p
    and c_J p at once: one _read of p followed by the suprema of its
    blocks, at the maps' positions and the scopes' block ids of the
    signature store, end to end. The (+) and (*) go a round at a time: a
    round is the elements admitted so far from the next one on,
    ROUND_ENTRIES pair entries at most (one element at least), and the (+)
    and (*) of each with every element up to it are one _add of two rows
    joined end to end and one _read per mv_core._level_tables table, cut
    into runs and looked up at once. Admission stays element by element:
    each element of a round admits its unary results, then its pairs, in
    closure order from the first new one, so the carrier order, every
    table and the admission at which the cap trips are those of the
    element-by-element closure, and a cap trip wastes one round of pairs
    at most. The carrier index of each result is recorded as the tables
    of the view, the (+) of i with k <= i also as entry [k][i]; each
    element becomes a tuple of chain values once, at the end:
    mv_core.Value, levels 0 and top as ZERO and ONE themselves.
    """
    if isinstance(base, int):
        base = range(base)
    size = _assignment_count(len(index_set), len(base))
    index_set, base = tuple(sorted(index_set)), tuple(base)
    scopes = normalize_scopes(index_set, scopes)
    maps, truncated = normalize_transformations(index_set, transformations)
    if truncated:
        raise TruncationError("semigroup closure hit its cap; raise it first")

    gens = []
    for g in generators:
        g = tuple(g)
        if len(g) != size:
            raise ValueError(f"generator has {len(g)} entries, expected {size}")
        for v in g:
            if not chain.contains(v):
                raise ValueError(f"generator value {v} is not in {chain!r}")
        gens.append(g)

    algebra = FunctionalSetAlgebra(
        index_set, base, chain, carrier=(), generators=gens,
        transformations=maps, scopes=scopes)
    top = chain.n - 1
    row = _row_type(2 * top)
    # s_tau p and c_J p, for every tau and J at once: p followed by the
    # suprema of its blocks, read at the positions and the block ids, a
    # row of bytes only where the level rows are bytes too
    spans = tuple(j for j in scopes if j)  # c_{} is the identity
    ids, maxima = _blocks(index_set, base, spans)
    at = _row_type(max(size + len(maxima) - 1, 2 * top))(
        _positions(index_set, base, tuple(t.values for t in maps)) + ids)
    neg, plus, times = _level_tables(top)
    elements, index, unary, pairwise = [], {}, [], []

    def admit(p):
        i = index.get(p)
        if i is None:
            if len(elements) >= cap:
                raise TruncationError(
                    f"carrier closure exceeded the cap of {cap}")
            i = index[p] = len(elements)
            elements.append(p)
        return i

    def admitted(results):
        # the carrier indices of results, looked up at once and admitted
        # in closure order from the first new one
        found = list(map(index.get, results))
        if None in found:
            first = found.index(None)
            found[first:] = map(admit, results[first:])
        return found

    admit(row((0,)) * size)
    admit(row((top,)) * size)
    for g in gens:
        admit(row([v.numerator * top // v.denominator for v in g]))

    # rows cut into runs of |X|^|I| entries: the unary results of p are
    # ~p, then each s_tau p, then each c_J p
    cuts = [slice(k * size, k * size + size)
            for k in range(len(maps) + len(spans))]
    unary_cuts = cuts[:]
    start = 0
    while start < len(elements):
        end, entries = start + 1, (start + 1) * size
        while end < len(elements) \
                and entries + (end + 1) * size <= ROUND_ENTRIES:
            end += 1
            entries += end * size
        joined = _concat(elements[:end], row)
        both = _add(
            _concat([elements[i] * (i + 1) for i in range(start, end)], row),
            _concat([joined[:(i + 1) * size] for i in range(start, end)], row))
        count = (end - start) * (start + end + 1) // 2
        cuts += [slice(k * size, k * size + size)
                 for k in range(len(cuts), count)]
        # the (+) and (*) of each pair in turn
        results = [None] * (2 * count)
        results[::2] = map(_read(plus, both).__getitem__, cuts[:count])
        results[1::2] = map(_read(times, both).__getitem__, cuts[:count])
        known = list(map(index.get, results))
        a = 0
        for i in range(start, end):
            p = elements[i]
            moved = [_read(neg, p), *map(row(_read(
                p + row([max(m(p)) for m in maxima]), at)).__getitem__,
                unary_cuts)]
            unary.append(admitted(moved))
            # the pairs' indices looked up as the round began, again if
            # one was missing then
            b = a + 2 * i + 2
            found = known[a:b]
            if None in found:
                found = admitted(results[a:b])
            pairwise.append(found[::2])
            a = b
        start = end

    # pairwise[i] is the (+) of i with 0..i: row i up to column i, and
    # column i up to row i
    n = len(elements)
    sums = [0] * (n * n)
    for i, found in enumerate(pairwise):
        sums[i * n:i * n + i + 1] = found
        sums[i:i * n + i + 1:n] = found
    negs, *tables = zip(*unary)
    cyls = dict(zip(spans, tables[len(maps):]))
    cyls = {j: cyls[j] if j else range(n) for j in scopes}
    value = {r: Value(r, top) for r in set().union(*elements)}
    value.update({0: ZERO, top: ONE})
    algebra.carrier = tuple(tuple(map(value.__getitem__, p))
                            for p in elements)
    algebra._indexed = IndexedAlgebra(
        algebra, negs, [sums[i * n:i * n + n] for i in range(n)],
        dict(zip(maps, tables)), cyls)
    return algebra


class AbstractPolyadicAlgebra:
    """Finite MV table algebra with explicit s_tau and c_J tables.

    Its elements are the labels of the MV reduct's carrier. It has no
    element operations: every query reads its view, built with it from
    the validated tables and sharing the MV reduct's view. Constructing
    one performs no polyadic audit: run audit_axioms before trusting the
    laws (the MV reduct is still audited by TableAlgebra).
    """

    kind = "abstract"
    is_finite = True

    def __init__(self, mv, index_set, transformations, scopes,
                 s_tables, c_tables):
        self.mv = mv
        self.zero, self.one = mv.zero, mv.one
        self.contains, self.check_args = mv.contains, mv.check_args
        self.index_set = tuple(sorted(index_set))
        self.transformations = transformations
        self.scopes = scopes
        # build_generated's signature checks: every scope lies in the
        # index set, and every map lives on it
        normalize_scopes(self.index_set, scopes)
        normalize_transformations(self.index_set, transformations)
        c_tables = {frozenset(j): table for j, table in c_tables.items()}
        for t in transformations:
            if t not in s_tables:
                raise SignatureError(f"missing substitution table for {t!r}")
        for j in scopes:
            if frozenset(j) not in c_tables:
                raise SignatureError(f"missing cylinder table for {sorted(j)}")
        # audit_axioms reads its byte rows through tables padded with 0
        # past the carrier, so an index outside it must not get that far
        n = len(mv.carrier)
        for table in (*s_tables.values(), *c_tables.values()):
            if len(table) != n or not all(0 <= v < n for v in table):
                raise ValueError("a table must hold one carrier index per "
                                 "element")
        V = mv.indexed()
        self._indexed = IndexedAlgebra(
            self, V.neg, V.oplus, {t: s_tables[t] for t in transformations},
            {j: c_tables[j] if j else V.carrier
             for j in map(frozenset, scopes)}, V)

    def elements(self):
        return self.mv.carrier

    def indexed(self):
        return self._indexed

    @classmethod
    def from_functional(cls, fsa):
        """The table algebra of a functional algebra, labels 0..n-1."""
        view = fsa.indexed()
        mv = TableAlgebra(view.carrier, view.oplus, view.neg, view.zero,
                          view.one)
        return cls(mv, fsa.index_set, fsa.transformations, fsa.scopes,
                   view.subst, view.cyl)

    def corrupted(self, scope, a, b):
        """Copy with two entries of one cylinder table swapped (test hook)."""
        V = self._indexed
        c_tables = {j: list(t) for j, t in V.cyl.items()}
        table = c_tables[frozenset(scope)]
        table[a], table[b] = table[b], table[a]
        return AbstractPolyadicAlgebra(
            self.mv, self.index_set, self.transformations, self.scopes,
            V.subst, c_tables)


# -- public operations ----------------------------------------------------


def _check_signature(V, p, tau=None, j=None):
    """The carrier index of p in the view V, once tau and J are found in
    its signature; SignatureError if any of them is not."""
    if tau is not None and tau not in V.subst:
        raise SignatureError(f"{tau!r} is not in the semigroup")
    if j is not None and frozenset(j) not in V.cyl:
        raise SignatureError(f"scope {sorted(j)} is not in the scope family")
    a = V.index_of.get(p)
    if a is None:
        raise SignatureError(f"element is not in the carrier: {p!r}")
    return a


def cyl(algebra, j, p):
    V = algebra.indexed()
    a = _check_signature(V, p, j=j)
    return V.elements[V.cyl[frozenset(j)][a]]


def subst(algebra, tau, p):
    V = algebra.indexed()
    a = _check_signature(V, p, tau=tau)
    return V.elements[V.subst[tau][a]]


def q_forall(algebra, j, p):
    V = algebra.indexed()
    a = _check_signature(V, p, j=j)
    return V.elements[V.q[frozenset(j)][a]]


def dimension_set(algebra, p):
    """Delta p: the indices whose cylindrification moves the element."""
    V = algebra.indexed()
    return V.dimensions[_check_signature(V, p)]


def minimal_support(algebra, p):
    """Smallest J with c_(I-J) p = p, by greedy descent.

    On index sets of at most four points the greedy answer is verified
    against the full subset scan; a mismatch would mean the two routes
    disagree and is raised loudly.
    """
    V = algebra.indexed()
    a = _check_signature(V, p)
    index = set(algebra.index_set)

    def supports(j):
        return V.cylinder(index - j)[a] == a

    current = set(index)
    changed = True
    while changed:
        changed = False
        for i in sorted(current):
            trial = current - {i}
            if supports(trial):
                current = trial
                changed = True
    greedy = frozenset(current)

    if len(index) <= 4:
        # the first support by size; the whole index set is one
        found = next(filter(supports, normalize_scopes(index, "powerset")))
        if found != greedy and len(found) != len(greedy):
            raise AssertionError(
                f"greedy support {sorted(greedy)} disagrees with "
                f"exhaustive {sorted(found)}")
    return greedy


@record
class NeatReduct:
    parent: object
    alpha: frozenset
    flavor: str
    elements: tuple
    scopes: tuple
    transformations: tuple


def neat_reduct(algebra, alpha, flavor="FiniteT"):
    """Subalgebra of elements confined to alpha, with restricted operations.

    FiniteT selects by dimension set, FullT by invariance under the
    cylinder on the complement. The restricted transformations fix the
    complement pointwise and map alpha into itself (the tau-bar device).
    Closure is one first_witness over the escape_blocks of ~, each c_J,
    each s_tau, (+) and (*) on the members; the first breach raises
    NotASubuniverse naming it.
    """
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
    allowed = [alpha if i in alpha else (i,) for i in algebra.index_set]
    transformations = tuple(t for t in algebra.transformations
                            if all(map(contains, allowed, t.values)))

    # a unary label is its table's key in V, named only at a breach
    _, witness = first_witness(escape_blocks(
        V, members, [("neg", V.neg), *((j, V.cyl[j]) for j in scopes),
                     *((t, V.subst[t]) for t in transformations)],
        [("oplus", V.oplus), ("odot", V.odot)]))
    if witness is not None:
        label, *at = witness
        at = tuple(V.elements[x] for x in at)
        raise NotASubuniverse(
            label if isinstance(label, str)
            else f"cyl{sorted(label)}" if isinstance(label, frozenset)
            else f"subst{label!r}", at[0] if len(at) == 1 else at)
    return NeatReduct(algebra, alpha, flavor,
                      tuple(V.elements[a] for a in members), scopes,
                      transformations)


def term_substitution(algebra, tau, x):
    """Express s_tau by a chain of replacements through fresh indices.

    For tau with support u_0 < ... < u_{k-1} and images v_i = tau(u_i),
    picks the first k indices pi_i outside Delta x, the u's and the v's,
    then applies s[u_{k-1}|pi_{k-1}] ... s[u_0|pi_0] followed by
    s[pi_{k-1}|v_{k-1}] ... s[pi_0|v_0]. Raises when the index set has no
    room; the result must agree with the direct substitution, which the
    audit checks on functional algebras.
    """
    V = algebra.indexed()
    out = _check_signature(V, x)
    moved = sorted(i for i in tau.domain if tau.apply(i) != i)
    if not moved:
        return x
    images = [tau.apply(u) for u in moved]
    delta = V.dimensions[out]
    banned = delta | set(moved) | set(images)
    fresh = [i for i in algebra.index_set if i not in banned]
    k = len(moved)
    if len(fresh) < k:
        raise InsufficientSpareIndices(
            f"need {k} spare indices outside {sorted(banned)}, "
            f"found {len(fresh)}")
    pis = fresh[:k]

    def replacement(i, j):
        table = V.replacement(i, j)
        if table is None:
            t = FinTransformation.replacement(algebra.index_set, i, j)
            raise SignatureError(f"{t!r} is not in the semigroup")
        return table

    for u, pi in reversed(list(zip(moved, pis))):
        out = replacement(u, pi)[out]
    for pi, v in reversed(list(zip(pis, images))):
        out = replacement(pi, v)[out]
    return V.elements[out]


# -- the exhaustive auditor ------------------------------------------------


@record
class IdentityResult:
    name: str
    holds: bool
    checked: int
    witness: tuple | None = None


def audit_axioms(algebra):
    """Exhaustively verify every identity family over the whole carrier.

    Families: the five defining polyadic axioms, the six existential
    quantifier laws per scope, the nine substitution/cylinder interaction
    laws over single indices and replacements, and the five universal
    quantifier laws. Failures carry the witnessing tuple in element form.

    The instances are checked a table row at a time (see
    mv_core.first_witness). A row holds one side of a law at every
    carrier element, and is built by reading one index table at the
    entries of another (mv_core._read): s_sigma read at s_tau against
    s_(sigma tau). The view's tables are such rows, read as they are, and
    how the maps combine is read off the view by position (see
    IndexedAlgebra). The rows of a block are compared whole; only a block
    whose rows differ is walked, so `checked` and every witness are those
    of a walk over one instance at a time in the order of the rows.

    A block covers a whole family, or one outer map or scope of it, laws
    one after another: per sigma, s_(sigma tau) joined over the tau of
    the signature against one read of s_sigma at the join of the s_tau
    (and per J the additivity of c and of q alike); per sigma, the
    injective laws over its admissible scopes; per t, the modify laws
    over its (i, j), the rows s_u c_i read once per (u, i). The agreement
    laws of a group of maps whose rows s_t c_J are all equal count
    n C(g, 2) at once; only a group with unequal rows yields its pairs.
    Laws over the same instances are interleaved element by element.

    The endomorphism laws of s_t are one block per map: the rows of ~
    over p and of (+) and (*) over the pairs (p, q), p-major, the right
    sides joined per p; a map whose rows differ is walked per p, and a
    map whose table an earlier map has counts its instances unread. The
    distributive laws t(p . t(b)) = t(p) . t(b) (E3/E4, Q1-odot/Q1-oplus,
    D1-oplus) read b only through t(b), so each is checked first with
    every value v of t in place of t(b), over all p at once (column v of
    . read through t and at t), and walked over every (p, b) only if that
    differs. No law of the algebra is assumed, so this holds of corrupted
    tables too.

    The report is computed once per algebra object and kept on it (see
    mv_core.kept): a later call returns the same report.
    """
    return kept(algebra, "audit", lambda: _audit_axioms(algebra))


def _audit_axioms(algebra):
    V = algebra.indexed()
    els = V.carrier
    n = len(els)
    scopes = list(algebra.scopes)
    scope_set = set(scopes)
    maps = V.maps
    # the view's tables, mv_core rows of carrier indices, s_tau by position
    row, neg, S, C, Q = V.row, V.neg, V.subst_at, V.cyl, V.q
    ones = row((True,) * n)
    # (*) and (+) as (rows by p, rows by column)
    odot, oplus = ((op, list(map(row, zip(*op)))) for op in (V.odot, V.oplus))
    results = []

    def _audit(name, blocks):
        # a witness comes as (head, *carrier indices); only the first
        # failing one is put in element form
        checked, witness = first_witness(blocks)
        if witness is not None:
            head, *ids = witness
            witness = head + tuple(V.elements[p] for p in ids)
        return IdentityResult(name, witness is None, checked, witness)

    def laws(rows, *ids):
        # the block of the laws given as rows (head, lhs, rhs) over the
        # carrier: counted if every law's rows agree, else every law at an
        # element before the next element, the instance at carrier index p
        # witnessed by (head, *ids, p)
        heads, lhs, rhs = zip(*rows)
        if lhs == rhs:
            return (), (), (), n * len(rows)
        return (_interleave(lhs), _interleave(rhs),
                ((head, *ids, p) for p in els for head in heads))

    def in_turn(heads, lhs, rhs):
        # the block of laws checked one after another, each over the
        # carrier: lhs and rhs their rows, joined only if they differ, and
        # heads, read only then, their heads
        if lhs == rhs:
            return (), (), (), n * len(lhs)
        return (_concat(lhs, row), _concat(rhs, row),
                ((head, p) for head in heads for p in els))

    def products(heads, outer, inners, targets):
        # the block of outer(inner(p)) = target(p), one law after another
        # over the carrier: one read of outer at the joined inner rows
        return (_concat(targets, row), _read(outer, _concat(inners, row)),
                ((head, p) for head in heads for p in els))

    def distributes(t, heads, ops):
        # t(p . t(b)) = t(p) . t(b) for the operation . of each head, given
        # by its (rows, columns) in ops: first column v of . read through t
        # against column v read at t, for every value v of t, then, if they
        # differ, one block per p over b
        if all(_read(t, cols[v]) == _read(cols[v], t)
               for v in set(t) for _, cols in ops):
            yield (), (), (), n * n * len(heads)
            return
        for p in els:
            yield laws([(head, _read(t, _read(rows[p], t)),
                         _read(rows[t[p]], t))
                        for head, (rows, _) in zip(heads, ops)], p)

    def unions(tables, *tag):
        # per J, t_(J u J2) against t_J read at t_J2, for the J2 whose
        # union with J is a scope
        for j in scopes:
            js = [j2 for j2 in scopes if j | j2 in scope_set]
            yield products(((*tag, tuple(sorted(j)), tuple(sorted(j2)))
                            for j2 in js),
                           tables[j], [tables[j2] for j2 in js],
                           [tables[j | j2] for j2 in js])

    # polyadic axioms 1..5
    identity = V.position.get(algebra.index_set)
    if identity is not None:
        results.append(_audit("polyadic-1-s-identity",
                              [laws([((), S[identity], row(els))])]))
    else:
        results.append(IdentityResult("polyadic-1-s-identity", True, 0))

    # per sigma, s_(sigma tau) against s_sigma read at s_tau
    def composition_blocks():
        for sigma, s_s, comp in zip(maps, S, V.composition):
            taus = [t for t, c in enumerate(comp) if c is not None]
            yield products(((sigma, maps[t]) for t in taus), s_s,
                           [S[t] for t in taus], [S[comp[t]] for t in taus])

    results.append(_audit("polyadic-2-s-composition", composition_blocks()))
    results.append(_audit("polyadic-3-c-additive", unions(C)))

    def agreement_blocks(tables):
        for j in scopes:
            cj = tables[j]
            for group in V.agreement(j):
                after = [_read(S[t], cj) for t in group]
                if after.count(after[0]) == len(after):
                    yield (), (), (), n * len(group) * (len(group) - 1) // 2
                    continue
                for (s, a), (t, b) in itertools.combinations(
                        zip(group, after), 2):
                    yield a, b, (((maps[s], maps[t], tuple(sorted(j))), p)
                                 for p in els)

    results.append(_audit("polyadic-4-s-agreement", agreement_blocks(C)))

    def injective_blocks(tables):
        for sigma, s_s, pairs in zip(maps, S, V.injective):
            yield in_turn(((sigma, tuple(sorted(j))) for j, _ in pairs),
                          [_read(tables[j], s_s) for j, _ in pairs],
                          [_read(s_s, tables[pre]) for _, pre in pairs])

    results.append(_audit("polyadic-5-c-injective", injective_blocks(C)))

    # a (*) a and a (+) a per carrier index a
    square_odot = row(map(getitem, V.odot, els))
    square_oplus = row(map(getitem, V.oplus, els))

    # existential quantifier laws, per scope
    def exists_blocks():
        for j in scopes:
            cj = C[j]
            tag = tuple(sorted(j))
            yield _instance(cj[V.zero], V.zero, (("E1", tag),))
            yield laws([
                (("E2", tag), row(map(getitem, V.le, cj)), ones),
                (("E5", tag), _read(cj, square_odot),
                 _read(square_odot, cj)),
                (("E6", tag), _read(cj, square_oplus),
                 _read(square_oplus, cj))])
            yield from distributes(cj, [("E3", tag), ("E4", tag)],
                                   [odot, oplus])

    results.append(_audit("exists-laws-1-6", exists_blocks()))

    # q laws 1..3 (4 and 5 mirror the substitution laws below)
    def q_blocks():
        for j in scopes:
            qj, cj = Q[j], C[j]
            tag = tuple(sorted(j))
            yield _instance(qj[V.one], V.one, (("Q1-unit", tag),))
            yield laws([
                (("Q1-decreasing", tag), row(map(
                    getitem, map(V.le.__getitem__, qj), els)),
                 ones),
                (("Q1-square-odot", tag), _read(qj, square_odot),
                 _read(square_odot, qj)),
                (("Q1-square-oplus", tag), _read(qj, square_oplus),
                 _read(square_oplus, qj)),
                (("Q3-cq", tag), _read(cj, qj), qj),
                (("Q3-qc", tag), _read(qj, cj), cj)])
            yield from distributes(qj, [("Q1-odot", tag), ("Q1-oplus", tag)],
                                   [odot, oplus])
        yield from unions(Q, "Q2")

    results.append(_audit("q-laws-1-3", q_blocks()))
    results.append(_audit("q-4-s-agreement", agreement_blocks(Q)))
    results.append(_audit("q-5-q-injective", injective_blocks(Q)))

    # endomorphism property of every substitution: per map, the units,
    # then one block of the rows of ~ over p and of (+) and (*) over the
    # pairs (p, q), p-major. The left sides read s_t at the tables; the
    # right sides join, over p, row s_t p of (+) and (*) read at s_t, read
    # once per value of s_t. A map whose rows differ is walked per p: the
    # neg law, then the oplus and odot laws over q in turn. A table that an
    # earlier map has too is checked once: the earlier map's laws held
    # (else the walk stopped there), so its 2 + n + 2 n^2 instances hold.
    flat = [_concat(op, row) for op in (V.oplus, V.odot)]

    def at_p(rows, p):
        # the neg entry of p, then the oplus and odot entries of (p, q)
        # over q in turn
        cut = slice(p * n, p * n + n)
        return rows[0][p:p + 1] + _interleave([rows[1][cut], rows[2][cut]])

    def endo_blocks():
        seen = set()
        for t, s_t in zip(maps, S):
            if s_t in seen:
                yield (), (), (), 2 + n + 2 * n * n
                continue
            seen.add(s_t)
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

    results.append(_audit("dlaw-2-s-endomorphism", endo_blocks()))

    # single-index interaction laws, where the signature provides them
    singles = sorted(next(iter(j)) for j in scopes if len(j) == 1)

    def dlaw1_blocks():
        for i in singles:
            ci = C[frozenset({i})]
            neg_c = _read(neg, ci)
            yield laws([
                (("D1-increasing", i), row(map(getitem, V.le, ci)),
                 ones),
                (("D1-idempotent", i), _read(ci, ci), ci),
                (("D1-complement", i), _read(ci, neg_c), neg_c)])
            for k in singles:
                ck = C[frozenset({k})]
                yield laws([(("D1-commute", i, k), _read(ci, ck),
                             _read(ck, ci))])
            yield from distributes(ci, [("D1-oplus", i)], [oplus])

    results.append(_audit("dlaw-1-cylinder", dlaw1_blocks()))

    # per t, s_t c_i against s_u c_i for u = t modified to send i to j
    def dlaw4_blocks():
        cs = [C[frozenset({i})] for i in singles]
        after = [[_read(s, ci) for ci in cs] for s in S]
        for t, rows, modified in zip(maps, after, V.modified):
            laws_t = [(i, j, k, u) for k, i in enumerate(singles)
                      for j, u in modified[i]]
            yield in_turn((("D4", t, i, j) for i, j, _, _ in laws_t),
                          [rows[k] for _, _, k, _ in laws_t],
                          [after[u][k] for _, _, k, u in laws_t])

    results.append(_audit("dlaw-4-modify", dlaw4_blocks()))

    # the laws of c and their twins for q = ~c~, each declared once over
    # both: per quantifier, its table of every single index
    twins = [(x, {i: T[frozenset({i})] for i in singles})
             for x, T in (("c", C), ("q", Q))]

    def dlaw5_blocks():
        # s_t c_i = c_j s_t and s_t q_i = q_j s_t for scopes t^-1{j} = {i}
        for t, s_t, pairs in zip(maps, S, V.injective):
            for (j,), (i,) in (p for p in pairs if len(p[0]) == len(p[1]) == 1):
                yield laws([((f"D5-{x}", t, i, j), _read(s_t, T[i]),
                             _read(T[j], s_t)) for x, T in twins])

    results.append(_audit("dlaw-5-unique-preimage", dlaw5_blocks()))

    def dlaw6to9_blocks():
        for i, j in itertools.permutations(singles, 2):
            s_ij = V.replacement(i, j)
            if s_ij is None:
                continue
            s_ji = V.replacement(j, i)
            rows = [((f"D6-{x}", i, j), _read(T[i], s_ij), s_ij)
                    for x, T in twins]
            rows += [((f"D7-{x}", i, j), _read(s_ij, T[i]), T[i])
                     for x, T in twins]
            rows += [((f"D8-{x}", i, j, k), _read(s_ij, T[k]),
                      _read(T[k], s_ij))
                     for k in singles if k not in (i, j) for x, T in twins]
            if s_ji is not None:
                rows += [((f"D9-{x}", i, j), _read(T[i], s_ji),
                          _read(T[j], s_ij)) for x, T in twins]
            yield laws(rows)

    results.append(_audit("dlaw-6-9-replacements", dlaw6to9_blocks()))

    return AuditReport(tuple(results))


def algebra_from_json(data):
    """The algebra of a spec, every key read through json_field: generator
    tables for build_generated to close, or a dump of to_json, whose
    "carrier" must be that closure of the generators it indexes. Counts
    are capped (see _assignment_count) before the assignments are built."""
    def points(key):
        # a count n, standing for 0..n-1 and not built yet, or a list
        value = json_field(data, key, lambda v: is_json_int(v) and v >= 0 or (
            json_list_of(is_json_int)(v) and len(set(v)) == len(v)),
            "a count or a list of distinct integers")
        return range(value) if is_json_int(value) else value

    chain = Chain(json_field(data, "chain", is_json_int, "an integer"))
    index_set, base = points("index_set"), points("base")
    size = _assignment_count(len(index_set), len(base))
    tables = json_list_of(is_json_object)
    scopes = json_field(
        data, "scopes", lambda v: v in ("powerset", "singletons")
        or json_list_of(json_list_of(is_json_int))(v),
        '"powerset", "singletons" or a list of index lists', "powerset")

    def load_element(table):
        values = {parse_point(k): parse_value(v) for k, v in table.items()}
        element = tuple(map(values.get, itertools.product(
            base, repeat=len(index_set))))
        if len(table) != size or None in element:
            raise ValueError(f"element table has {len(table)} entries, not "
                             f"one at each of the {size} assignments")
        return element

    carrier = json_field(data, "carrier", tables, "a list of element tables",
                         None)
    if carrier is None:
        semigroup = json_field(data, "semigroup", lambda v: v == "full"
                               or is_json_object(v), '"full" or an object',
                               "full")
        if semigroup != "full":
            semigroup = SemigroupSpec(tuple(
                parse_transformation(g, tuple(index_set))
                for g in json_field(semigroup, "generators",
                                    json_list_of(is_json_str),
                                    "a list of strings")),
                json_field(semigroup, "cap", is_json_int, "an integer",
                           SemigroupSpec.cap))
        return build_generated(
            index_set, base, chain, map(load_element, json_field(
                data, "generators", tables, "a list of element tables")),
            semigroup, scopes,
            cap=json_field(data, "cap", is_json_int, "an integer", 200))

    carrier = tuple(map(load_element, carrier))
    maps = tuple(
        FinTransformation.from_dict({int(k): v for k, v in t.items()},
                                    tuple(index_set))
        for t in json_field(data, "transformations", json_list_of(
            lambda t: is_json_object(t) and all(map(is_json_int, t.values()))),
            "a list of maps"))
    algebra = build_generated(
        index_set, base, chain, map(carrier.__getitem__, json_field(
            data, "generators", json_list_of(json_index_into(carrier)),
            "a list of carrier indices")), maps, scopes, cap=len(carrier))
    if algebra.carrier != carrier:
        raise ValueError("the carrier is not the closure of its generators")
    return algebra
