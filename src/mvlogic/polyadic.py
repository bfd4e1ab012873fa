"""Polyadic MV algebras over a transformation semigroup and a scope family.

Two realizations share one operation protocol: functional set algebras,
whose elements are maps from assignment tuples into a finite chain, and
abstract table algebras with explicit substitution and cylindrification
tables. On top of both sit dimension sets, supports, neat reducts, the
replacement-chain form of finite substitutions, and an exhaustive axiom
auditor for every identity family the theory demands.

Every exhaustive checker (the axiom audit, neat reducts, and in interlab
and pavelka the Henkin filter search and the representation maps) works
on one `IndexedAlgebra`: the algebra's operations as tables over carrier
indices, extending mv_core's `IndexedMV`, on which the filters and
quotients run. `algebra.indexed()` builds it on first use and caches it,
so building, dumping or querying single elements never pays for it.
Results leave the checkers in element form.

Inside the engine a value of the chain is an integer level: the carrier
closure of `build_generated` and the tables of the view run on tuples of
levels, and `Fraction` appears only at the edges, in the elements handed
out, the parsed and dumped specs and the reports.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import add

from .mv_core import (
    Chain, IndexedMV, TableAlgebra, ONE, ZERO, format_value, _level_sums,
    parse_value,
)
from .transform import FinTransformation, SemigroupSpec, compose, semigroup_closure


class SignatureError(ValueError):
    """A scope or transformation is not part of the algebra's signature."""


class TruncationError(RuntimeError):
    """Carrier closure exceeded its cap; partial carriers are never returned."""


class NotASubuniverse(ValueError):
    def __init__(self, operation, witness):
        super().__init__(f"{operation} escapes the candidate subuniverse "
                         f"at {witness!r}")
        self.operation = operation
        self.witness = witness


class InsufficientSpareIndices(ValueError):
    """No fresh indices remain for the replacement-chain construction."""


def scope_key(j):
    return (len(j), tuple(sorted(j)))


def normalize_scopes(index_set, scopes):
    if scopes == "powerset":
        sets = [frozenset(c)
                for size in range(len(index_set) + 1)
                for c in itertools.combinations(sorted(index_set), size)]
    elif scopes == "singletons":
        sets = [frozenset()] + [frozenset({i}) for i in sorted(index_set)]
    else:
        sets = [frozenset(j) for j in scopes]
    for j in sets:
        if not j <= set(index_set):
            raise SignatureError(f"scope {sorted(j)} escapes the index set")
    return tuple(sorted(set(sets), key=scope_key))


def normalize_transformations(index_set, spec):
    domain = tuple(sorted(index_set))
    if spec == "full":
        maps = [FinTransformation(domain, values)
                for values in itertools.product(domain, repeat=len(domain))]
        return tuple(sorted(maps, key=lambda t: t.sort_key())), False
    if isinstance(spec, SemigroupSpec):
        closure = semigroup_closure(spec)
        maps = set(closure.elements)
        maps.add(FinTransformation.identity(domain))
        for t in maps:
            if t.domain != domain:
                raise SignatureError("semigroup lives on a different index set")
        return (tuple(sorted(maps, key=lambda t: t.sort_key())),
                closure.truncated)
    maps = set(spec)
    maps.add(FinTransformation.identity(domain))
    return tuple(sorted(maps, key=lambda t: t.sort_key())), False


class IndexedAlgebra(IndexedMV):
    """A finite polyadic algebra as operation tables over carrier indices.

    Index i stands for elements[i], in the order of algebra.elements().
    The carrier is closed under every operation, so each one is a finite
    table: the MV tables of IndexedMV, and subst[tau], cyl[J] and q[J] for
    every tau and J of the signature, with q derived from neg and cyl.
    """

    def __init__(self, algebra, neg, oplus, subst, cyl):
        super().__init__(algebra.elements(), algebra.zero, algebra.one,
                         neg, oplus)
        self.algebra = algebra
        neg = self.neg
        self.subst = {t: tuple(table) for t, table in subst.items()}
        self.cyl = {frozenset(j): tuple(table) for j, table in cyl.items()}
        self.q = {j: tuple(neg[c[neg[a]]] for a in self.carrier)
                  for j, c in self.cyl.items()}
        self._cylinders = dict(self.cyl)

    def cylinder(self, j):
        """c_J as an index table for any J, cached.

        Outside the signature the algebra's own cyl_el decides; -1 marks
        a value that leaves the carrier, which only such a J can produce.
        """
        j = frozenset(j)
        table = self._cylinders.get(j)
        if table is None:
            table = self._cylinders[j] = tuple(
                self.index_of.get(self.algebra.cyl_el(j, p), -1)
                for p in self.elements)
        return table

    def dimension_set(self, a):
        """Delta of carrier index a (see dimension_set)."""
        return frozenset(i for i in self.algebra.index_set
                         if self.cylinder({i})[a] != a)


def _level_ops(chain):
    """(neg, oplus, odot) of a finite chain on tuples of integer levels.

    Level r stands for the chain value r/top: neg is top - a, oplus is
    min(a + b, top) and odot is max(a + b - top, 0), entry by entry, the
    last two read off mv_core._level_sums.
    """
    top = chain.n - 1
    flip = list(range(top, -1, -1))
    plus, times = _level_sums(top)

    def neg(p):
        return tuple(map(flip.__getitem__, p))

    def oplus(p, q):
        return tuple(map(plus.__getitem__, map(add, p, q)))

    def odot(p, q):
        return tuple(map(times.__getitem__, map(add, p, q)))

    return neg, oplus, odot


class FunctionalSetAlgebra:
    """Algebra of maps from assignment tuples ^I X into a finite chain.

    Elements are value tuples aligned with the lexicographic assignment
    order. Substitution precomposes with a transformation of the index
    set; cylindrification takes suprema over assignment classes.
    """

    kind = "functional"
    is_finite = True

    def __init__(self, index_set, base, chain, carrier, generators,
                 transformations, scopes):
        self.index_set = tuple(sorted(index_set))
        self.base = tuple(base)
        self.chain = chain
        self.transformations = transformations
        self.scopes = scopes
        self.assignments = tuple(
            itertools.product(self.base, repeat=len(self.index_set)))
        self._assign_index = {x: i for i, x in enumerate(self.assignments)}
        self.carrier = tuple(carrier)
        self._carrier_set = set(self.carrier)
        self.generators = tuple(generators)
        self.zero = tuple(ZERO for _ in self.assignments)
        self.one = tuple(ONE for _ in self.assignments)
        self._perm_cache = {}
        self._block_cache = {}
        self._indexed = None

    # -- element-level operations ------------------------------------

    def elements(self):
        return self.carrier

    def contains(self, p):
        return p in self._carrier_set

    def oplus(self, p, q):
        ch = self.chain
        return tuple(ch.oplus(a, b) for a, b in zip(p, q))

    def odot(self, p, q):
        ch = self.chain
        return tuple(ch.odot(a, b) for a, b in zip(p, q))

    def neg(self, p):
        ch = self.chain
        return tuple(ch.neg(a) for a in p)

    def implies(self, p, q):
        ch = self.chain
        return tuple(ch.implies(a, b) for a, b in zip(p, q))

    def le(self, p, q):
        return all(a <= b for a, b in zip(p, q))

    def check_args(self, args):
        for p in args:
            if not self.contains(p):
                raise SignatureError(f"{p!r} is not a carrier element")

    def _perm(self, tau):
        perm = self._perm_cache.get(tau)
        if perm is None:
            pos = self.index_set.index
            perm = tuple(
                self._assign_index[tuple(x[pos(tau.apply(i))]
                                         for i in self.index_set)]
                for x in self.assignments
            )
            self._perm_cache[tau] = perm
        return perm

    def subst_el(self, tau, p):
        return tuple(map(p.__getitem__, self._perm(tau)))

    def _blocks(self, j):
        key = frozenset(j)
        blocks = self._block_cache.get(key)
        if blocks is None:
            groups = {}
            outside = [k for k, i in enumerate(self.index_set) if i not in key]
            for pos, x in enumerate(self.assignments):
                sig = tuple(x[k] for k in outside)
                groups.setdefault(sig, []).append(pos)
            block_id = [None] * len(self.assignments)
            members = []
            for bid, (_, positions) in enumerate(sorted(groups.items())):
                members.append(tuple(positions))
                for pos in positions:
                    block_id[pos] = bid
            blocks = (tuple(block_id), tuple(members))
            self._block_cache[key] = blocks
        return blocks

    def cyl_el(self, j, p):
        if not j:
            return p
        block_id, members = self._blocks(frozenset(j))
        sups = [max(map(p.__getitem__, positions)) for positions in members]
        return tuple(map(sups.__getitem__, block_id))

    def q_el(self, j, p):
        return self.neg(self.cyl_el(j, self.neg(p)))

    def mv_view(self):
        """The MV reduct for the filter machinery: the algebra itself."""
        return self

    def indexed(self):
        """The IndexedAlgebra of this algebra, built on first use.

        Elements are read as tuples of integer chain levels, so building
        the tables takes no rational arithmetic; subst_el and cyl_el only
        move and compare entries and serve levels and values alike.
        """
        if self._indexed is None:
            level = {v: r for r, v in enumerate(self.chain.carrier)}
            levels = [tuple(level[v] for v in p) for p in self.carrier]
            at = {lv: i for i, lv in enumerate(levels)}
            neg, oplus, _ = _level_ops(self.chain)
            self._indexed = IndexedAlgebra(
                self, [at[neg(lp)] for lp in levels],
                [[at[oplus(lp, lq)] for lq in levels] for lp in levels],
                {t: [at[self.subst_el(t, lp)] for lp in levels]
                 for t in self.transformations},
                {j: [at[self.cyl_el(j, lp)] for lp in levels]
                 for j in self.scopes})
        return self._indexed

    def to_json(self):
        def dump_element(p):
            return {
                "(" + ",".join(map(str, x)) + ")": format_value(v)
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

    The closure runs on tuples of integer chain levels (see _level_ops);
    each element becomes a tuple of chain values once, at the end.
    """
    index_set = tuple(sorted(index_set))
    if isinstance(base, int):
        base = tuple(range(base))
    scopes = normalize_scopes(index_set, scopes)
    maps, truncated = normalize_transformations(index_set, transformations)
    if truncated:
        raise TruncationError("semigroup closure hit its cap; raise it first")

    size = len(base) ** len(index_set)
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
        index_set, base, chain, carrier=(), generators=(),
        transformations=maps, scopes=scopes)
    neg, oplus, odot = _level_ops(chain)
    level = {v: r for r, v in enumerate(chain.carrier)}
    top = chain.n - 1
    elements = []
    seen = set()

    def admit(p):
        if p not in seen:
            if len(elements) >= cap:
                raise TruncationError(
                    f"carrier closure exceeded the cap of {cap}")
            seen.add(p)
            elements.append(p)

    admit((0,) * size)
    admit((top,) * size)
    for g in gens:
        admit(tuple(level[v] for v in g))

    i = 0
    while i < len(elements):
        p = elements[i]
        admit(neg(p))
        for tau in maps:
            admit(algebra.subst_el(tau, p))
        for j in scopes:
            admit(algebra.cyl_el(j, p))
        for q in elements[: i + 1]:
            admit(oplus(p, q))
            admit(odot(p, q))
        i += 1

    values = chain.carrier
    return FunctionalSetAlgebra(
        index_set, base, chain,
        carrier=tuple(tuple(map(values.__getitem__, p)) for p in elements),
        generators=tuple(gens), transformations=maps, scopes=scopes)


class AbstractPolyadicAlgebra:
    """Finite MV table algebra with explicit s_tau and c_J tables.

    Constructing one performs no polyadic audit: run audit_axioms before
    trusting the laws (the MV reduct is still audited by TableAlgebra).
    """

    kind = "abstract"

    def __init__(self, mv, index_set, transformations, scopes,
                 s_tables, c_tables):
        self.mv = mv
        self.index_set = tuple(sorted(index_set))
        self.transformations = transformations
        self.scopes = scopes
        self._s = {t: tuple(table) for t, table in s_tables.items()}
        self._c = {frozenset(j): tuple(table) for j, table in c_tables.items()}
        self._index = {label: i for i, label in enumerate(mv.carrier)}
        self._indexed = None
        for t in transformations:
            if t not in self._s:
                raise SignatureError(f"missing substitution table for {t!r}")
        for j in scopes:
            if frozenset(j) not in self._c:
                raise SignatureError(f"missing cylinder table for {sorted(j)}")

    @property
    def zero(self):
        return self.mv.zero

    @property
    def one(self):
        return self.mv.one

    def elements(self):
        return self.mv.carrier

    def contains(self, p):
        return p in self._index

    def oplus(self, p, q):
        return self.mv.oplus(p, q)

    def odot(self, p, q):
        return self.mv.odot(p, q)

    def neg(self, p):
        return self.mv.neg(p)

    def implies(self, p, q):
        return self.mv.implies(p, q)

    def le(self, p, q):
        return self.mv.le(p, q)

    def subst_el(self, tau, p):
        if tau not in self._s:
            raise SignatureError(f"{tau!r} is not in the signature")
        return self.mv.carrier[self._s[tau][self._index[p]]]

    def cyl_el(self, j, p):
        j = frozenset(j)
        if not j:
            return p
        if j in self._c:
            return self.mv.carrier[self._c[j][self._index[p]]]
        # decompose through smaller scopes via c_(J u J') = c_J c_J'
        for i in sorted(j):
            if frozenset({i}) not in self._c:
                raise SignatureError(f"scope {sorted(j)} not available")
        out = p
        for i in sorted(j):
            out = self.mv.carrier[self._c[frozenset({i})][self._index[out]]]
        return out

    def q_el(self, j, p):
        return self.neg(self.cyl_el(j, self.neg(p)))

    def mv_view(self):
        return self.mv

    def indexed(self):
        """The IndexedAlgebra of this algebra, read off its own tables."""
        if self._indexed is None:
            tables = self.mv.to_json()
            identity = range(len(self.mv.carrier))
            cyl = {j: self._c[j] if j else identity
                   for j in map(frozenset, self.scopes)}
            self._indexed = IndexedAlgebra(self, tables["neg"],
                                           tables["oplus"], self._s, cyl)
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
        c_tables = {j: list(t) for j, t in self._c.items()}
        table = c_tables[frozenset(scope)]
        table[a], table[b] = table[b], table[a]
        return AbstractPolyadicAlgebra(
            self.mv, self.index_set, self.transformations, self.scopes,
            self._s, {j: tuple(t) for j, t in c_tables.items()})


# -- public operations ----------------------------------------------------


def _check_signature(algebra, tau=None, j=None):
    if tau is not None and tau not in set(algebra.transformations):
        raise SignatureError(f"{tau!r} is not in the semigroup")
    if j is not None and frozenset(j) not in set(algebra.scopes):
        raise SignatureError(f"scope {sorted(j)} is not in the scope family")


def cyl(algebra, j, p):
    _check_signature(algebra, j=j)
    if not algebra.contains(p):
        raise SignatureError("element is not in the carrier")
    return algebra.cyl_el(frozenset(j), p)


def subst(algebra, tau, p):
    _check_signature(algebra, tau=tau)
    if not algebra.contains(p):
        raise SignatureError("element is not in the carrier")
    return algebra.subst_el(tau, p)


def q_forall(algebra, j, p):
    _check_signature(algebra, j=j)
    if not algebra.contains(p):
        raise SignatureError("element is not in the carrier")
    return algebra.q_el(frozenset(j), p)


def dimension_set(algebra, p):
    """Delta p: the indices whose cylindrification moves the element."""
    return frozenset(i for i in algebra.index_set
                     if algebra.cyl_el(frozenset({i}), p) != p)


def minimal_support(algebra, p):
    """Smallest J with c_(I-J) p = p, by greedy descent.

    On index sets of at most four points the greedy answer is verified
    against the full subset scan; a mismatch would mean the two routes
    disagree and is raised loudly.
    """
    index = set(algebra.index_set)

    def supports(j):
        return algebra.cyl_el(frozenset(index - j), p) == p

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
        for size in range(len(index) + 1):
            found = None
            for combo in itertools.combinations(sorted(index), size):
                if supports(set(combo)):
                    found = frozenset(combo)
                    break
            if found is not None:
                if found != greedy and len(found) != len(greedy):
                    raise AssertionError(
                        f"greedy support {sorted(greedy)} disagrees with "
                        f"exhaustive {sorted(found)}")
                break
    return greedy


@dataclass(frozen=True)
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
    Closure is verified; a breach returns the witness operation.
    """
    alpha = frozenset(alpha)
    index = set(algebra.index_set)
    if not alpha <= index:
        raise SignatureError("alpha must be a subset of the index set")
    V = algebra.indexed()
    if flavor == "FiniteT":
        members = [a for a in V.carrier if V.dimension_set(a) <= alpha]
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


def term_substitution(algebra, tau, x):
    """Express s_tau by a chain of replacements through fresh indices.

    For tau with support u_0 < ... < u_{k-1} and images v_i = tau(u_i),
    picks the first k indices pi_i outside Delta x, the u's and the v's,
    then applies s[u_{k-1}|pi_{k-1}] ... s[u_0|pi_0] followed by
    s[pi_{k-1}|v_{k-1}] ... s[pi_0|v_0]. Raises when the index set has no
    room; the result must agree with the direct substitution, which the
    audit checks on functional algebras.
    """
    if not algebra.contains(x):
        raise SignatureError("element is not in the carrier")
    moved = sorted(i for i in tau.domain if tau.apply(i) != i)
    if not moved:
        return x
    images = [tau.apply(u) for u in moved]
    delta = dimension_set(algebra, x)
    banned = delta | set(moved) | set(images)
    fresh = [i for i in algebra.index_set if i not in banned]
    k = len(moved)
    if len(fresh) < k:
        raise InsufficientSpareIndices(
            f"need {k} spare indices outside {sorted(banned)}, "
            f"found {len(fresh)}")
    pis = fresh[:k]
    domain = tuple(sorted(algebra.index_set))

    def replacement(i, j):
        t = FinTransformation.replacement(domain, i, j)
        _check_signature(algebra, tau=t)
        return t

    out = x
    for u, pi in reversed(list(zip(moved, pis))):
        out = algebra.subst_el(replacement(u, pi), out)
    for pi, v in reversed(list(zip(pis, images))):
        out = algebra.subst_el(replacement(pi, v), out)
    return out


# -- the exhaustive auditor ------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    name: str
    holds: bool
    checked: int
    witness: tuple | None = None


@dataclass(frozen=True)
class PolyadicAuditReport:
    results: tuple

    @property
    def passed(self):
        return all(r.holds for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.holds]

    def by_name(self, name):
        return next(r for r in self.results if r.name == name)


def first_witness(pairs):
    """(checked, witness) over (lhs, rhs, witness) triples.

    Stops at the first triple whose sides differ and returns its witness;
    the witness is None when every side agrees.
    """
    checked = 0
    for lhs, rhs, witness in pairs:
        checked += 1
        if lhs != rhs:
            return checked, witness
    return checked, None


def audit_axioms(algebra):
    """Exhaustively verify every identity family over the whole carrier.

    Families: the five defining polyadic axioms, the six existential
    quantifier laws per scope, the nine substitution/cylinder interaction
    laws over single indices and replacements, and the five universal
    quantifier laws. All checks run over operation index tables; failures
    carry the witnessing tuple in element form.
    """
    V = algebra.indexed()
    els = V.carrier
    scopes = list(algebra.scopes)
    scope_set = set(scopes)
    maps = list(algebra.transformations)
    map_set = set(maps)
    index = list(algebra.index_set)
    results = []

    def _audit(name, pairs):
        # a witness comes as (head, *carrier indices); only the first
        # failing one is put in element form
        checked, witness = first_witness(pairs)
        if witness is not None:
            head, *ids = witness
            witness = head + tuple(V.elements[p] for p in ids)
        return IdentityResult(name, witness is None, checked, witness)

    # polyadic axioms 1..5
    identity = FinTransformation.identity(tuple(sorted(index)))
    if identity in map_set:
        s_id = V.subst[identity]
        results.append(_audit("polyadic-1-s-identity",
                              ((s_id[p], p, ((), p)) for p in els)))
    else:
        results.append(IdentityResult("polyadic-1-s-identity", True, 0))

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
                head = (sorted(j), sorted(j2))
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
            tag = sorted(j)
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
                head = (sigma, sorted(j))
                for p in els:
                    yield (op_j[s_s[p]], s_s[op_pre[p]], (head, p))

    results.append(_audit("polyadic-5-c-injective", injective_pairs(V.cyl)))

    # existential quantifier laws, per scope
    def exists_laws():
        for j in scopes:
            cj = V.cyl[j]
            tag = sorted(j)
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
            tag = sorted(j)
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
                head = ("Q2", sorted(j), sorted(j2))
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

    return PolyadicAuditReport(tuple(results))


def algebra_from_json(data):
    chain = Chain(data["chain"])
    index_set = tuple(data["index_set"]) if isinstance(data["index_set"], list) \
        else tuple(range(data["index_set"]))
    base = data["base"]
    # every element table needs one entry per assignment; checking the
    # count first keeps a huge ^I X from being built for a small file
    size = (len(base) if isinstance(base, list) else base) ** len(index_set)
    for table in data["carrier"] if "carrier" in data else data["generators"]:
        if len(table) != size:
            raise ValueError(
                f"element table has {len(table)} entries, expected {size}")
    base = tuple(base) if isinstance(base, list) else tuple(range(base))
    assignments = tuple(itertools.product(base, repeat=len(index_set)))

    def load_element(table):
        values = {}
        for key, text in table.items():
            stripped = key.strip().lstrip("(").rstrip(")")
            parts = tuple(s for s in stripped.split(",") if s != "")
            point = tuple(type(base[0])(s) for s in parts)
            values[point] = parse_value(text)
        return tuple(values[x] for x in assignments)

    if "carrier" in data:
        carrier = [load_element(t) for t in data["carrier"]]
        maps = tuple(
            FinTransformation.from_dict({int(k): v for k, v in t.items()},
                                        index_set)
            for t in data["transformations"])
        scopes = tuple(frozenset(j) for j in data["scopes"])
        gens = tuple(carrier[i] for i in data.get("generators", ()))
        return FunctionalSetAlgebra(index_set, base, chain, tuple(carrier),
                                    gens, maps, scopes)

    generators = [load_element(t) for t in data["generators"]]
    semigroup = data.get("semigroup", "full")
    if isinstance(semigroup, dict):
        domain = tuple(sorted(index_set))
        from .transform import parse_transformation
        gens = tuple(parse_transformation(g, domain)
                     for g in semigroup["generators"])
        semigroup = SemigroupSpec(gens, semigroup.get("cap", 1000))
    scopes = data.get("scopes", "powerset")
    return build_generated(index_set, base, chain, generators, semigroup,
                           scopes, cap=data.get("cap", 200))


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))
