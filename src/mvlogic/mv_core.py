"""Exact-arithmetic MV algebra kernel.

Finite chains, the standard algebra on the rational unit interval, explicit
table algebras, t-norms with their residua, filters, and chain quotients.
Every value is a `fractions.Fraction`; nothing here touches floating point.

Every finite algebra has an `IndexedMV` view (`algebra.indexed()`, built
on first use and cached): its operations as integer tables over carrier
indices. Filters and quotients run on these tables; elements appear only
in their arguments, their results and their error messages.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class CarrierError(ValueError):
    """A value fell outside an algebra's carrier."""


class MVAxiomError(ValueError):
    """A table algebra failed its construction-time axiom audit."""


class FilterError(ValueError):
    """A member set violates the filter laws."""


class ProperFilterRequired(ValueError):
    """The operation needs a filter that excludes 0."""


class NonMaximalFilter(ValueError):
    """Quotient by this filter is not a chain."""


class FilterNotFound(LookupError):
    """No maximal extension satisfies the constraint."""


def parse_value(text):
    """Read a rational from 'p/q' or integer form."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def format_value(value):
    return str(value)


class MVAlgebra:
    """Base class fixing the derived operations.

    Subclasses supply oplus, neg, the constants and the carrier test; strong
    conjunction, residuum and the weak lattice operations are always derived
    (a(*)b = ~(~a(+)~b), a->b = ~a(+)b, a rise b = (a->b)->b).
    """

    is_finite = False
    zero = ZERO
    one = ONE
    _indexed = None

    def oplus(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def odot(self, a, b):
        return self.neg(self.oplus(self.neg(a), self.neg(b)))

    def implies(self, a, b):
        return self.oplus(self.neg(a), b)

    def join(self, a, b):
        return self.implies(self.implies(a, b), b)

    def meet(self, a, b):
        return self.neg(self.join(self.neg(a), self.neg(b)))

    def le(self, a, b):
        return self.implies(a, b) == self.one

    def contains(self, value):
        raise NotImplementedError

    @property
    def carrier(self):
        raise CarrierError(f"{self!r} has no finite carrier")

    def check_args(self, args):
        for v in args:
            if not self.contains(v):
                raise CarrierError(f"{v!r} is not in the carrier of {self!r}")

    def indexed(self):
        """The IndexedMV of a finite algebra, built on first use."""
        if self._indexed is None:
            self._indexed = _tabulate(self)
        return self._indexed


def _tabulate(algebra):
    """The IndexedMV read off a finite algebra's own oplus and neg."""
    carrier = algebra.carrier
    at = {v: i for i, v in enumerate(carrier)}.__getitem__
    oplus = algebra.oplus
    return IndexedMV(carrier, algebra.zero, algebra.one,
                     [at(algebra.neg(a)) for a in carrier],
                     [[at(oplus(a, b)) for b in carrier] for a in carrier])


class _Unary(tuple):
    """Unary operation table over carrier indices; t(a) is t[a]."""

    __slots__ = ()
    __call__ = tuple.__getitem__


class _Binary(tuple):
    """Binary operation table over carrier indices; t(a, b) is t[a][b]."""

    __slots__ = ()

    def __call__(self, a, b):
        return self[a][b]


class IndexedMV:
    """A finite MV algebra as operation tables over carrier indices.

    Index i stands for elements[i], in the order of the algebra's carrier;
    index_of maps back. neg and oplus are given, odot and le are derived
    from them. The tables double as the finite-MV protocol over indices
    (neg(a), oplus(a, b), ...): a view is itself a finite MV algebra with
    carrier range(n), and it is its own view.
    """

    is_finite = True

    def __init__(self, elements, zero, one, neg, oplus):
        self.elements = tuple(elements)
        self.index_of = {p: i for i, p in enumerate(self.elements)}
        self.carrier = range(len(self.elements))
        self.zero = self.index_of[zero]
        self.one = self.index_of[one]
        self.neg = neg = _Unary(neg)
        self.oplus = oplus = _Binary(map(tuple, oplus))
        # odot[a][b] is neg[oplus[neg[a]][neg[b]]], le[a][b] is
        # odot[a][neg[b]] == zero
        self.odot = odot = _Binary(tuple([neg[row[x]] for x in neg])
                                   for row in map(oplus.__getitem__, neg))
        zero = self.zero
        self.le = _Binary(tuple([row[x] == zero for x in neg]) for row in odot)

    def implies(self, a, b):
        return self.oplus[self.neg[a]][b]

    def contains(self, a):
        return isinstance(a, int) and 0 <= a < len(self.elements)

    def check_args(self, args):
        for a in args:
            if not self.contains(a):
                raise CarrierError(f"{a!r} is not a carrier index")

    def indexed(self):
        return self


def _identity(x):
    return x


def _coding(algebra):
    """(V, enc, dec): the algebra's view, element -> index, index -> element.

    A view is its own view, so for a view both maps are the identity.
    """
    V = algebra.indexed()
    if V is algebra:
        return V, _identity, _identity
    return V, V.index_of.__getitem__, V.elements.__getitem__


def _level_sums(top):
    """(plus, times) on the levels 0..top of a finite chain, indexed by
    a + b: plus[a + b] is a (+) b = min(a + b, top) and times[a + b] is
    a (*) b = max(a + b - top, 0). Lists, whose bound __getitem__ is
    cheaper to map over than a tuple's."""
    sums = range(2 * top + 1)
    return [min(s, top) for s in sums], [max(s - top, 0) for s in sums]


class StandardRationals(MVAlgebra):
    """The standard algebra on [0,1] cap Q with Lukasiewicz operations."""

    def oplus(self, a, b):
        return min(a + b, ONE)

    def odot(self, a, b):
        return max(a + b - 1, ZERO)

    def neg(self, a):
        return ONE - a

    def implies(self, a, b):
        return min(ONE, ONE - a + b)

    def join(self, a, b):
        return max(a, b)

    def meet(self, a, b):
        return min(a, b)

    def le(self, a, b):
        return a <= b

    def contains(self, value):
        return isinstance(value, Fraction) and ZERO <= value <= ONE

    def __repr__(self):
        return "StandardRationals()"

    def __eq__(self, other):
        return isinstance(other, StandardRationals)

    def __hash__(self):
        return hash(StandardRationals)


STANDARD = StandardRationals()


class Chain(StandardRationals):
    """The n-element subchain {0, 1/(n-1), ..., 1} of the standard algebra."""

    is_finite = True
    # chains of one size have the same operations, so one view serves all
    # of them; a chain of each size builds its view once per process
    _views = {}

    def __init__(self, n):
        if n < 2:
            raise ValueError("a chain needs at least the two constants")
        self.n = n
        self._carrier = tuple(Fraction(i, n - 1) for i in range(n))

    @property
    def carrier(self):
        return self._carrier

    def indexed(self):
        """The IndexedMV of the chain, built from its integer levels.

        Level i stands for carrier[i]: neg maps i to top - i and oplus row
        i is min(i + j, top) (see _level_sums), so no rational arithmetic
        is done.
        """
        key = (type(self), self.n)
        view = Chain._views.get(key)
        if view is None:
            n = self.n
            plus, _ = _level_sums(n - 1)
            view = Chain._views[key] = IndexedMV(
                self._carrier, ZERO, ONE, range(n - 1, -1, -1),
                [plus[i:i + n] for i in range(n)])
        return view

    def contains(self, value):
        return (
            isinstance(value, Fraction)
            and ZERO <= value <= ONE
            and (value * (self.n - 1)).denominator == 1
        )

    def __repr__(self):
        return f"Chain({self.n})"

    def __eq__(self, other):
        return isinstance(other, Chain) and other.n == self.n

    def __hash__(self):
        return hash(("Chain", self.n))


class TableAlgebra(MVAlgebra):
    """A finite MV algebra given by explicit oplus and negation tables.

    Construction runs the full eight-group axiom audit unless audit=False;
    downstream code assumes every table algebra in circulation is genuine.
    """

    is_finite = True

    def __init__(self, carrier, oplus_table, neg_table, zero, one, audit=True):
        self._carrier = tuple(carrier)
        if len(set(self._carrier)) != len(self._carrier):
            raise ValueError("carrier labels must be distinct")
        self._index = {label: i for i, label in enumerate(self._carrier)}
        n = len(self._carrier)
        self._oplus = tuple(tuple(row) for row in oplus_table)
        self._neg = tuple(neg_table)
        if len(self._oplus) != n or any(len(r) != n for r in self._oplus):
            raise ValueError("oplus table must be n x n")
        if len(self._neg) != n:
            raise ValueError("neg table must have n entries")
        for row in self._oplus:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError("oplus table entry out of range")
        for v in self._neg:
            if not 0 <= v < n:
                raise ValueError("neg table entry out of range")
        self.zero = self._carrier[zero]
        self.one = self._carrier[one]
        if audit:
            report = check_mv_axioms(self)
            if not report.passed:
                bad = [r.axiom for r in report.results if not r.holds]
                raise MVAxiomError(f"table algebra violates axiom group(s) {bad}")

    @property
    def carrier(self):
        return self._carrier

    def contains(self, value):
        return value in self._index

    def oplus(self, a, b):
        return self._carrier[self._oplus[self._index[a]][self._index[b]]]

    def neg(self, a):
        return self._carrier[self._neg[self._index[a]]]

    def __repr__(self):
        return f"TableAlgebra(|carrier|={len(self._carrier)})"

    def to_json(self):
        return {
            "carrier": list(self._carrier),
            "oplus": [list(row) for row in self._oplus],
            "neg": list(self._neg),
            "zero": self._index[self.zero],
            "one": self._index[self.one],
        }

    @classmethod
    def from_json(cls, data, audit=True):
        return cls(
            data["carrier"],
            data["oplus"],
            data["neg"],
            data["zero"],
            data["one"],
            audit=audit,
        )


def to_table(algebra, audit=True):
    """Materialise any finite algebra as an explicit TableAlgebra."""
    V, _, dec = _coding(algebra)
    labels = [format_value(v) if isinstance(v, Fraction) else v
              for v in map(dec, V.carrier)]
    return TableAlgebra(labels, V.oplus, V.neg, V.zero, V.one, audit=audit)


_OP_ALIASES = {
    "(+)": "oplus",
    "(*)": "odot",
    "~": "neg",
    "->": "implies",
    "weak-and": "meet",
    "weak-or": "join",
    "and": "meet",
    "or": "join",
}

_OP_ARITY = {"oplus": 2, "odot": 2, "neg": 1, "implies": 2, "meet": 2, "join": 2}


def eval_basic(op, args, algebra):
    """Apply one of the six connectives to carrier values."""
    name = _OP_ALIASES.get(op, op)
    if name not in _OP_ARITY:
        raise ValueError(f"unknown connective {op!r}")
    if len(args) != _OP_ARITY[name]:
        raise ValueError(f"{name} takes {_OP_ARITY[name]} argument(s)")
    algebra.check_args(args)
    return getattr(algebra, name)(*args)


def residuum_by_maximization(x, y, algebra):
    """max{z in carrier : x(*)z <= y}, found by exhaustive scan.

    The scan is the independent route to the residuum; it must agree with
    the derived -> on every finite chain, which the test suite pins down.
    """
    if not algebra.is_finite:
        raise ValueError("maximization scan needs a finite algebra")
    algebra.check_args((x, y))
    candidates = [z for z in algebra.carrier if algebra.le(algebra.odot(x, z), y)]
    best = candidates[0]
    for z in candidates[1:]:
        if algebra.le(best, z):
            best = z
    for z in candidates:
        if not algebra.le(z, best):
            raise ArithmeticError("candidate set has no maximum; not an MV algebra?")
    return best


def tnorm_eval(kind, x, y):
    """Evaluate one of the three named continuous t-norms exactly."""
    for v in (x, y):
        if not ZERO <= v <= ONE:
            raise CarrierError(f"{v!r} is outside [0,1]")
    k = kind.lower()
    if k == "lukasiewicz":
        return max(ZERO, x + y - 1)
    if k in ("goedel", "godel"):
        return min(x, y)
    if k == "product":
        return x * y
    raise ValueError(f"unknown t-norm {kind!r}")


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    holds: bool
    witness: tuple | None


@dataclass(frozen=True)
class MVAuditReport:
    algebra: str
    mode: str
    results: tuple

    @property
    def passed(self):
        return all(r.holds for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.holds]


def _axiom_groups():
    # (name, arity, law): the law reads only its first `arity` arguments.
    # Group 4 is implemented as a(*)0 = 0: the printed second identity of
    # the source's fourth pair is falsified by the standard algebra itself.
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


def random_unit_fraction(rng, max_denominator=97):
    """Seeded fraction in [0,1] with bounded denominator; auto-reduced."""
    q = rng.randint(1, max_denominator)
    p = rng.randint(0, q)
    return Fraction(p, q)


def check_mv_axioms(algebra, mode="exhaustive", count=100000, seed=0,
                    max_denominator=97):
    """Audit the eight axiom groups; failures carry a witness triple.

    Exhaustive mode (finite algebras only) walks, for each group, the
    carrier tuples of the variables the group reads, padded to a triple
    with the first carrier element; its witness is the first failing
    triple in the order of a walk over all carrier triples. Sampled mode
    draws seeded rational triples. For the standard algebra the sampled
    audit rescales each triple onto a common denominator and checks the
    identities in integer arithmetic, which is the same exact computation
    an order of magnitude faster.
    """
    groups = _axiom_groups()
    witnesses = [None] * len(groups)
    if mode == "exhaustive":
        if not algebra.is_finite:
            raise ValueError("exhaustive audit needs a finite algebra")
        desc = "exhaustive"
        carrier = algebra.carrier
        for i, (_, arity, law) in enumerate(groups):
            pad = (carrier[0],) * (3 - arity)
            for head in itertools.product(carrier, repeat=arity):
                triple = head + pad
                if not law(algebra, *triple):
                    witnesses[i] = triple
                    break
    elif mode == "sampled":
        desc = f"sampled({count}, seed={seed})"
        if type(algebra) is StandardRationals:
            return _sampled_standard_audit(count, seed, max_denominator, desc)
        rng = random.Random(seed)
        pending = set(range(len(groups)))
        for _ in range(count):
            if not pending:
                break
            triple = (random_unit_fraction(rng, max_denominator),
                      random_unit_fraction(rng, max_denominator),
                      random_unit_fraction(rng, max_denominator))
            for i in list(pending):
                if not groups[i][2](algebra, *triple):
                    witnesses[i] = triple
                    pending.discard(i)
    else:
        raise ValueError(f"unknown audit mode {mode!r}")
    results = tuple(
        AxiomResult(name, witnesses[i] is None, witnesses[i])
        for i, (name, _, _) in enumerate(groups)
    )
    return MVAuditReport(repr(algebra), desc, results)


def _sampled_standard_audit(count, seed, max_denominator, desc):
    """Integer-form audit of random rational triples in [0,1].

    A triple with common denominator d lives in the (d+1)-point subchain,
    where x(+)-y is min(x+y, d), x(*)y is max(x+y-d, 0) and ~x is d-x on
    numerators; the eight identities are decided there exactly.
    """
    import math

    rng = random.Random(seed)
    names = [name for name, _, _ in _axiom_groups()]
    witnesses = [None] * len(names)
    pending = set(range(len(names)))

    def draw():
        q = rng.randint(1, max_denominator)
        p = rng.randint(0, q)
        g = math.gcd(p, q)
        return p // g, q // g

    for _ in range(count):
        if not pending:
            break
        (pa, qa), (pb, qb), (pc, qc) = draw(), draw(), draw()
        d = qa * qb // math.gcd(qa, qb)
        d = d * qc // math.gcd(d, qc)
        x, y, z = pa * (d // qa), pb * (d // qb), pc * (d // qc)

        def op(u, v):
            return min(u + v, d)

        def od(u, v):
            return max(u + v - d, 0)

        checks = (
            op(x, y) == op(y, x) and od(x, y) == od(y, x),
            op(x, op(y, z)) == op(op(x, y), z)
            and od(x, od(y, z)) == od(od(x, y), z),
            op(x, 0) == x and od(x, d) == x,
            op(x, d) == d and od(x, 0) == 0,
            op(x, d - x) == d and od(x, d - x) == 0,
            d - op(x, y) == od(d - x, d - y)
            and d - od(x, y) == op(d - x, d - y),
            d - (d - x) == x and d - 0 == d,
            op(d - op(d - x, y), y) == op(d - op(d - y, x), x),
        )
        for i in list(pending):
            if not checks[i]:
                witnesses[i] = (Fraction(x, d), Fraction(y, d),
                                Fraction(z, d))
                pending.discard(i)
    results = tuple(
        AxiomResult(name, witnesses[i] is None, witnesses[i])
        for i, name in enumerate(names)
    )
    return MVAuditReport("StandardRationals()", desc, results)


@dataclass(frozen=True)
class Filter:
    """Upward-closed, (*)-closed subset of a finite algebra's carrier.

    The laws are checked on the algebra's indexed view, pairs in carrier
    order; members stay in element form.
    """

    algebra: object
    members: frozenset

    def __post_init__(self):
        A = self.algebra
        if not A.is_finite:
            raise FilterError("filters live in finite algebras here")
        m = self.members
        if A.one not in m:
            raise FilterError("1 must belong to every filter")
        for a in m:
            if not A.contains(a):
                raise FilterError(f"{a!r} is not a carrier element")
        V, enc, dec = _coding(A)
        ids = sorted(map(enc, m))
        inside = set(ids)
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

    @property
    def is_proper(self):
        return self.algebra.zero not in self.members

    def __contains__(self, x):
        return x in self.members


def _up_set(algebra, V, dec, e):
    """The principal filter of view index e, members in element form."""
    row = V.le[e]
    return Filter(algebra, frozenset(dec(y) for y in V.carrier if row[y]))


def _generator(V, ids):
    """The (*)-product of the given view indices; 1 for none."""
    gen = V.one
    for a in ids:
        gen = V.odot[gen][a]
    return gen


def filter_generate(algebra, elements):
    """Smallest filter containing the given set; empty product is 1."""
    elements = tuple(elements)
    algebra.check_args(elements)
    V, enc, dec = _coding(algebra)
    odot, le = V.odot, V.le
    products = {V.one, *map(enc, elements)}
    frontier = set(products)
    while frontier:
        frontier = {odot[a][b] for a in products for b in frontier} - products
        products |= frontier
    members = frozenset(
        dec(y) for y in V.carrier if any(le[p][y] for p in products))
    return Filter(algebra, members)


def _skeleton_atoms(V):
    """Minimal nonzero idempotents of a view, as indices in carrier order.

    Every filter of a finite MV algebra is the up-set of an idempotent, so
    the maximal proper filters are exactly the up-sets of these atoms.
    """
    idems = [e for e in V.carrier if V.odot[e][e] == e and e != V.zero]
    return [e for e in idems
            if not any(f != e and V.le[f][e] for f in idems)]


def principal_filter(algebra, e):
    algebra.check_args((e,))
    V, enc, dec = _coding(algebra)
    return _up_set(algebra, V, dec, enc(e))


def filter_generator(flt):
    """The least element of a (finite-algebra) filter; always idempotent."""
    V, enc, dec = _coding(flt.algebra)
    return dec(_generator(V, map(enc, flt.members)))


def maximal_filters(algebra):
    """All maximal proper filters, in carrier order of their atoms."""
    V, _, dec = _coding(algebra)
    return [_up_set(algebra, V, dec, e) for e in _skeleton_atoms(V)]


def extend_to_maximal(algebra, flt, constraint=None):
    """First maximal proper filter extending flt that meets the constraint."""
    if not flt.is_proper:
        raise ProperFilterRequired("cannot extend the improper filter")
    V, enc, dec = _coding(algebra)
    base = _generator(V, map(enc, flt.members))
    for e in _skeleton_atoms(V):
        if V.le[e][base]:
            candidate = _up_set(algebra, V, dec, e)
            if constraint is None or constraint(candidate):
                return candidate
    raise FilterNotFound("no maximal extension satisfies the constraint")


def quotient_ranks(flt):
    """Quotient by a maximal filter as integer ranks: (chain, ranks).

    ranks[i] is the level in the chain of the class of index i of the
    filter's algebra's view. The congruence is a ~ b iff (a->b)(*)(b->a)
    is in F. The class order must be total and the ranks a homomorphism
    onto the chain's levels; any breach means the filter was not maximal.
    """
    if not flt.is_proper:
        raise ProperFilterRequired("quotient by the improper filter is degenerate")
    V, enc, dec = _coding(flt.algebra)
    members = set(map(enc, flt.members))
    neg, oplus, odot = V.neg, V.oplus, V.odot

    def within(a, b):
        # a -> b in F: the class of a lies below the class of b
        return oplus[neg[a]][b] in members

    reps = []
    class_of = []
    for a in V.carrier:
        for k, r in enumerate(reps):
            if odot[oplus[neg[a]][r]][oplus[neg[r]][a]] in members:
                class_of.append(k)
                break
        else:
            class_of.append(len(reps))
            reps.append(a)

    for r, s in itertools.combinations(reps, 2):
        if not (within(r, s) or within(s, r)):
            raise NonMaximalFilter(
                f"classes of {dec(r)!r} and {dec(s)!r} are incomparable; "
                "quotient is no chain")

    # the classes form a chain, so a class with rank r has r classes below
    # it and itself at or below it
    rank = [sum(1 for s in reps if within(s, r)) - 1 for r in reps]
    ranks = tuple(rank[k] for k in class_of)
    top = len(reps) - 1

    for a in V.carrier:
        ra = ranks[a]
        if ranks[neg[a]] != top - ra:
            raise NonMaximalFilter(f"projection breaks ~ at {dec(a)!r}")
        row_p, row_d = oplus[a], odot[a]
        for b in V.carrier:
            rb = ranks[b]
            if ranks[row_p[b]] != min(ra + rb, top):
                raise NonMaximalFilter(
                    f"projection breaks (+) at ({dec(a)!r},{dec(b)!r})")
            if ranks[row_d[b]] != max(ra + rb - top, 0):
                raise NonMaximalFilter(
                    f"projection breaks (*) at ({dec(a)!r},{dec(b)!r})")
    if ranks[V.zero] != 0 or ranks[V.one] != top:
        raise NonMaximalFilter("projection moves a constant")
    return Chain(len(reps)), ranks


def quotient(algebra, flt):
    """Quotient by a maximal filter: a chain plus the projection map.

    The projection sends each element of the filter's algebra to its
    class in the chain (see quotient_ranks).
    """
    chain, ranks = quotient_ranks(flt)
    _, _, dec = _coding(flt.algebra)
    return chain, {dec(i): chain.carrier[r] for i, r in enumerate(ranks)}
