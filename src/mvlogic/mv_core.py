"""Exact-arithmetic MV algebra kernel.

Finite chains, the standard algebra on the rational unit interval, explicit
table algebras, t-norms with their residua, filters, and chain quotients.
Elements are exact, built from `fractions.Fraction` values; nothing here
touches floating point. The values the engine hands out (a chain's
carrier, `ZERO`, `ONE`, `parse_value`'s and, in polyadic, the entries of
the elements of `build_generated`) are `Value`: a Fraction that computes
its hash once, and otherwise behaves as the Fraction of its value.

Every finite algebra has one `IndexedMV` view (`algebra.indexed()`): its
operations as integer tables over carrier indices, a table algebra's own
tables. A view holds tables only. Filters belong to the algebra: a
`Filter` names its algebra. What a query answers from an object alone is
computed once and kept on that object for its lifetime (`kept`): an
algebra keeps its maximal filters (`maximal_filters`), and each maximal
filter its quotient ranks (`quotient_ranks`). A kept value is a record
or a tuple; an error is raised on every call and never kept. Filters,
quotients and the axiom audit compute on the view's tables; elements
appear only in their arguments, results and error messages.

Every exhaustive check of the package computes on rows of chain levels or
carrier indices through the row primitives here: `_row_type`, `_read`,
`_add`, `_concat`, `_interleave` and the chain's `_level_tables`. A row
is read once per distinct value it stands for: the (+) and (*) clauses
of `homomorphism_clauses` read psi_x(p) . psi_x(q) over q once per level
psi_x(p).

Every audit of the package reports here: `first_witness` finds the first
failing instance of blocks of identities, compared a row at a time, and an
`AuditReport` holds an audit's results in checking order. `_AXIOMS`
declares the eight MV axiom groups once, as laws over rows of values;
`homomorphism_clauses` checks a map into a chain given by its columns;
`escape_blocks` checks that tables keep a set inside: the filter laws
and `polyadic.neat_reduct`'s closure. Loaders read JSON through
`json_field`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from array import array
from fractions import Fraction
from operator import add, attrgetter, floordiv, getitem, itemgetter, mul


def record(cls):
    """The class decorator of the package's frozen result and node types.

    It gives them what dataclass(frozen=True) would, at a fraction of the
    import cost and without loading `dataclasses` or `inspect`:

    - the fields are the names annotated in the class body, after the
      fields of a record base, in order; `__record_fields__` holds them.
      A class attribute of a field's name is its default, and construction
      takes the fields by position or by name (a missing or an unknown
      argument is a TypeError);
    - `__init__` sets the fields, then calls `self.__post_init__()` if the
      class has one, looked up on each call, so a wrapper put on the class
      later runs;
    - `==` holds between instances of the same class whose field tuples
      are equal, and the hash is `hash` of the field tuple;
    - the repr reads `Name(field=value!r, ...)`, unless the class body
      has its own `__repr__`;
    - setting or deleting any attribute raises AttributeError, so a
      record's own code keeps derived values through object.__setattr__.

    Only `__init__` is compiled, one line a class.
    """
    own = vars(cls)
    fields = tuple(dict.fromkeys((*getattr(cls, "__record_fields__", ()),
                                  *own.get("__annotations__", ()))))
    defaults = [getattr(cls, f) for f in fields if hasattr(cls, f)]
    first = len(fields) - len(defaults)
    params = [*fields[:first],
              *(f"{f}=_defaults[{k}]" for k, f in enumerate(fields[first:]))]
    body = [f"_set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__({', '.join(['self', *params])}): "
         f"{'; '.join(body) or 'pass'}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    if len(fields) == 1:
        value = attrgetter(*fields)
        key = lambda self: (value(self),)  # noqa: E731
    else:
        key = attrgetter(*fields) if fields else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    cls.__record_fields__, cls.__init__ = fields, init
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))
    if "__repr__" not in own:
        cls.__repr__ = _record_repr
    return cls


def _record_repr(self):
    fields = ", ".join(f"{f}={getattr(self, f)!r}"
                       for f in self.__record_fields__)
    return f"{type(self).__qualname__}({fields})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} "
                         f"field {name!r} of a record")


class Value(Fraction):
    """The value type of the engine: a Fraction whose hash is computed on
    first use and kept. Fraction.__hash__ is Python code (1.35 us a call,
    Python 3.11), and the filters, quotients and views hash a value many
    times as an entry of an element tuple. It equals, orders, prints,
    pickles and copies as the Fraction of the same value, repr included;
    arithmetic on it returns a plain Fraction."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = Fraction.__hash__(self)
            return self._hash

    def __repr__(self):
        return f"Fraction({self.numerator}, {self.denominator})"


ZERO = Value(0)
ONE = Value(1)


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


class ViewTooLarge(ValueError):
    """A chain is too long for its tables: its n x n indexed view or its
    level tables."""


class AuditTooLarge(ValueError):
    """A carrier is too large for the exhaustive axiom audit."""


# The longest chain that gets an indexed view. The view holds three n x n
# tables (oplus, odot, le) for the life of its chain: about 3 bytes per
# pair (a, b) in all up to 256 elements, where rows are bytes, and about 30
# past that, where they are tuples (max RSS grows by 42 MB at n = 1200 and
# by 67 MB at the cap, Python 3.11); n = 10^5 would need some 300 GB.
MAX_CHAIN_VIEW = 1500

# The longest chain that gets level tables: 0.12 s at the cap (Python 3.11).
MAX_CHAIN_LEVELS = 10 ** 6

# The most entries that the list tables of chains past 128 values hold
# together between calls: those of one chain at MAX_CHAIN_LEVELS (about
# 70 MB, Python 3.11), so that every chain is kept for its next call but
# a run of long chains does not pile up. Byte tables (768 bytes a chain)
# are all kept and not counted.
MAX_LEVEL_ENTRIES = 5 * MAX_CHAIN_LEVELS

# The largest carrier the exhaustive check_mv_axioms audits. Associativity
# reads n^3 triples as table rows, 10^6 at the cap: Chain(100) takes about
# 0.9 s (Python 3.11), and a larger carrier exits 2 rather than getting a
# verdict. The largest carrier audited by the tests, the golden corpus or
# the benchmark is the 81-element table (about 0.4 s) of
# AbstractPolyadicAlgebra.from_functional(small_algebra()).
MAX_AUDIT_CARRIER = 100

# The most entries of a truth table held as one list: the valuations of
# an interpolant search's formula and the |X|^|I| assignments of a
# functional polyadic algebra. It is the default model cap of entails.
MAX_VALUATIONS = 500_000

# The largest denominator of a coordinate of a sampled audit's triples,
# and the number of triples it draws and checks at a time.
SAMPLE_DENOMINATOR = 97
SAMPLE_CHUNK = 4096

# The most entries homomorphism_clauses reads as one block of rows: whole
# p-rows of a view's (+) or (*) table, times the distinct columns. 2^16
# makes a carrier of up to 256 elements one block per operation.
BLOCK_ENTRIES = 1 << 16


def parse_value(text):
    """Read a rational from 'p/q' or integer form."""
    try:
        return Value(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def is_json_int(value):
    """Whether a JSON value is an integer; true and false are not."""
    return type(value) is int


def _json_type(kind):
    return lambda value: isinstance(value, kind)


# The other shape predicates of json_field, declared once: a string, an
# object and a list
is_json_str, is_json_object, is_json_list = map(_json_type, (str, dict, list))


def json_list_of(valid):
    """The shape predicate of a list whose every entry `valid` accepts."""
    return lambda value: isinstance(value, list) and all(map(valid, value))


def json_index_into(items):
    """The shape predicate of an integer index into the sequence items."""
    return lambda value: is_json_int(value) and 0 <= value < len(items)


def json_field(data, key, valid, expected, default=...):
    """data[key] of a JSON object, if the shape predicate `valid` accepts it.

    Every loader reads every key of its input through here, so an input
    error is a ValueError naming the key: data is no object, the key is
    missing and has no `default`, or `valid` rejects the entry, which must
    be `expected`.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with {key!r}, got {data!r}")
    if key not in data:
        if default is ...:
            raise ValueError(f"{key!r} is missing")
        return default
    value = data[key]
    if not valid(value):
        raise ValueError(f"{key!r} must be {expected}, got {value!r}")
    return value


def format_value(value):
    return str(value)


def format_point(point):
    """The JSON key of a point of a table or an element: (0,1)."""
    return "(" + ",".join(map(str, point)) + ")"


def parse_point(key):
    """The point of a key in format_point's form, entries integers. Spaces
    around the key and its entries are allowed."""
    stripped = key.strip().lstrip("(").rstrip(")")
    return tuple(int(s) for s in stripped.split(",") if s != "")


class MVAlgebra:
    """Base class fixing the derived operations.

    Subclasses supply oplus, neg, the constants and the carrier test; strong
    conjunction, residuum and the weak lattice operations are always derived
    (a(*)b = ~(~a(+)~b), a->b = ~a(+)b, a rise b = (a->b)->b).
    """

    is_finite = False
    zero = ZERO
    one = ONE

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
                raise CarrierError(
                    f"{format_value(v)} is not in the carrier of {self!r}")

    def indexed(self):
        """The view a finite subclass keeps; the standard algebra has none."""
        raise CarrierError(f"{self!r} has no finite carrier")


class derived:
    """A method computed on first read, then kept as a plain attribute of
    the same name through setattr: functools.cached_property writes the
    instance's __dict__, which on CPython 3.11 slows every later
    attribute read of the instance (a view's implies by a half)."""

    def __init__(self, build):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.build(obj)
        setattr(obj, self.name, value)
        return value


def kept(owner, key, build):
    """build() once per owner object and key, then the same value for the
    owner's lifetime: kept in the owner's `_kept` dict, set through
    object.__setattr__ so that records keep values too. An exception of
    build is raised and nothing is kept, so a failing query fails again
    on every call. Callers keep records and tuples, not lists or dicts
    that one caller could change under another."""
    store = getattr(owner, "_kept", None)
    if store is None:
        store = {}
        object.__setattr__(owner, "_kept", store)
    try:
        return store[key]
    except KeyError:
        value = store[key] = build()
        return value


class IndexedMV:
    """A finite MV algebra as operation tables over carrier indices.

    Index i stands for elements[i], in the order of the algebra's carrier;
    index_of maps back. Tables are read as neg[a] and oplus[a][b], each
    row of type row = _row_type(n - 1): bytes up to 256 elements, tuples
    past that. neg and oplus are given; odot and le are derived on first
    read, two _reads a row, so a query that reads neither never builds
    them. A view holds tables only: the filters and quotients below take
    the algebra, which owns them (see maximal_filters).
    """

    def __init__(self, elements, zero, one, neg, oplus):
        self.elements = tuple(elements)
        self.index_of = {p: i for i, p in enumerate(self.elements)}
        self.carrier = range(len(self.elements))
        self.row = row = _row_type(len(self.elements) - 1)
        self.zero = self.index_of[zero]
        self.one = self.index_of[one]
        self.neg = row(neg)
        self.oplus = tuple(map(row, oplus))

    @derived
    def odot(self):
        """odot[a][b] is neg[oplus[neg[a]][neg[b]]]."""
        neg, oplus = self.neg, self.oplus
        return tuple(_read(neg, _read(oplus[x], neg)) for x in neg)

    @derived
    def le(self):
        """le[a][b] is 1 if odot[a][neg[b]] == zero, else 0."""
        is_zero = self.row(x == self.zero for x in self.carrier)
        return tuple(_read(is_zero, _read(r, self.neg)) for r in self.odot)

    def implies(self, a, b):
        return self.oplus[self.neg[a]][b]


def _coding(algebra):
    """(V, enc, dec): the algebra's view, element -> index, index -> element."""
    V = algebra.indexed()
    return V, V.index_of.__getitem__, V.elements.__getitem__


def _row_type(most):
    """The type of rows whose entries are at most `most`: bytes if
    most <= 255, so that a table read is one bytes.translate, a sum of
    two rows one big-int add and a compare one memcmp, else tuple; either
    can key a dict. Rows that add two levels of Chain(top + 1) take
    _row_type(2 * top): bytes for chains of up to 128 values."""
    return bytes if most <= 255 else tuple


_LEVEL_TABLES = {}  # top -> _level_tables(top), in the order built


def _level_tables(top):
    """(~, (+), (*)) on the levels 0..top of a finite chain, in the form
    _read takes for rows of _row_type(2 * top): ~ at a level, and (+) and
    (*) at the sum a + b of two levels, min(a + b, top) and
    max(a + b - top, 0); byte strings padded to 256 bytes, which _read
    takes without a copy, or lists, whose entries share one int per level.
    A chain of more than MAX_CHAIN_LEVELS values raises ViewTooLarge
    before any table is built.

    The tables are kept for later calls: all byte tables, and list tables
    up to MAX_LEVEL_ENTRIES entries in all, the oldest built leaving
    first."""
    tables = _LEVEL_TABLES.get(top)
    if tables is None:
        if top >= MAX_CHAIN_LEVELS:
            raise ViewTooLarge(f"Chain({top + 1}) exceeds the level-table "
                               f"cap of {MAX_CHAIN_LEVELS} values")
        levels = list(range(top + 1))
        tables = (levels[::-1], levels[:top] + [top] * (top + 1),
                  [0] * top + levels)
        if _row_type(2 * top) is bytes:
            tables = tuple(bytes(t).ljust(256, b"\0") for t in tables)
        _LEVEL_TABLES[top] = tables
        # the list tables of t hold 5 t + 3 entries
        lists = [t for t in _LEVEL_TABLES if _row_type(2 * t) is not bytes]
        while sum(5 * t + 3 for t in lists) > MAX_LEVEL_ENTRIES:
            del _LEVEL_TABLES[lists.pop(0)]
    return tables


def _read(table, at):
    """The row of table's entries at the entries of the row at: for byte
    rows one translate, through the table padded to 256 bytes, else one
    itemgetter call (3 times as fast as map over a tuple's __getitem__)."""
    if isinstance(at, bytes):
        return at.translate(table.ljust(256, b"\0"))
    if len(at) > 1:  # itemgetter of one entry returns it bare
        return itemgetter(*at)(table)
    return tuple([table[x] for x in at])


def _add(a, b):
    """The entrywise sums of two rows of one length: for byte rows one
    big-int add, which cannot carry while no sum passes 255."""
    if isinstance(a, bytes):
        return (int.from_bytes(a, "little")
                + int.from_bytes(b, "little")).to_bytes(len(a), "little")
    return tuple(map(add, a, b))


def _concat(parts, row_type):
    """The row of a type that concatenates the pieces `parts`."""
    if row_type is bytes:
        return b"".join(parts)
    return tuple(itertools.chain.from_iterable(parts))


def _interleave(rows):
    """The rows' entries position by position, as one row: byte strings
    into one, filled a row at a time by extended-slice assignment, any
    other rows into a tuple; one byte string is returned as it is."""
    if len(rows) == 1:
        return rows[0] if isinstance(rows[0], bytes) else tuple(rows[0])
    if isinstance(rows[0], bytes):
        k = len(rows)
        out = bytearray(k * len(rows[0]))
        for i, row in enumerate(rows):
            out[i::k] = row
        return bytes(out)
    return tuple(itertools.chain.from_iterable(zip(*rows)))


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

    def __init__(self, n):
        if n < 2:
            raise ValueError("a chain needs at least the two constants")
        self.n = n
        self._carrier = self._indexed = None

    @property
    def carrier(self):
        """The n values, built on first read, so that a cap that looks
        only at n refuses a huge chain before they are allocated; the two
        ends are ZERO and ONE themselves."""
        if self._carrier is None:
            n = self.n
            self._carrier = (ZERO, *(Value(i, n - 1) for i in range(1, n - 1)),
                             ONE)
        return self._carrier

    def indexed(self):
        """The IndexedMV of the chain, built from its integer levels.

        Level i stands for carrier[i]: neg maps i to top - i and oplus row
        i is min(i + j, top), both sliced from _level_tables, so no
        rational arithmetic is done. A chain longer than MAX_CHAIN_VIEW
        raises ViewTooLarge before any table is built.
        """
        if self._indexed is None:
            n = self.n
            if n > MAX_CHAIN_VIEW:
                raise ViewTooLarge(
                    f"Chain({n}) exceeds the indexed-view cap of "
                    f"{MAX_CHAIN_VIEW} elements")
            neg, plus, _ = _level_tables(n - 1)
            self._indexed = IndexedMV(self.carrier, ZERO, ONE, neg[:n],
                                      [plus[i:i + n] for i in range(n)])
        return self._indexed

    def contains(self, value):
        # integer arithmetic: a Fraction's denominator is positive
        return (
            isinstance(value, Fraction)
            and 0 <= value.numerator <= value.denominator
            and value.numerator * (self.n - 1) % value.denominator == 0
        )

    def __repr__(self):
        return f"Chain({self.n})"

    def __eq__(self, other):
        return isinstance(other, Chain) and other.n == self.n

    def __hash__(self):
        return hash(("Chain", self.n))


class TableAlgebra(MVAlgebra):
    """A finite MV algebra given by explicit oplus and negation tables.

    The validated tables are its one view, which everything else reads.
    Construction runs the full eight-group axiom audit unless audit=False;
    downstream code assumes every table algebra in circulation is genuine.
    """

    is_finite = True

    def __init__(self, carrier, oplus_table, neg_table, zero, one, audit=True):
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise ValueError("carrier labels must be distinct")
        # a report writes a label, and a command word names one, as its
        # str(): two labels written alike could not be told apart
        if len(set(map(str, carrier))) != len(carrier):
            raise ValueError("carrier labels must be written distinctly")
        n = len(carrier)
        oplus = tuple(map(tuple, oplus_table))
        neg = tuple(neg_table)
        if len(oplus) != n or any(len(r) != n for r in oplus):
            raise ValueError("oplus table must be n x n")
        if len(neg) != n:
            raise ValueError("neg table must have n entries")
        if not all(0 <= v < n for row in oplus for v in row):
            raise ValueError("oplus table entry out of range")
        if not all(0 <= v < n for v in neg):
            raise ValueError("neg table entry out of range")
        self.zero, self.one = carrier[zero], carrier[one]
        self._indexed = IndexedMV(carrier, self.zero, self.one, neg, oplus)
        if audit:
            bad = [r.axiom for r in check_mv_axioms(self).failures()]
            if bad:
                raise MVAxiomError(f"table algebra violates axiom group(s) {bad}")

    @property
    def carrier(self):
        return self._indexed.elements

    def indexed(self):
        return self._indexed

    def contains(self, value):
        return value in self._indexed.index_of

    def oplus(self, a, b):
        V = self._indexed
        return V.elements[V.oplus[V.index_of[a]][V.index_of[b]]]

    def neg(self, a):
        V = self._indexed
        return V.elements[V.neg[V.index_of[a]]]

    def __repr__(self):
        return f"TableAlgebra(|carrier|={len(self.carrier)})"

    def to_json(self):
        V = self._indexed
        return {"carrier": list(V.elements),
                "oplus": [list(row) for row in V.oplus],
                "neg": list(V.neg), "zero": V.zero, "one": V.one}

    @classmethod
    def from_json(cls, data, audit=True):
        carrier = json_field(data, "carrier", json_list_of(
            lambda v: isinstance(v, (str, int))), "a list of labels")
        return cls(carrier, json_field(data, "oplus", json_list_of(
                       json_list_of(is_json_int)), "a list of rows"),
                   json_field(data, "neg", json_list_of(is_json_int),
                              "a list of integers"),
                   *(json_field(data, key, json_index_into(carrier),
                                "a carrier index") for key in ("zero", "one")),
                   audit=audit)


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


# -- audit verdicts ---------------------------------------------------------


def first_witness(blocks):
    """(checked, witness) over blocks of identity instances.

    A block is (lhs, rhs, witnesses): lhs and rhs are equal-length
    sequences of one type holding the two sides of len(lhs) instances in
    checking order, and witnesses yields the witness of each instance in
    the same order. The rows of a block are compared whole, and a block
    whose rows are equal counts len(lhs) checks, or count checks if it
    has a fourth entry count: equal rows that stand for count instances.
    Only the first block whose rows differ is rescanned, element by
    element, up to its first instance whose sides differ; that instance's
    witness is returned with the count of instances checked up to and
    including it. The witness is None when every block agrees. witnesses
    is read before the next block is drawn, so it may refer to the state
    of the code yielding blocks.
    """
    checked = 0
    for lhs, rhs, witnesses, *count in blocks:
        if lhs == rhs:
            checked += count[0] if count else len(lhs)
            continue
        for left, right, witness in zip(lhs, rhs, witnesses):
            checked += 1
            if left != right:
                return checked, witness
        raise AssertionError("block rows differ but no instance does")
    return checked, None


def _instance(lhs, rhs, witness):
    """The block of a single instance."""
    return (lhs,), (rhs,), (witness,)


def escape_blocks(V, ids, unary, binary):
    """The blocks (see first_witness) of whether the (label, table) pairs
    unary and binary (one at least) of the view V keep its sorted indices
    ids, a list, inside, their results read through the mask of ids
    against 1s: for each a, every unary table at a, then for each b every
    binary table at (a, b), whose row a is read once. A block holds a run
    of whole a's, BLOCK_ENTRIES results at most (one a at least), so a
    large set is never read at once. Witnesses: (label, a) and
    (label, a, b)."""
    row = V.row
    at, mask = row(ids), row(map(set(ids).__contains__, V.carrier))
    step = max(1, BLOCK_ENTRIES // max(1, len(unary)
                                       + len(binary) * len(ids)))
    for i in range(0, len(ids), step):
        run = ids[i:i + step]
        results = _read(mask, _concat([
            row([table[a] for _, table in unary])
            + _interleave([_read(table[a], at) for _, table in binary])
            for a in run], row))
        yield results, row((1,)) * len(results), (
            w for a in run for w in itertools.chain(
                ((label, a) for label, _ in unary),
                ((label, a, b) for b in ids for label, _ in binary)))


@record
class AxiomResult:
    axiom: str
    holds: bool
    witness: tuple | None


@record
class ClauseResult:
    clause: str
    holds: bool
    witness: tuple | None = None


def clause_result(name, blocks):
    """The clause over blocks of instances (see first_witness), failing at
    the first instance whose sides differ. A "{checked}" in the name is
    replaced by the count of instances checked."""
    checked, witness = first_witness(blocks)
    return ClauseResult(name.format(checked=checked), witness is None,
                        witness)


def _transpose(columns, n):
    """The n rows of the columns (n empty rows when there is no column)."""
    return list(zip(*columns)) if columns else [()] * n


def column_block(lhs, rhs, witnesses, count):
    """The block (see first_witness) of count instances whose sides are
    lists of columns, entry i of every column making instance i: compared
    whole, and only when they differ transposed into one row per
    instance."""
    if lhs == rhs:
        return lhs, rhs, witnesses, count
    return _transpose(lhs, count), _transpose(rhs, count), witnesses


def homomorphism_clauses(V, columns, top):
    """The ~, (+) and (*) clauses of a map psi into a chain, given by its
    columns: the quotient projection and both representation maps.

    columns[xi][i] is psi_x of carrier index i, a level 0..top, for the
    xi-th coordinate x, and rows are of _row_type(max(n - 1, 2 * top)).
    An instance is p, or (p, q), over all coordinates at once, and its
    witness names no coordinate, so each distinct column is checked once.
    ~ is one block over p; (+) one block per run of whole p-rows of the
    (+) table, BLOCK_ENTRIES entries over all columns at most: each psi_x
    read at the joined rows against psi_x(p) (+) psi_x(q) over the same
    pairs; (*) likewise. The row of psi_x(p) (+) psi_x(q) over q depends
    on p only through the level psi_x(p), so a block reads it once per
    distinct level of its p: at most top + 1 reads a column, and never
    more rows than the block holds. Only a block whose columns differ is
    rescanned, as per-instance tuples (see column_block): a witness is
    the first p, or (p, q), whose images differ.
    """
    els, n = V.elements, len(V.carrier)
    row = _row_type(max(n - 1, 2 * top))
    columns = list(dict.fromkeys(map(row, columns)))
    neg, plus, times = _level_tables(top)

    def blocks(table, sums):
        # p-rows i..j - 1 of the table, joined, against the rows of
        # psi_x(p) . psi_x(q) over q, joined, each read at psi_x once per
        # level psi_x(p)
        step = max(1, BLOCK_ENTRIES // (n * max(1, len(columns))))
        for i in range(0, n, step):
            j = min(i + step, n)
            at = _concat(map(row, table[i:j]), row)
            rhs = []
            for col in columns:
                levels = col[i:j]
                by_level = {v: _read(sums[v:], col) for v in set(levels)}
                rhs.append(_concat(map(by_level.__getitem__, levels), row))
            yield column_block([_read(col, at) for col in columns], rhs,
                               itertools.product(els[i:j], els),
                               (j - i) * n)

    negs = row(V.neg)
    return [clause_result("neg", [column_block(
                [_read(col, negs) for col in columns],
                [_read(neg, col) for col in columns], zip(els), n)]),
            clause_result("oplus", blocks(V.oplus, plus)),
            clause_result("odot", blocks(V.odot, times))]


@record
class AuditReport:
    """The results of one audit in checking order, each with `holds`."""

    results: tuple

    @property
    def passed(self):
        return all(r.holds for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.holds]


@record
class MVAuditReport(AuditReport):
    mode: str


# The eight axiom groups as (name, arity, law): law(P, D, N, zero, one, x,
# y, z) gives the (lhs, rhs) row pairs of the group's identities, (+), (*)
# and ~ taken entry by entry on rows; it reads its first `arity` variables.
# Group 4 is implemented as a(*)0 = 0: the printed second identity of the
# source's fourth pair is falsified by the standard algebra itself.
_AXIOMS = (
    ("1-commutativity", 2, lambda P, D, N, zero, one, x, y, z:
     ((P(x, y), P(y, x)), (D(x, y), D(y, x)))),
    ("2-associativity", 3, lambda P, D, N, zero, one, x, y, z:
     ((P(x, P(y, z)), P(P(x, y), z)), (D(x, D(y, z)), D(D(x, y), z)))),
    ("3-units", 1, lambda P, D, N, zero, one, x, y, z:
     ((P(x, zero), x), (D(x, one), x))),
    ("4-annihilators", 1, lambda P, D, N, zero, one, x, y, z:
     ((P(x, one), one), (D(x, zero), zero))),
    ("5-complements", 1, lambda P, D, N, zero, one, x, y, z:
     ((P(x, N(x)), one), (D(x, N(x)), zero))),
    ("6-de-morgan", 2, lambda P, D, N, zero, one, x, y, z:
     ((N(P(x, y)), D(N(x), N(y))), (N(D(x, y)), P(N(x), N(y))))),
    ("7-involution", 1, lambda P, D, N, zero, one, x, y, z:
     ((N(N(x)), x), (N(zero), one))),
    ("8-lukasiewicz", 2, lambda P, D, N, zero, one, x, y, z:
     ((P(N(P(N(x), y)), y), P(N(P(N(y), x)), x)),)),
)


def check_mv_axioms(algebra, mode="exhaustive", count=100000, seed=0):
    """Audit the eight axiom groups as rows, a batch of triples at a time;
    a failure carries its first failing triple. The two sides of a group's
    identities are compared as whole rows, and only a group whose sides
    differ is unpacked and walked through first_witness. Exhaustive mode
    walks the carrier triples of a finite algebra of up to
    MAX_AUDIT_CARRIER elements over the ~, (+) and (*) tables of its view,
    algebra.indexed(), as lists. Sampled mode audits StandardRationals on
    `count` >= 1 seeded rational triples (_sampled_draws), SAMPLE_CHUNK
    at a time, each row of a chunk one int of packed lanes (_lane_ops)."""
    if mode == "exhaustive":
        if not algebra.is_finite:
            raise ValueError("exhaustive audit needs a finite algebra")
        # a chain's size is n, so Chain(10**9) is refused before its
        # carrier is built
        size = algebra.n if isinstance(algebra, Chain) \
            else len(algebra.carrier)
        if size > MAX_AUDIT_CARRIER:
            raise AuditTooLarge(
                f"{algebra!r} exceeds the exhaustive audit cap of "
                f"{MAX_AUDIT_CARRIER} elements")
        desc, batches = "exhaustive", _table_batches(algebra.indexed())
    elif mode == "sampled":
        if type(algebra) is not StandardRationals:
            raise ValueError(
                f"sampled audit needs StandardRationals(), not {algebra!r}")
        if count < 1:
            raise ValueError("sampled audit needs a count of at least 1")
        desc = f"sampled({count}, seed={seed})"
        batches = _sampled_batches(count, seed)
    else:
        raise ValueError(f"unknown audit mode {mode!r}")
    witnesses = [None] * len(_AXIOMS)
    for ops, rows_of, unpack, element in batches:
        for i, (_, arity, law) in enumerate(_AXIOMS):
            if witnesses[i] is None:
                rows = rows_of(arity)
                pairs = law(*ops, *rows)
                if all(lhs == rhs for lhs, rhs in pairs):
                    continue
                # the group's identities unpacked and interleaved, so that
                # a position's witness, element(its entries), repeats once
                # per identity
                sides = [list(map(unpack, pair)) for pair in pairs]
                witnesses[i] = first_witness([(
                    _interleave([lhs for lhs, _ in sides]),
                    _interleave([rhs for _, rhs in sides]),
                    (element(t) for t in zip(*map(unpack, rows))
                     for _ in pairs))])[1]
    return MVAuditReport(tuple(
        AxiomResult(name, witness is None, witness)
        for (name, _, _), witness in zip(_AXIOMS, witnesses)), desc)


def _table_batches(V):
    # one batch per value a of the first variable, on view indices: the
    # rows of arity k are zero, one, x = a and rest[k - 1], the carrier
    # lists of the other variables read, then index 0 for the unread ones
    carrier, n = V.elements, len(V.elements)
    # V's rows as lists, which map(getitem) reads faster than bytes or tuples
    oplus, odot = (list(map(list, t)) for t in (V.oplus, V.odot))
    ops = (lambda x, y: list(map(getitem, map(oplus.__getitem__, x), y)),
           lambda x, y: list(map(getitem, map(odot.__getitem__, x), y)),
           lambda x: list(map(V.neg.__getitem__, x)))
    rest = [[*map(list, zip(*itertools.product(range(n), repeat=k)))]
            + [[0] * n ** k] * (2 - k) for k in range(3)]
    for a in range(n):
        # rows are lists already, so there is nothing to unpack
        yield (ops, lambda k: [[c] * n ** (k - 1) for c in (V.zero, V.one, a)]
               + rest[k - 1], list,
               lambda t: tuple(map(carrier.__getitem__, t[2:])))


def _sampled_draws(count, seed):
    """The coordinates of `count` seeded triples as (numerators,
    denominators), a chunk of up to SAMPLE_CHUNK triples at a time, three
    coordinates a triple. A coordinate draws its denominator as
    randint(1, SAMPLE_DENOMINATOR), then its numerator as randint(0, den),
    on random.Random(seed); each draw is taken as randint takes it, by
    rejection sampling of getrandbits(k) for the bit length k of the
    draw's range, without randint's calls around it."""
    getrandbits = random.Random(seed).getrandbits
    k = SAMPLE_DENOMINATOR.bit_length()
    k_of = [(den + 1).bit_length() for den in range(SAMPLE_DENOMINATOR + 1)]
    for start in range(0, count, SAMPLE_CHUNK):
        p, q = [], []
        for _ in range(3 * min(SAMPLE_CHUNK, count - start)):
            den = getrandbits(k)
            while den >= SAMPLE_DENOMINATOR:
                den = getrandbits(k)
            den += 1
            num = getrandbits(k_of[den])
            while num > den:
                num = getrandbits(k_of[den])
            p.append(num)
            q.append(den)
        yield p, q


def _lane_ops(d):
    """(pack, unpack, (oplus, odot, neg)) on rows of values 0..d[i] packed
    into one int, entry i in lane i. A value is a numerator over a sampled
    triple's d, the lcm of three denominators, so it is at most
    SAMPLE_DENOMINATOR ** 3 < 2**G for the guard bit G, a sum of two is
    below 2**(G + 1), and a lane is the narrowest array item of G + 1 bits.
    ~u is d - u; u (*) v keeps t = u + v + 2**G - d in the lanes where t
    reaches the guard bit (there it is 2**G + u + v - d, elsewhere
    u + v < d) and clears the others; u (+) v is min(u + v, d), that is
    u + v - (u (*) v). No lane borrows from or carries into the next."""
    guard = (SAMPLE_DENOMINATOR ** 3).bit_length()
    code = next((code for code in "BHILQ"
                 if 8 * array(code).itemsize > guard), None)
    if code is None:
        raise ValueError(f"no array item holds {guard + 1}-bit lanes")
    order, size = sys.byteorder, array(code).itemsize * len(d)

    def pack(values):
        return int.from_bytes(array(code, values), order)

    def unpack(row):
        return array(code, row.to_bytes(size, order)).tolist()

    top = pack(d)
    bits = pack([1 << guard] * len(d))
    lift = bits - top

    def odot(u, v):
        t = u + v + lift
        g = t & bits
        return t & (g - (g >> guard))

    return pack, unpack, (lambda u, v: u + v - odot(u, v), odot,
                          lambda u: top - u)


def _sampled_batches(count, seed):
    # one batch per chunk of seeded triples, as packed rows (zero, d, x, y,
    # z): numerators over each triple's common denominator d (see
    # _lane_ops)
    for p, q in _sampled_draws(count, seed):
        d = list(map(math.lcm, q[::3], q[1::3], q[2::3]))
        pack, unpack, ops = _lane_ops(d)
        rows = (0, pack(d), *(
            pack(map(mul, p[k::3], map(floordiv, d, q[k::3])))
            for k in range(3)))
        yield (ops, lambda arity: rows, unpack,
               lambda t: tuple(Fraction(v, t[1]) for v in t[2:]))


@record
class Filter:
    """Upward-closed, (*)-closed subset of a finite algebra's carrier.

    members are elements, and ids their indices in the algebra's indexed
    view (filter_ids). The laws are one first_witness call there, pairs in
    carrier order: the escape_blocks of (*) on the members, then the
    members' <= rows read at the outsiders against 0s.
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
        self._validate(V, frozenset(map(enc, m)), dec)

    def _validate(self, V, inside, dec):
        object.__setattr__(self, "ids", inside)  # set once (frozen)
        ids, row = sorted(inside), V.row
        outside = row(b for b in V.carrier if b not in inside)
        above = _concat([_read(V.le[a], outside) for a in ids], row)
        _, witness = first_witness(itertools.chain(
            escape_blocks(V, ids, (), [("odot", V.odot)]),
            [(above, row((0,)) * len(above),
              (("le", a, b) for a in ids for b in outside))]))
        if witness is not None:
            law, a, b = witness
            raise FilterError(
                f"not (*)-closed: {dec(a)!r}(*){dec(b)!r} escapes the "
                "member set" if law == "odot" else
                f"not upward closed at {dec(a)!r} <= {dec(b)!r}")

    @property
    def is_proper(self):
        return self.algebra.zero not in self.members

    def __contains__(self, x):
        return x in self.members


def filter_ids(flt, algebra=None):
    """flt.ids, the view indices of its members. Paired with an algebra,
    flt must be its filter: ValueError unless the algebra is flt's or
    equal to it (two equal chains)."""
    if algebra not in (None, flt.algebra):
        raise ValueError(
            f"a filter of {flt.algebra!r} is no filter of {algebra!r}")
    return flt.ids


def _up_set(algebra, V, dec, e):
    """The principal filter of view index e, validated on view indices."""
    ids = frozenset(itertools.compress(V.carrier, V.le[e]))
    flt = Filter.__new__(Filter)  # fields set once (frozen)
    vars(flt).update(algebra=algebra, members=frozenset(map(dec, ids)))
    if V.one not in ids:
        raise FilterError("1 must belong to every filter")
    flt._validate(V, ids, dec)
    return flt


def _generator(V, ids):
    """The (*)-product of the given view indices; 1 for none."""
    return functools.reduce(lambda gen, a: V.odot[gen][a], ids, V.one)


def filter_generate(algebra, elements):
    """Smallest filter containing the given set: the up-set of e, the
    idempotent power of their (*)-product p (1 for none). e is a product
    of them, and a product of k of them lies above p^k, so above e."""
    elements = tuple(elements)
    algebra.check_args(elements)
    V, enc, dec = _coding(algebra)
    e = _generator(V, map(enc, elements))
    for _ in V.carrier:  # the squares reach e (*) e = e within n steps
        e = V.odot[e][e]
    return _up_set(algebra, V, dec, e)


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
    V, _, dec = _coding(flt.algebra)
    return dec(_generator(V, filter_ids(flt)))


def maximal_filters(algebra):
    """All maximal proper filters, in carrier order of their atoms.

    They are built and validated once per algebra object and kept on it
    (see kept); each call returns a new list of the same Filter objects.
    A FilterError is raised and not kept, so a corrupted table raises it
    again on every call.
    """
    def build():
        V, _, dec = _coding(algebra)
        return tuple(_up_set(algebra, V, dec, e) for e in _skeleton_atoms(V))

    return list(kept(algebra, "maximal", build))


def extend_to_maximal(algebra, flt, constraint=None):
    """First maximal proper filter extending flt that meets the constraint,
    read off maximal_filters(algebra): a corrupted table raises the
    FilterError of its first invalid maximal up-set."""
    if not flt.is_proper:
        raise ProperFilterRequired("cannot extend the improper filter")
    base = _generator(algebra.indexed(), filter_ids(flt, algebra))
    for candidate in maximal_filters(algebra):
        if base in candidate.ids and (constraint is None
                                      or constraint(candidate)):
            return candidate
    raise FilterNotFound("no maximal extension satisfies the constraint")


def quotient_ranks(flt):
    """Quotient by a maximal filter as integer ranks: (chain, ranks).

    ranks[i] is the level in the chain of the class of index i of the
    filter's algebra's view. The congruence is a ~ b iff (a->b)(*)(b->a)
    is in F. The class order must be total and the ranks a homomorphism
    onto the chain's levels; any breach means the filter was not maximal.
    The pair is computed once per filter object and kept on it (see
    kept), so `quotient` and the representation maps share it; an error
    is raised on every call.
    """
    return kept(flt, "ranks", lambda: _quotient_ranks(flt))


def _quotient_ranks(flt):
    if not flt.is_proper:
        raise ProperFilterRequired("quotient by the improper filter is degenerate")
    V, _, dec = _coding(flt.algebra)
    members = filter_ids(flt)
    neg, oplus, odot = V.neg, V.oplus, V.odot

    def within(a, b):
        # a -> b in F: the class of a lies below the class of b
        return oplus[neg[a]][b] in members

    reps, class_of = [], []
    for a in V.carrier:
        for k, r in enumerate(reps):
            if odot[oplus[neg[a]][r]][oplus[neg[r]][a]] in members:
                class_of.append(k)
                break
        else:
            class_of.append(len(reps))
            reps.append(a)

    pairs = list(itertools.combinations(reps, 2))
    comparable = [within(r, s) or within(s, r) for r, s in pairs]
    _, witness = first_witness([(comparable, [True] * len(pairs), pairs)])
    if witness is not None:
        r, s = map(dec, witness)
        raise NonMaximalFilter(f"classes of {r!r} and {s!r} are "
                               "incomparable; quotient is no chain")

    # the classes form a chain, so a class with rank r has r classes below
    # it and itself at or below it
    rank = [sum(1 for s in reps if within(s, r)) - 1 for r in reps]
    ranks = tuple(rank[k] for k in class_of)
    top = len(reps) - 1

    # the ranks as the one column of a map into the chain; a corrupted table
    # can give a class rank -1, no level, and ~ breaks there or before
    if min(ranks) < 0:
        clauses = [clause_result("neg", [(
            [ranks[x] for x in V.neg], [top - r for r in ranks],
            zip(V.elements))])]
    else:
        clauses = homomorphism_clauses(V, [ranks], top)
    for symbol, clause in zip(("~", "(+)", "(*)"), clauses):
        if not clause.holds:
            at = ",".join(repr(dec(V.index_of[x])) for x in clause.witness)
            raise NonMaximalFilter(f"projection breaks {symbol} at " + (
                at if len(clause.witness) == 1 else f"({at})"))
    if ranks[V.zero] != 0 or ranks[V.one] != top:
        raise NonMaximalFilter("projection moves a constant")
    return Chain(len(reps)), ranks


def quotient(algebra, flt):
    """Quotient by a maximal filter: a chain plus the projection map.

    The projection sends each element of the filter's algebra to its
    class in the chain (see quotient_ranks). A filter of another algebra
    is refused (see filter_ids).
    """
    filter_ids(flt, algebra)
    chain, ranks = quotient_ranks(flt)
    _, _, dec = _coding(flt.algebra)
    return chain, {dec(i): chain.carrier[r] for i, r in enumerate(ranks)}
