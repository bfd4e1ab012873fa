"""Fuzzy structures and the Tarskian truth-value recursion.

Models carry a finite domain and a finite chain of truth values, so the
quantifier suprema and infima are exact lattice operations. Entailment is a
bounded semi-decision: an exhaustive search over all models up to a domain
size, never a claim about all structures.

Inside, truth values are the integer levels 0..n-1 of Chain(n), level r
standing for r/(n-1). A formula is read as the paper reads it, as an
element of a polyadic MV set algebra: a map from assignments into the
chain, where the connectives act pointwise and E and A are
cylindrifications (block sup and inf). A RowProgram compiles formulas once
into steps, one per distinct subformula, reading variable orders, spread
axes and atom cells off bounded caches (`_ordered`, `_missing`,
`_atom_cells`, whose cell tuples are shared, so never changed), and
evaluates each step as one row: its levels at every assignment of its
variables and every model of a batch. Rows, their type and the level tables
come from mv_core (`_row_type(2 * top)`, `_level_tables`, `_read`, `_add`,
`_concat`), so that on byte rows a step is a few passes in C: a translate
through a level table, a big-int add of two rows, slicing and repetition.
`entails` takes the models of one domain size in chunks of canonical order
(`model_chunks`), reads atoms off per-cell model columns, finds the first
countermodel of a chunk by row operations too, and stops at the first chunk
that holds one. It searches the largest domain first, and the smaller ones,
in ascending order, only if that one holds a countermodel: a model of size
k is a countermodel iff its lift along h(x) = min(x, k - 1) is one.
`eval_formula` compiles a formula once per chain, and it, `is_valid` and
`truth_degree` evaluate a batch of one model. A row's assignments per model
are capped at MAX_VALUATIONS before any row is built. `Fraction` values
appear only at the edges: a user-supplied Model is read into levels once, a
result level r comes back as the chain value r/top (the chain's carrier is
never built), and a Model is built only for a reported countermodel.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .mv_core import (
    MAX_VALUATIONS, Chain, CarrierError, Value, _add, _concat, _level_tables,
    _read, _row_type, format_point, format_value, is_json_int,
    is_json_object, json_field, parse_point, parse_value, record,
)
from . import syntax
from .syntax import (
    Atom, Top, Bottom, Oplus, Odot, Implies, Neg, Forall, Exists, _var_key,
)


class MissingTableError(KeyError):
    """The model has no table for a predicate the formula mentions."""


class SearchTooLarge(ValueError):
    """Model enumeration would exceed the configured cap."""


class Model:
    """Finite fuzzy structure: domain {0..k-1}, chain values, total tables.

    The tables are stored only as `levels`: per predicate a tuple of chain
    levels, one per point in lexicographic point order. `tables` derives
    the chain values from them.
    """

    def __init__(self, language, domain_size, chain, tables):
        if domain_size < 1:
            raise ValueError("domain must be nonempty")
        self.language = language
        self.domain_size = domain_size
        self.chain = chain
        self.levels = {}
        top = chain.n - 1
        for pred, table in tables.items():
            row = []
            for point in self._points(pred):
                if point not in table:
                    raise ValueError(f"table for {pred} misses {point}")
                value = table[point]
                if not chain.contains(value):
                    raise CarrierError(
                        f"{pred}{point} = {value} is not a {chain!r} value")
                row.append((value * top).numerator)
            self.levels[pred] = tuple(row)

    @classmethod
    def from_levels(cls, language, domain_size, chain, levels):
        """The model with the given level tables, stored as they are."""
        model = cls(language, domain_size, chain, {})
        model.levels = dict(levels)
        return model

    def _points(self, pred):
        return itertools.product(range(self.domain_size),
                                 repeat=self.language.arity(pred))

    @property
    def tables(self):
        """Each table as a dict from point to chain value, level r made
        r/top once per distinct r: the chain's carrier is not built."""
        top = self.chain.n - 1
        value = {r: Value(r, top) for r in set().union(*self.levels.values())}
        return {pred: {point: value[r]
                       for point, r in zip(self._points(pred), row)}
                for pred, row in self.levels.items()}

    @property
    def domain(self):
        return range(self.domain_size)

    def to_json(self):
        return {
            "domain": self.domain_size,
            "chain": self.chain.n,
            "predicates": {
                pred: {
                    "arity": self.language.arity(pred),
                    "table": {
                        format_point(pt): format_value(v)
                        for pt, v in sorted(table.items())
                    },
                }
                for pred, table in sorted(self.tables.items())
            },
        }

    @classmethod
    def from_json(cls, data):
        """The model of a JSON object, in the language of its predicates."""
        preds = json_field(data, "predicates", is_json_object, "an object")
        arity = {name: json_field(p, "arity", is_json_int, "an integer")
                 for name, p in preds.items()}
        language = syntax.LanguageSpec(
            num_vars=max(4, max(arity.values(), default=0) + 2), reserve=1,
            predicates=tuple(sorted(arity.items())))
        tables = {name: {parse_point(key): parse_value(text) for key, text
                         in json_field(p, "table", is_json_object,
                                       "an object").items()}
                  for name, p in preds.items()}
        domain = json_field(data, "domain", is_json_int, "an integer")
        chain = Chain(json_field(data, "chain", is_json_int, "an integer"))
        return cls(language, domain, chain, tables)


class Assignment:
    """Total valuation of variables: those off the mapping read 0."""

    def __init__(self, mapping=None):
        self.mapping = dict(mapping or {})

    def get(self, var):
        return self.mapping.get(var, 0)


# The most entries a row of a model chunk holds: entails takes as many
# models at a time as keep its widest row within this, so a chunk's rows
# stay a few hundred kilobytes each however large the model space.
ROW_CHUNK = 1 << 15


_CONNECTIVES = {Oplus: "plus", Odot: "times", Implies: "plus"}


class RowProgram:
    """Formulas compiled once into row steps for Chain(top + 1).

    A step's row lists its subformula's levels at every (assignment,
    model) pair of a batch of `count` models: the assignments of the
    step's variables (`vars`, in the order of syntax._var_key) in product
    order, the first variable most significant, each holding one entry per
    model. Rows are mv_core's, of type _row_type(2 * top), chosen once, and
    only mv_core's primitives tell the two types apart. An atom
    concatenates its table cells' model columns; ~ reads the row through
    the negation table, and (+) and (*) add two rows and read the sums
    through mv_core._level_tables (x -> y is ~x (+) y), so on byte rows
    each is a pass or two in C. A `spread` step repeats a row along the
    variables it lacks, so that the two rows of a connective line up; and
    E and A take the join and meet of the row's blocks along one variable
    (cylindrification). Steps are memoized by their operation, operands
    and variables, so a subformula repeated across the compiled formulas
    is computed once per batch. Variable orders, spread axes and atom
    cells come from lru_caches of at most 1024, 1024 and 256 entries
    (`_ordered`, `_missing`, `_atom_cells`); a cell tuple, of at most
    MAX_VALUATIONS cells, is shared between programs, so never changed.

    With `fix_free`, every free occurrence of a variable spans no axis:
    the program's rows span only the bound variables, `fixed` names the
    free ones, and atom_cells reads their values from an assignment.
    """

    def __init__(self, top, fix_free=False):
        self.top = top
        self.fix_free = fix_free
        self.fixed = set()
        self.predicates = set()
        self.steps = []
        self.vars = []
        self._slots = {}
        self.row_type = _row_type(2 * top)
        self._neg, self._plus, self._times = _level_tables(top)

    def add(self, phi, bound=frozenset()):
        """The slot of phi's row, compiling what is not yet compiled."""
        kind = type(phi)
        if kind is Atom:
            variables = phi.args
            if self.fix_free:
                variables = tuple(v for v in variables if v in bound)
                self.fixed.update(v for v in phi.args if v not in bound)
            self.predicates.add(phi.pred)
            return self._step(("atom", phi.pred, phi.args),
                              _ordered(variables))
        op = _CONNECTIVES.get(kind)
        if op is not None:
            left = self.add(phi.left, bound)
            right = self.add(phi.right, bound)
            if kind is Implies:  # x -> y is ~x (+) y
                left = self._step(("neg", left, None), self.vars[left])
            if left > right:
                left, right = right, left  # (+) and (*) commute
            have, other = self.vars[left], self.vars[right]
            want = have if have == other else _ordered(have + other)
            if have != want:
                left = self._step(("spread", left, _missing(have, want)), want)
            if other != want:
                right = self._step(("spread", right, _missing(other, want)),
                                   want)
            return self._step((op, left, right), want)
        if kind is Neg:
            slot = self.add(phi.body, bound)
            return self._step(("neg", slot, None), self.vars[slot])
        if kind is Top or kind is Bottom:
            return self._step(("const", self.top if kind is Top else 0,
                               None), ())
        if kind is Forall or kind is Exists:
            slot = self.add(phi.body,
                            bound | phi.block if self.fix_free else bound)
            op = "sup" if kind is Exists else "inf"
            for var in _ordered(phi.block):
                have = self.vars[slot]
                if var in have:
                    slot = self._step(
                        (op, slot, have.index(var)),
                        tuple(v for v in have if v != var))
            return slot
        raise TypeError(f"not a formula: {phi!r}")

    def _step(self, step, variables):
        key = step, variables
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.steps)
            self.steps.append(step)
            self.vars.append(variables)
        return slot

    def _spread(self, slot, want):
        have = self.vars[slot]
        if have == want:
            return slot
        return self._step(("spread", slot, _missing(have, want)), want)

    def width(self, size):
        """The most assignments a row spans per model at a domain size.
        Past MAX_VALUATIONS it raises SearchTooLarge, before any row is
        built."""
        most = max(map(len, self.vars), default=0)
        if size ** most > MAX_VALUATIONS:
            raise SearchTooLarge(
                f"{size}^{most} assignments of a subformula's variables "
                f"exceed the cap of {MAX_VALUATIONS}")
        return size ** most

    def atom_cells(self, size, offsets, fixed=None):
        """Per atom step, its table cells (_atom_cells) at a domain size;
        `offsets` gives each predicate's first cell, and `fixed` the value
        of each variable in `self.fixed`."""
        cells = {}
        for slot, (op, pred, args) in enumerate(self.steps):
            if op == "atom":
                variables = self.vars[slot]
                cells[slot] = _atom_cells(
                    offsets[pred], args, variables, size,
                    tuple(fixed[v] for v in args if v not in variables))
        return cells

    def run(self, size, cells, count, columns, rows, stop):
        """Append to `rows` the rows of the steps len(rows)..stop-1 over a
        batch of `count` models at a domain size, given by the `count`
        levels of every table cell (`columns`, rows of the program's
        type)."""
        sums = {"plus": self._plus, "times": self._times}
        for slot in range(len(rows), stop):
            op, a, b = self.steps[slot]
            if op == "atom":
                row = _concat(map(columns.__getitem__, cells[slot]),
                              self.row_type)
            elif op == "const":
                row = self.row_type((a,)) * count
            elif op == "neg":
                row = _read(self._neg, rows[a])
            elif op in sums:
                row = _read(sums[op], _add(rows[a], rows[b]))
            elif op == "spread":
                row = rows[a]
                for j in b:
                    row = _spread_axis(row, j, size)
            else:
                row = _cylinder(rows[a], b, size,
                                self.join if op == "sup" else self.meet)
            rows.append(row)
        return rows

    def join(self, x, y):
        """x v y entry by entry, on byte rows as (x (*) ~y) (+) y."""
        if self.row_type is tuple:
            return tuple(map(max, x, y))
        return _read(self._plus, _add(
            _read(self._times, _add(x, _read(self._neg, y))), y))

    def meet(self, x, y):
        """x ^ y entry by entry, on byte rows as x (*) (~x (+) y)."""
        if self.row_type is tuple:
            return tuple(map(min, x, y))
        return _read(self._times, _add(
            x, _read(self._plus, _add(_read(self._neg, x), y))))

    def countermodel(self, goal, hypotheses, count):
        """The first model of a batch of `count` in which the goal's row
        falls below the top and every hypothesis row is at the top, or
        None. Each model's least level of the goal and of all hypotheses
        is read into a flag, and the flags add up to 2 exactly there."""
        row, top = self.row_type, self.top
        passes = _concat(hypotheses, row) or row((top,)) * count
        fails, holds = row([1] * top + [0]), row([0] * top + [1])
        flags = _add(_read(fails, _fold(goal, count, self.meet)),
                     _read(holds, _fold(passes, count, self.meet)))
        return flags.index(2) if 2 in flags else None

    def check_tables(self, model):
        """Raise MissingTableError for the first predicate, in sorted
        order, that the model has no table for."""
        for pred in sorted(self.predicates):
            if pred not in model.levels:
                raise MissingTableError(pred)

    def in_model(self, model, fixed=None):
        """Every step's row in one model (a batch of one), the variables
        in `self.fixed` taking their values in `fixed`."""
        self.check_tables(model)
        size = model.domain_size
        self.width(size)
        offsets, levels = {}, []
        for pred in sorted(self.predicates):
            offsets[pred] = len(levels)
            levels.extend(model.levels[pred])
        # one row of one entry per distinct level, shared by its cells
        units = {level: self.row_type((level,)) for level in set(levels)}
        return self.run(size, self.atom_cells(size, offsets, fixed), 1,
                        list(map(units.__getitem__, levels)), [],
                        len(self.steps))


@functools.lru_cache(maxsize=1024)
def _ordered(variables):
    """The distinct variables in the order of syntax._var_key."""
    return tuple(sorted(set(variables), key=_var_key))


@functools.lru_cache(maxsize=1024)
def _missing(have, want):
    """The axes of `want` whose variables `have` lacks."""
    return tuple(j for j, var in enumerate(want) if var not in have)


@functools.lru_cache(maxsize=256)
def _atom_cells(offset, args, variables, size, values):
    """The table cells an atom reads under each assignment of its
    `variables`, in product order: `offset` is its predicate's first cell,
    `values` hold its other arguments', in order, and a point is read in
    base `size`, its last argument least significant."""
    cell, place, places = offset, 1, dict.fromkeys(variables, 0)
    values = reversed(values)
    for v in reversed(args):
        if v in places:
            places[v] += place
        else:
            cell += next(values) * place
        place *= size
    reads = [cell]
    for place in places.values():
        reads = [c + x * place for c in reads for x in range(size)]
    return tuple(reads)


def _spread_axis(row, j, size):
    """The row with a new variable at axis j that it does not depend on."""
    block = len(row) // size ** j
    if block == len(row):
        return row * size
    return _concat((row[o:o + block] * size
                    for o in range(0, len(row), block)), type(row))


def _cylinder(row, j, size, bound):
    """The bound (RowProgram.join or meet) of the row over the values of
    axis j: the row's entries at each value of j, laid end to end (one
    strided slice per value when they are single entries), then folded."""
    block = len(row) // size ** j
    step = block // size
    if step == 1:
        row = _concat([row[x::size] for x in range(size)], type(row))
    elif block < len(row):
        row = _concat((row[o:o + step] for x in range(0, block, step)
                       for o in range(x, len(row), block)), type(row))
    return _fold(row, len(row) // size, bound)


def _fold(row, count, bound):
    """The bound of the row's slices of `count` entries, entry by entry:
    each pass takes the bound of the first half of the slices with the
    second, an odd slice left over."""
    while len(row) >= 2 * count:
        half = len(row) // count // 2 * count
        row = bound(row[:half], row[half:2 * half]) + row[2 * half:]
    return row


@functools.lru_cache(maxsize=256)
def _fixed_program(phi, top):
    """The program of phi for Chain(top + 1), its free variables fixed:
    eval_formula compiles each formula once per chain."""
    program = RowProgram(top, fix_free=True)
    return program, program.add(phi)


def eval_formula(phi, model, s):
    """The truth value of phi under the assignment s.

    Every free variable of phi must be assigned an element of the domain;
    the row spans only the bound ones.
    """
    program, slot = _fixed_program(phi, model.chain.n - 1)
    program.check_tables(model)
    fixed = {var: s.get(var) for var in sorted(program.fixed)}
    for var, x in fixed.items():
        if not 0 <= x < model.domain_size:
            raise ValueError(
                f"assignment {var}={x} is outside the domain "
                f"0..{model.domain_size - 1}")
    return Fraction(program.in_model(model, fixed)[slot][0], program.top)


def assignment_row(phi, model, variables):
    """The levels of phi at every assignment of `variables`, in product
    order. The variables must include phi's free ones and come in the
    order of syntax._var_key."""
    program = RowProgram(model.chain.n - 1)
    slot = program.add(phi)
    want = tuple(variables)
    if not set(program.vars[slot]) <= set(want) \
            or list(want) != sorted(want, key=_var_key):
        raise ValueError(f"{want} does not list the free variables of "
                         f"the formula in order")
    slot = program._spread(slot, want)
    return program.in_model(model)[slot]


def is_valid(phi, model):
    """True iff the formula takes value 1 under every assignment."""
    return truth_degree(phi, model) == 1


def truth_degree(phi, model):
    """Infimum of the value over assignments of the free variables, the
    only ones the value depends on (the dependency property, pinned by
    the tests)."""
    program = RowProgram(model.chain.n - 1)
    slot = program.add(phi)
    return Fraction(min(program.in_model(model)[slot]), program.top)


@record
class RefutedBy:
    model: Model

    refuted = True

    def __repr__(self):
        return f"RefutedBy({self.model.to_json()})"


@record
class NoCounterexampleUpTo:
    max_domain: int
    chain_n: int

    refuted = False

    def __repr__(self):
        return f"NoCounterexampleUpTo(domain={self.max_domain}, chain={self.chain_n})"


def enumerate_models(language, predicates, domain_size, chain):
    """All models over the named predicates, in canonical table order.

    Each model is its level tables: a dict from predicate to a tuple of
    levels of the chain, one per point in lexicographic point order. This
    is the order that defines the canonically first countermodel;
    `entails` reads the same order off model_chunks.
    """
    preds = sorted(predicates)
    rows = [itertools.product(range(chain.n),
                              repeat=domain_size ** language.arity(p))
            for p in preds]
    for combo in itertools.product(*rows):
        yield dict(zip(preds, combo))


@functools.lru_cache(maxsize=16)
def _low_columns(chain_n, cells):
    """The levels of `cells` table cells over all chain_n ** cells models
    in canonical order, one column per cell, first cell most significant:
    each level repeated chain_n ** (cells - 1 - g) times, and that pattern
    chain_n ** g times. Rows of the chain's type (mv_core._row_type of
    twice its top); shared between searches, so never changed."""
    row = _row_type(2 * (chain_n - 1))
    return [row(itertools.chain.from_iterable(
        [level] * chain_n ** (cells - 1 - g) for level in range(chain_n)))
        * chain_n ** g for g in range(cells)]


def model_chunks(cells, chain_n, width):
    """The models of one domain size in chunks, in canonical order.

    A model is the levels of its `cells` table cells (the predicates in
    sorted order, each its points in lexicographic order), and model m has
    level (m // chain_n ** (cells - 1 - g)) % chain_n in cell g: the order
    of enumerate_models. A chunk lets the low-order cells vary, as many as
    keep `width` assignments per model within ROW_CHUNK entries, and holds
    the other cells constant. Yields (first, count, columns): the index of
    the chunk's first model, its number of models and the `count` levels
    of every cell, as rows of the chain's type, mv_core._row_type of twice
    its top; never changed, as a single chunk's are _low_columns' own.
    """
    low = 0
    while low < cells and width * chain_n ** (low + 1) <= ROW_CHUNK:
        low += 1
    count = chain_n ** low
    varying = _low_columns(chain_n, low)
    if low == cells:  # one chunk, the commonest case: no product to walk
        yield 0, count, varying
        return
    row = _row_type(2 * (chain_n - 1))
    for chunk, high in enumerate(itertools.product(range(chain_n),
                                                   repeat=cells - low)):
        yield chunk * count, count, [row((level,)) * count
                                     for level in high] + varying


def _check_model_count(language, predicates, max_domain, chain_n, cap):
    """Raise SearchTooLarge if more than cap models have |M| <= max_domain.

    The count is summed by domain size up to the first size whose running
    total passes cap, so a huge bound costs no huge number. Nor is a power
    built that alone passes cap: chain_n >= 2, so chain_n ** cells does
    once cells reaches the bit length of cap.
    """
    total = 0
    for size in range(1, max_domain + 1):
        per = 1
        for p in predicates:
            cells = size ** language.arity(p)
            if cells >= cap.bit_length():
                raise SearchTooLarge(
                    f"{chain_n}^{cells} models of {p} at |M| = {size} alone "
                    f"exceed the cap of {cap}")
            per *= chain_n ** cells
        total += per
        if total > cap:
            raise SearchTooLarge(f"{total} models exceed the cap of {cap}")


def entails(gamma, phi, language, max_domain, chain_n, cap=500000):
    """Bounded entailment search over all models with |M| <= max_domain.

    Returns the canonically first countermodel (every gamma member valid,
    phi not), the least domain size first, or the bounded
    no-counterexample verdict. The goal and the hypotheses are one
    RowProgram, evaluated per domain size over chunks of models; a
    chunk's hypotheses are evaluated only if the goal fails in one of its
    models, and the search of a size stops at the first chunk that holds
    a countermodel, which RowProgram.countermodel finds by row
    operations.

    The largest domain is searched first. A model M of size k lifts to
    size K >= k along h(x) = min(x, k - 1): p(b) is M's p(h(b)). By
    induction on formulas, a formula's value in the lift at an
    assignment s is M's value at h o s (E and A range over the image of
    h, which is all of M), and h is onto, so M is a countermodel iff its
    lift is. So no countermodel at |M| = max_domain means none below;
    otherwise the smaller sizes are searched in ascending order, and the
    largest domain's first countermodel is reported if none holds one.
    """
    chain = Chain(chain_n)
    program = RowProgram(chain_n - 1)
    goal = program.add(phi)
    goal_steps = len(program.steps)
    hypotheses = [program.add(g) for g in gamma]
    predicates = sorted(program.predicates)
    _check_model_count(language, predicates, max_domain, chain_n, cap)
    arities = [language.arity(p) for p in predicates]
    top = program.top

    def first_countermodel(size):
        """The index of the first countermodel of a domain size in
        canonical order, or None."""
        width = program.width(size)  # the row cap, before any model is read
        counts = [size ** a for a in arities]
        offsets = dict(zip(predicates, itertools.accumulate([0] + counts)))
        cells = program.atom_cells(size, offsets)
        for first, count, columns in model_chunks(sum(counts), chain_n,
                                                  width):
            rows = program.run(size, cells, count, columns, [], goal_steps)
            if rows[goal].count(top) == len(rows[goal]):
                continue
            program.run(size, cells, count, columns, rows,
                        len(program.steps))
            m = program.countermodel(rows[goal],
                                     [rows[h] for h in hypotheses], count)
            if m is not None:
                return first + m
        return None

    last = first_countermodel(max_domain) if max_domain >= 1 else None
    if last is None:
        return NoCounterexampleUpTo(max_domain, chain_n)
    for size in range(1, max_domain + 1):
        m = last if size == max_domain else first_countermodel(size)
        if m is not None:
            return RefutedBy(_countermodel(language, size, chain, predicates,
                                           arities, m))


def _countermodel(language, size, chain, predicates, arities, index):
    """The model of a domain size at an index of the canonical order, read
    digit by digit in the mixed radix of its cells."""
    counts = [size ** a for a in arities]
    digits = []
    for _ in range(sum(counts)):
        index, level = divmod(index, chain.n)
        digits.append(level)
    digits.reverse()
    starts = itertools.accumulate([0] + counts)
    return Model.from_levels(language, size, chain, {
        pred: tuple(digits[start:start + cells])
        for pred, start, cells in zip(predicates, starts, counts)})


def random_model(rng, language, max_size, chain):
    """Seeded model with uniformly random tables."""
    size = rng.randint(1, max_size)
    tables = {}
    for name, arity in language.predicates:
        tables[name] = {
            point: chain.carrier[rng.randrange(chain.n)]
            for point in itertools.product(range(size), repeat=arity)
        }
    return Model(language, size, chain, tables)
