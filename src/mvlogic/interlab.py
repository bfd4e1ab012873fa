"""The interpolation laboratory.

Order checks, brute-force interpolant search over a common vocabulary with
an independent verification pass, the finite-scale Henkin filter and
witness construction with its representation map, and the translation
bridge between polyadic terms and formulas. The propositional search reads
each candidate's truth table on chain levels once (`_levels`) against two
envelopes of a and b over the common atoms, and stops at MAX_CANDIDATES.
The Henkin filter holds the maximal `Filter` it found, one of the
algebra's own `maximal_filters`, so the Henkin search, both maps and
`quotient` share one validated set per algebra. Each maximal filter
keeps, for its lifetime, its Henkin witnesses (or None, when a pair has
none) and its quotient ranks (see mv_core.kept), which a later Henkin
build, crisp map or `quotient` on the same filter reads; an error is
never kept. Both representation maps, by quotient rank here and by
graded degree in `pavelka`, are one psi (`build_psi`) with one clause
list (`represent`), checked by `clause_result` and
`homomorphism_clauses` on products and k-variants off the view.

The Henkin search and both maps read a row once per distinct value: the
witness search reads the filter's membership row once at c_k and once at
each s[k|l], and orders the l once per (k, Delta x); the substitution
action and the cylinder suprema read each distinct column of psi once
per table, and take the sup of each set of distinct columns once.
"""

from __future__ import annotations

import itertools
import operator

from . import mv_core, semantics, syntax
# quotient is no longer called here but stays importable as
# interlab.quotient, which the benchmark's tracer tests read
from .mv_core import (  # noqa: F401
    MAX_VALUATIONS, AuditReport, Chain, _add, _instance, _interleave,
    _level_tables, _read, _row_type, _transpose, clause_result,
    column_block, homomorphism_clauses, kept, maximal_filters, quotient,
    record,
)
from .polyadic import FunctionalSetAlgebra, _check_signature
from .syntax import (
    Atom, Top, Bottom, Oplus, Odot, Implies, Neg, Forall, Exists,
    TOP, BOTTOM, predicates_of, render,
)
from .transform import FinTransformation


# The most candidate formulas an interpolant search enumerates. Every
# stratum is kept while the next is built: the 732,753 candidates of the
# exhaustive one-atom search at depth 9 take about 150 MB of max RSS
# (Python 3.11), and two atoms pass the cap at depth 9 (2,554,596).
MAX_CANDIDATES = 1_000_000


class PremiseNotEntailed(ValueError):
    """The search precondition a |= b fails within the scope."""


class ZeroElement(ValueError):
    """Henkin construction needs a nonzero starting element."""


def leq(a, b, algebra):
    """a <= b via a(*)~b = 0, cross-checked against the lattice order."""
    by_odot = algebra.odot(a, algebra.neg(b)) == algebra.zero
    by_meet = algebra.meet(a, b) == a
    if by_odot != by_meet:
        raise ArithmeticError(
            f"order routes disagree at ({a!r}, {b!r}); not an MV algebra?")
    return by_odot


@record
class VocabSplit:
    x1: frozenset
    x2: frozenset

    @property
    def common(self):
        return self.x1 & self.x2


@record
class Found:
    interpolant: object
    found = True


@record
class NotFoundWithin:
    depth: int
    found = False


def _levels(phi, atoms, top):
    """The truth table of a quantifier-free formula on the levels 0..top
    of a chain, one entry per valuation of `atoms` in product order, as an
    mv_core row of type _row_type(2 * top): ~ reads the row through
    mv_core._level_tables, and (+), (*) and -> read the sum of the two
    sides' rows. The search's own tree walk: semantics verifies what it
    finds."""
    size = (top + 1) ** len(atoms)
    if size > MAX_VALUATIONS:
        raise semantics.SearchTooLarge(
            f"{top + 1}^{len(atoms)} valuations exceed the cap of "
            f"{MAX_VALUATIONS}")
    row = _row_type(2 * top)
    neg, plus, times = _level_tables(top)
    columns = dict(zip(atoms, map(row, zip(*itertools.product(
        range(top + 1), repeat=len(atoms))))))

    def walk(phi):
        if isinstance(phi, Atom):
            return columns[phi.pred]
        if isinstance(phi, (Top, Bottom)):
            return row((top if isinstance(phi, Top) else 0,)) * size
        if isinstance(phi, Neg):
            return _read(neg, walk(phi.body))
        if not isinstance(phi, (Oplus, Odot, Implies)):
            raise ValueError("propositional scope admits no quantifiers")
        left, right = walk(phi.left), walk(phi.right)
        if isinstance(phi, Implies):
            left = _read(neg, left)  # x -> y is ~x (+) y
        sums = times if isinstance(phi, Odot) else plus
        return _read(sums, _add(left, right))

    return walk(phi)


def _envelope(phi, common, bound, top):
    """The bound (max or min) of phi over its atoms outside common."""
    others = sorted(predicates_of(phi) - set(common))
    row = _levels(phi, common + others, top)
    block = (top + 1) ** len(others)
    return [bound(row[i:i + block]) for i in range(0, len(row), block)]


def _stratum_size(size, by_size, leaves, n_vars):
    """The number of candidates of a size: the leaves at size 1; above,
    ~, A{v} and E{v} of each formula one size down, and three connectives
    per pair of formulas whose sizes sum to size - 1."""
    if size == 1:
        return leaves
    return len(by_size[size - 1]) * (1 + 2 * n_vars) + 3 * sum(
        len(by_size[l]) * len(by_size[size - 1 - l])
        for l in range(1, size - 1))


def _candidate_formulas(common, max_size, language=None, variables=()):
    """All formulas over the common predicates, by size then render order.

    Without a language every predicate is a 0-ary atom. With one, each
    predicate takes every tuple of the given variables as its arguments,
    and a formula f of one size gives A{v} f and E{v} f of the next, for
    each of the variables. Sizes are materialized lazily, so a search that
    succeeds early never pays for the deep strata. A stratum that would
    take the count past MAX_CANDIDATES raises SearchTooLarge before it is
    built.
    """
    arity = {p: 0 if language is None else language.arity(p) for p in common}
    leaves = 2 + sum(len(variables) ** arity[p] for p in common)
    by_size = {}
    total = 0
    for size in range(1, max_size + 1):
        total += _stratum_size(size, by_size, leaves, len(variables))
        if total > MAX_CANDIDATES:
            raise semantics.SearchTooLarge(
                f"{total} candidates up to size {size} exceed the cap of "
                f"{MAX_CANDIDATES}")
        if size == 1:
            batch = [BOTTOM, TOP]
            for pred in sorted(common):
                batch.extend(Atom(pred, args) for args in
                             itertools.product(variables, repeat=arity[pred]))
        else:
            smaller = by_size[size - 1]
            batch = [Neg(f) for f in smaller]
            for f in smaller:
                for v in variables:
                    batch.append(Forall(frozenset({v}), f))
                    batch.append(Exists(frozenset({v}), f))
            for lsize in range(1, size - 1):
                for left in by_size[lsize]:
                    for right in by_size[size - 1 - lsize]:
                        batch.extend((Oplus(left, right), Odot(left, right),
                                      Implies(left, right)))
        by_size[size] = batch
        yield from sorted(batch, key=render)


def interpolant_search(a, b, split, depth, chain_n=2, scope="propositional",
                       language=None):
    """First formula over the common vocabulary sitting between a and b.

    Candidates are enumerated by size, then lexicographically by canonical
    rendering; each hit is re-verified through the model-based evaluator
    before being returned. NotFoundWithin is a bounded verdict only.
    """
    top = Chain(chain_n).n - 1
    if not predicates_of(a) <= split.x1:
        raise ValueError("left formula strays outside its vocabulary")
    if not predicates_of(b) <= split.x2:
        raise ValueError("right formula strays outside its vocabulary")

    if scope == "propositional":
        # a and b share no atom outside common, so c sits between them iff
        # lo <= c <= hi at every valuation of common
        common = sorted(split.common)
        lo = _envelope(a, common, max, top)
        hi = _envelope(b, common, min, top)
        if not all(map(operator.le, lo, hi)):
            raise PremiseNotEntailed(f"{render(a)} does not entail {render(b)}")

        k = 1
        candidates = (c for c in _candidate_formulas(split.common, depth)
                      if all(x <= y <= z for x, y, z
                             in zip(lo, _levels(c, common, top), hi)))
        language = language or syntax.LanguageSpec(
            num_vars=2, reserve=1,
            predicates=tuple((p, 0) for p in sorted(split.x1 | split.x2)))
    elif isinstance(scope, tuple) and scope[0] == "bounded-model":
        k = scope[1]
        if language is None:
            raise ValueError("bounded-model scope needs the language")
        if semantics.entails([a], b, language, k, chain_n).refuted:
            raise PremiseNotEntailed(
                f"{render(a)} does not entail {render(b)} up to |M|={k}")
        variables = sorted(syntax.free_vars(a) | syntax.free_vars(b)) or ["v0"]
        candidates = _candidate_formulas(split.common, depth, language,
                                         variables)
    else:
        raise ValueError(f"unknown scope {scope!r}")

    for c in candidates:
        if not any(semantics.entails([], phi, language, k, chain_n).refuted
                   for phi in (Implies(a, c), Implies(c, b))):
            return Found(c)
    return NotFoundWithin(depth)


@record
class WitnessEntry:
    index: int          # the cylindrified coordinate k
    element: object     # x with c_k x in the filter
    chosen: int         # the witness l with s[k|l] x in the filter
    spare: bool         # whether l avoids the dimension set of x


@record
class HenkinFilter:
    filter: mv_core.Filter  # the maximal filter, of the algebra
    seed: object            # the nonzero element the build started from
    witnesses: tuple

    @property
    def members(self):  # in element form
        return self.filter.members


@record
class Exhausted:
    examined: int
    reason: str = "no maximal filter satisfies the witness property"


def henkin_filter_build(algebra, a):
    """First maximal filter containing a whose pairs all have witnesses.

    For every pair (k, x) with c_k x in the candidate filter, a witness l
    with s[k|l] x in the filter is sought first among the spare indices
    outside Delta x (the construction's fresh coordinates), then anywhere
    in the index set; at a fixed finite dimension the spare-only demand is
    unsatisfiable as soon as the carrier holds two-coordinate conjuncts,
    so the fallback is recorded per pair rather than imposed. A filter
    with a witness-less pair is skipped; Exhausted reports how many
    candidates were examined. A value outside the carrier is refused
    with a SignatureError naming it. The witnesses depend on the filter
    alone, and are found once per maximal filter and kept on it (see
    mv_core.kept): the tuple, or None for a filter with a witness-less
    pair.
    """
    if a == algebra.zero:
        raise ZeroElement("the starting element must be nonzero")
    V = algebra.indexed()
    start = _check_signature(V, a)
    singles = [next(iter(j)) for j in algebra.scopes if len(j) == 1]
    index = algebra.index_set

    def witnesses(members):
        # membership rows over x: of c_k x, and of s[k|l] x per l, each one
        # read of the filter's mask; the order of l once per (k, Delta x)
        mask = V.row(x in members for x in V.carrier)
        found = []
        for k in singles:
            inside = _read(mask, V.cyl[frozenset({k})])
            hits = {l: _read(mask, repl) for l in index
                    if (repl := V.replacement(k, l)) is not None}
            orders = {}
            for x in V.carrier:
                if not inside[x]:
                    continue
                delta = V.dimensions[x]
                order = orders.get(delta)
                if order is None:
                    order = orders[delta] = [
                        (l, hits[l], l not in delta)
                        for l in sorted(index, key=delta.__contains__)
                        if l in hits]
                for l, hit, spare in order:
                    if hit[x]:
                        found.append(WitnessEntry(k, V.elements[x], l, spare))
                        break
                else:
                    return None
        return tuple(found)

    candidates = [f for f in maximal_filters(algebra) if start in f.ids]
    for flt in candidates:
        found = kept(flt, "witnesses", lambda: witnesses(flt.ids))
        if found is not None:
            return HenkinFilter(flt, a, found)
    return Exhausted(len(candidates))


def build_psi(V, levels, vs, top):
    """psi on view indices, from the level of each carrier index: (rows,
    columns), rows[i][xi] = columns[xi][i] = levels[s_x i], x = vs[xi].
    Each column is the levels read at s_x's table once, as a row of the
    type homomorphism_clauses reads; the rows are their transpose."""
    row = _row_type(max(len(V.carrier) - 1, 2 * top))
    levels = row(levels)
    columns = [_read(levels, row(V.subst[x])) for x in vs]
    return _transpose(columns, len(V.carrier)), columns


def _read_columns(columns, at):
    """The list of the columns, each read at the row at; a column is read
    once however often it repeats (psi over the 27 maps of an |I| = 3
    algebra may have 4 distinct columns)."""
    by_column = {col: _read(col, at) for col in set(columns)}
    return list(map(by_column.__getitem__, columns))


def cyl_sup_clause(V, columns):
    """psi(c_k p)(x) is the sup of psi(p) over the k-variants of x.

    One block per k of the signature: each column of psi (see build_psi)
    read at c_k's table, against the sup of the columns of x's k-variants,
    taken once per set of distinct columns. An instance is one (p, x);
    only a block whose columns differ is interleaved into its instances,
    p by p, and rescanned.
    """
    row, n = type(columns[0]), len(V.carrier)
    sup_of = {}

    def blocks():
        for k in (next(iter(j)) for j in V.algebra.scopes if len(j) == 1):
            sups = [None] * len(V.maps)
            for group in V.agreement({k}):
                distinct = frozenset(map(columns.__getitem__, group))
                sup = sup_of.get(distinct)
                if sup is None:
                    # the first column passed twice keeps max from being
                    # handed a lone level
                    sup = sup_of[distinct] = row(map(
                        max, columns[group[0]], *distinct))
                for xi in group:
                    sups[xi] = sup
            lhs = _read_columns(columns, row(V.cyl[frozenset({k})]))
            witnesses = ((k, p, x) for p in V.elements for x in V.maps)
            yield ((lhs, sups, witnesses, n * len(columns)) if lhs == sups
                   else (_interleave(lhs), _interleave(sups), witnesses))

    return clause_result("cyl-sup", blocks())


def represent(algebra, hf, levels, pav=None):
    """psi(p)(x) = the level of s_x p, for x in V, as rows on view indices
    (psi[i][xi], p = V.elements[i]), and its AuditReport; levels(flt)
    gives the chain and the level of each carrier index.

    Checked exhaustively over the carrier and V: the images of 0 and 1;
    for the graded map of a Pavelka algebra pav, psi(r-bar) constant at r;
    preservation of ~, (+), (*); for the crisp map (no pav), the
    substitution action psi(s_tau p) = psi(p) o (- o tau); the cylinder
    suprema (see cyl_sup_clause); and for the crisp map, that psi does not
    kill the seed at the identity coordinate.
    """
    V = algebra.indexed()
    mv_core.filter_ids(hf.filter, algebra)  # refuses another algebra's
    chain, level = levels(hf.filter)
    vs, top = algebra.transformations, chain.n - 1
    rows, columns = build_psi(V, level, vs, top)
    row, n = type(columns[0]), len(V.carrier)

    def subst_blocks():
        # psi(s_tau p) against psi(p) read at the coordinates x tau: each
        # column read at s_tau's table against the column of x tau
        for tau, targets in zip(vs, zip(*V.composition)):
            if None not in targets:
                yield column_block(_read_columns(columns, row(V.subst[tau])),
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
    results += homomorphism_clauses(V, columns, top)
    if pav is None:
        results.append(clause_result("subst-action", subst_blocks()))
    results.append(cyl_sup_clause(V, columns))
    identity = V.position.get(algebra.index_set)
    if pav is None and identity is not None:
        seed = rows[V.index_of[hf.seed]][identity]
        results.append(clause_result("nonzero-at-identity", [_instance(
            seed != 0, True, ("identity component of the seed element",))]))
    return rows, AuditReport(tuple(results))


def representation_map(algebra, hf):
    """psi(p)(x) = class of s_x p in the quotient chain, for x in V, as
    rows on view indices, and its audit (see represent)."""
    return represent(algebra, hf, mv_core.quotient_ranks)


# -- terms over the polyadic signature and their translation ---------------


@record
class TermVar:
    index: int


@record
class TermZero:
    pass


@record
class TermOne:
    pass


@record
class TermNeg:
    body: object


@record
class TermOplus:
    left: object
    right: object


@record
class TermOdot:
    left: object
    right: object


@record
class TermCyl:
    index: int
    body: object


@record
class TermSub:
    tau: FinTransformation
    body: object


def eta_translate(term, n_indices):
    """Translate a signature term into a formula.

    Term variables x_i become atoms p_i(v0..v{n-1}) in natural variable
    order, cylinders become single-variable existential blocks, and
    substitution operators become full syntactic substitutions executed
    freely (bound blocks renamed to fresh variables first) - raw
    block-renaming substitution is not faithful for non-injective maps at
    a fixed finite supply of variables.
    """
    vs = tuple(f"v{i}" for i in range(n_indices))
    if isinstance(term, TermVar):
        return Atom(f"p{term.index}", vs)
    if isinstance(term, TermZero):
        return BOTTOM
    if isinstance(term, TermOne):
        return TOP
    if isinstance(term, TermNeg):
        return Neg(eta_translate(term.body, n_indices))
    if isinstance(term, TermOplus):
        return Oplus(eta_translate(term.left, n_indices),
                     eta_translate(term.right, n_indices))
    if isinstance(term, TermOdot):
        return Odot(eta_translate(term.left, n_indices),
                    eta_translate(term.right, n_indices))
    if isinstance(term, TermCyl):
        return Exists(frozenset({f"v{term.index}"}),
                      eta_translate(term.body, n_indices))
    if isinstance(term, TermSub):
        tau_vars = {f"v{i}": f"v{term.tau.apply(i)}"
                    for i in term.tau.domain}
        return syntax.substitute_capture_avoiding(
            tau_vars, eta_translate(term.body, n_indices))
    raise TypeError(f"not a term: {term!r}")


def term_eval(term, algebra, var_elements):
    """Evaluate a term in a functional set algebra, variables as given."""
    if isinstance(term, TermVar):
        return var_elements[term.index]
    if isinstance(term, TermZero):
        return algebra.zero
    if isinstance(term, TermOne):
        return algebra.one
    if isinstance(term, TermNeg):
        return algebra.neg(term_eval(term.body, algebra, var_elements))
    if isinstance(term, TermOplus):
        return algebra.oplus(term_eval(term.left, algebra, var_elements),
                             term_eval(term.right, algebra, var_elements))
    if isinstance(term, TermOdot):
        return algebra.odot(term_eval(term.left, algebra, var_elements),
                            term_eval(term.right, algebra, var_elements))
    if isinstance(term, TermCyl):
        return algebra.cyl_el(frozenset({term.index}),
                              term_eval(term.body, algebra, var_elements))
    if isinstance(term, TermSub):
        return algebra.subst_el(term.tau,
                                term_eval(term.body, algebra, var_elements))
    raise TypeError(f"not a term: {term!r}")


def eta_agreement_check(term, model):
    """Compare the translated formula against the term, pointwise.

    The formula is evaluated through the semantics module as one row over
    the assignments of v0..v{n-1}, in the set algebra's assignment order
    (product order); the term is evaluated in the set algebra
    whose variables are the model's predicate tables. Both sides are
    functions from assignment tuples into the chain.
    """
    tables = model.tables
    preds = sorted(tables)
    if not preds:
        raise ValueError("model declares no predicates")
    arities = {model.language.arity(p) for p in preds}
    if len(arities) != 1:
        raise ValueError("term signature needs a uniform predicate arity")
    n = arities.pop()

    algebra = FunctionalSetAlgebra(
        index_set=tuple(range(n)),
        base=tuple(model.domain),
        chain=model.chain,
        carrier=(), generators=(), transformations=(), scopes=())
    var_elements = {}
    for name in preds:
        if not name.startswith("p"):
            raise ValueError(f"term variables map to p<i>; got {name!r}")
        i = int(name[1:])
        var_elements[i] = tuple(tables[name][x]
                                for x in algebra.assignments)

    term_side = term_eval(term, algebra, var_elements)
    row = semantics.assignment_row(eta_translate(term, n), model,
                                   [f"v{i}" for i in range(n)])
    return term_side == tuple(map(model.chain.carrier.__getitem__, row))
