"""The interpolation laboratory.

Order checks, brute-force interpolant search over a common vocabulary with
an independent verification pass, the finite-scale Henkin filter and
witness construction with its representation map, and the translation
bridge between polyadic terms and formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import mv_core, semantics, syntax
# quotient is no longer called here but stays importable as
# interlab.quotient, which the benchmark's tracer tests read
from .mv_core import Chain, ONE, ZERO, maximal_filters, quotient  # noqa: F401
from .polyadic import FunctionalSetAlgebra, first_witness
from .syntax import (
    Atom, Top, Bottom, Oplus, Odot, Implies, Neg, Forall, Exists,
    TOP, BOTTOM, predicates_of, render,
)
from .transform import FinTransformation, compose


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


@dataclass(frozen=True)
class VocabSplit:
    x1: frozenset
    x2: frozenset

    @property
    def common(self):
        return self.x1 & self.x2


@dataclass(frozen=True)
class Found:
    interpolant: object
    found = True


@dataclass(frozen=True)
class NotFoundWithin:
    depth: int
    found = False


def _prop_eval(phi, valuation, chain):
    """Direct recursive valuation of a quantifier-free formula.

    This is the search-side evaluator; verification goes through the
    semantics module so the two verdicts never share a code path.
    """
    if isinstance(phi, Atom):
        return valuation[phi.pred]
    if isinstance(phi, Top):
        return ONE
    if isinstance(phi, Bottom):
        return ZERO
    if isinstance(phi, Neg):
        return chain.neg(_prop_eval(phi.body, valuation, chain))
    if isinstance(phi, Oplus):
        return chain.oplus(_prop_eval(phi.left, valuation, chain),
                           _prop_eval(phi.right, valuation, chain))
    if isinstance(phi, Odot):
        return chain.odot(_prop_eval(phi.left, valuation, chain),
                          _prop_eval(phi.right, valuation, chain))
    if isinstance(phi, Implies):
        return chain.implies(_prop_eval(phi.left, valuation, chain),
                             _prop_eval(phi.right, valuation, chain))
    raise ValueError("propositional scope admits no quantifiers")


def _prop_entails(a, b, atoms, chain):
    for values in itertools.product(chain.carrier, repeat=len(atoms)):
        valuation = dict(zip(atoms, values))
        if _prop_eval(a, valuation, chain) > _prop_eval(b, valuation, chain):
            return False
    return True


def _candidate_formulas(atoms, max_size):
    """All formulas over the given 0-ary atoms, by size then render order.

    Sizes are materialized lazily, so a search that succeeds early never
    pays for the deep strata.
    """
    atoms = sorted(atoms)
    by_size = {}
    for size in range(1, max_size + 1):
        if size == 1:
            batch = [BOTTOM, TOP] + [Atom(p, ()) for p in atoms]
        else:
            batch = [Neg(f) for f in by_size[size - 1]]
            for lsize in range(1, size - 1):
                rsize = size - 1 - lsize
                for left in by_size[lsize]:
                    for right in by_size[rsize]:
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
    chain = Chain(chain_n)
    used = predicates_of(a) | predicates_of(b)
    if not predicates_of(a) <= split.x1:
        raise ValueError("left formula strays outside its vocabulary")
    if not predicates_of(b) <= split.x2:
        raise ValueError("right formula strays outside its vocabulary")

    if scope == "propositional":
        atoms = sorted(used)
        if not _prop_entails(a, b, atoms, chain):
            raise PremiseNotEntailed(f"{render(a)} does not entail {render(b)}")

        def holds(lhs, rhs):
            return _prop_entails(lhs, rhs, sorted(predicates_of(lhs)
                                                  | predicates_of(rhs)), chain)

        verify_language = language or syntax.LanguageSpec(
            num_vars=2, reserve=1,
            predicates=tuple((p, 0) for p in sorted(split.x1 | split.x2)))

        def verified(c):
            left = semantics.entails([], Implies(a, c), verify_language,
                                     1, chain_n)
            right = semantics.entails([], Implies(c, b), verify_language,
                                      1, chain_n)
            return (not left.refuted) and (not right.refuted)

        for c in _candidate_formulas(split.common, depth):
            if holds(a, c) and holds(c, b) and verified(c):
                return Found(c)
        return NotFoundWithin(depth)

    if isinstance(scope, tuple) and scope[0] == "bounded-model":
        k = scope[1]
        if language is None:
            raise ValueError("bounded-model scope needs the language")
        base = semantics.entails([a], b, language, k, chain_n)
        if base.refuted:
            raise PremiseNotEntailed(
                f"{render(a)} does not entail {render(b)} up to |M|={k}")
        variables = sorted(syntax.free_vars(a) | syntax.free_vars(b)) or ["v0"]
        for c in _bounded_candidates(split.common, language, variables, depth):
            if not semantics.entails([], Implies(a, c), language, k,
                                     chain_n).refuted \
                    and not semantics.entails([], Implies(c, b), language, k,
                                              chain_n).refuted:
                return Found(c)
        return NotFoundWithin(depth)

    raise ValueError(f"unknown scope {scope!r}")


def _bounded_candidates(common, language, variables, max_size):
    by_size = {}
    for size in range(1, max_size + 1):
        if size == 1:
            batch = [BOTTOM, TOP]
            for pred in sorted(common):
                arity = language.arity(pred)
                for args in itertools.product(variables, repeat=arity):
                    batch.append(Atom(pred, args))
        else:
            batch = [Neg(f) for f in by_size[size - 1]]
            for f in by_size[size - 1]:
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


@dataclass(frozen=True)
class WitnessEntry:
    index: int          # the cylindrified coordinate k
    element: object     # x with c_k x in the filter
    chosen: int         # the witness l with s[k|l] x in the filter
    spare: bool         # whether l avoids the dimension set of x


@dataclass(frozen=True)
class HenkinFilter:
    algebra: object
    members: frozenset
    atom: object       # generating idempotent of the filter
    seed: object       # the nonzero element the build started from
    witnesses: tuple

    def __contains__(self, p):
        return p in self.members


@dataclass(frozen=True)
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
    candidates were examined.
    """
    if a == algebra.zero:
        raise ZeroElement("the starting element must be nonzero")
    V = algebra.indexed()
    start = V.index_of.get(a)
    index = list(algebra.index_set)
    domain = tuple(sorted(index))
    singles = [next(iter(j)) for j in algebra.scopes if len(j) == 1]
    replacements = {
        (k, l): V.subst.get(FinTransformation.replacement(domain, k, l))
        for k in singles for l in index}
    examined = 0

    def witnesses(members):
        found = []
        for k in singles:
            ck = V.cyl[frozenset({k})]
            for x in V.carrier:
                if ck[x] not in members:
                    continue
                delta = V.dimension_set(x)
                spare_first = [l for l in index if l not in delta] + \
                              [l for l in index if l in delta]
                for l in spare_first:
                    repl = replacements[k, l]
                    if repl is not None and repl[x] in members:
                        found.append(WitnessEntry(k, V.elements[x], l,
                                                  l not in delta))
                        break
                else:
                    return None
        return found

    for flt in maximal_filters(V):
        if start not in flt.members:
            continue
        examined += 1
        found = witnesses(flt.members)
        if found is not None:
            atom = mv_core.filter_generator(flt)
            return HenkinFilter(
                algebra, frozenset(V.elements[i] for i in flt.members),
                V.elements[atom], a, tuple(found))
    return Exhausted(examined)


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    holds: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class RepresentationAudit:
    results: tuple

    @property
    def passed(self):
        return all(r.holds for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.holds]


def clause_result(name, pairs):
    """The clause, failing at the first (lhs, rhs, witness) that differs."""
    _, witness = first_witness(pairs)
    return ClauseResult(name, witness is None, witness)


def psi_rows(V, levels, vs):
    """psi over carrier indices: rows[i][xi] is levels[s_x i], x = vs[xi]."""
    subst = [V.subst[x] for x in vs]
    return [tuple(levels[s[i]] for s in subst) for i in V.carrier]


def homomorphism_clauses(V, rows, top):
    """The ~, (+) and (*) clauses of a map psi given by level rows.

    rows[i] is psi of carrier index i as levels 0..top of a chain, one per
    coordinate; the chain operations act on levels.
    """
    els = V.elements
    results = [clause_result("neg", (
        (rows[V.neg[i]], tuple(top - r for r in row), (els[i],))
        for i, row in enumerate(rows)))]
    for name, table, combine in (
            ("oplus", V.oplus, lambda u, v: min(u + v, top)),
            ("odot", V.odot, lambda u, v: max(u + v - top, 0))):
        results.append(clause_result(name, (
            (rows[table[i][k]], tuple(map(combine, row, rows[k])),
             (els[i], els[k]))
            for i, row in enumerate(rows) for k in V.carrier)))
    return results


def cyl_sup_clause(V, rows, vs):
    """psi(c_k p)(x) is the sup of psi(p) over the k-variants of x in vs."""
    index_set = V.algebra.index_set

    def pairs():
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
                           (k, V.elements[i], vs[xi]))

    return clause_result("cyl-sup", pairs())


def representation_map(algebra, hf, transformations=None):
    """psi(p)(x) = class of s_x p in the quotient chain, for x in V.

    The audit checks, exhaustively over the carrier and V: preservation of
    (+), (*), ~, 0, 1; the substitution action psi(s_tau p) = psi(p) o
    (- o tau); the cylinder suprema psi(c_k p)(x) = sup of psi(p) over the
    k-variants of x inside V; and that psi does not kill the filter's
    element at the identity coordinate.
    """
    V = algebra.indexed()
    flt = mv_core.Filter(V, frozenset(V.index_of[p] for p in hf.members))
    chain, ranks = mv_core.quotient_ranks(flt)
    vs = tuple(transformations) if transformations is not None \
        else algebra.transformations
    position = {x: xi for xi, x in enumerate(vs)}
    top = chain.n - 1
    rows = psi_rows(V, ranks, vs)

    def subst_pairs():
        for tau in vs:
            targets = [position.get(compose(x, tau)) for x in vs]
            if None in targets:
                continue
            s_tau = V.subst[tau]
            for i, row in enumerate(rows):
                yield (rows[s_tau[i]], tuple(row[t] for t in targets),
                       (tau, V.elements[i]))

    results = [
        clause_result("unit-0", [(rows[V.zero], (0,) * len(vs), ("0",))]),
        clause_result("unit-1", [(rows[V.one], (top,) * len(vs), ("1",))]),
        *homomorphism_clauses(V, rows, top),
        clause_result("subst-action", subst_pairs()),
        cyl_sup_clause(V, rows, vs),
    ]
    identity = FinTransformation.identity(tuple(sorted(algebra.index_set)))
    if identity in position:
        seed = rows[V.index_of[hf.seed]][position[identity]]
        results.append(clause_result("nonzero-at-identity", [
            (seed != 0, True, ("identity component of the seed element",))]))
    psi = {p: tuple(chain.carrier[r] for r in rows[i])
           for i, p in enumerate(V.elements)}
    return psi, RepresentationAudit(tuple(results))


# -- terms over the polyadic signature and their translation ---------------


@dataclass(frozen=True)
class TermVar:
    index: int


@dataclass(frozen=True)
class TermZero:
    pass


@dataclass(frozen=True)
class TermOne:
    pass


@dataclass(frozen=True)
class TermNeg:
    body: object


@dataclass(frozen=True)
class TermOplus:
    left: object
    right: object


@dataclass(frozen=True)
class TermOdot:
    left: object
    right: object


@dataclass(frozen=True)
class TermCyl:
    index: int
    body: object


@dataclass(frozen=True)
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

    The formula is evaluated through the semantics module at every
    assignment of v0..v{n-1}; the term is evaluated in the set algebra
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
    phi = eta_translate(term, n)
    formula_side = tuple(
        semantics.eval_formula(
            phi, model,
            semantics.Assignment({f"v{i}": x[i] for i in range(n)}))
        for x in algebra.assignments
    )
    return term_side == formula_side
