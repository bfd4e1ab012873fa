"""Rational Pavelka extension: truth-constant-enriched algebras, the
constant compatibility laws, graded degrees of membership with their dual
forms, quantifier invariance of constants, and the graded representation
map built on a Henkin filter. Every law and clause is checked by
`mv_core.clause_result`; each check returns an `mv_core.AuditReport`."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .mv_core import (
    AuditReport, Chain, Filter, ONE, ZERO, _instance, clause_result,
    homomorphism_clauses,
)
from .interlab import HenkinFilter, cyl_sup_clause, psi_rows


@dataclass(frozen=True)
class PavelkaAlgebra:
    """An algebra together with truth constants indexed by a finite chain.

    base is any finite MV-ops carrier (a chain, a functional polyadic
    algebra, or an IndexedAlgebra over carrier indices); constants maps
    each chain value r to the carrier element playing r-bar. The
    compatibility laws are checked by constants_check, not at
    construction, so corrupted instances can be built for mutation tests.
    """

    base: object
    chain: Chain
    constants: tuple  # sorted ((r, element), ...)

    @classmethod
    def make(cls, base, chain, constants):
        return cls(base, chain, tuple(sorted(constants.items())))

    @classmethod
    def full_chain(cls, chain):
        """The chain over itself with every value its own constant."""
        return cls.make(chain, chain, {r: r for r in chain.carrier})

    def __post_init__(self):
        # derived once; the dataclass is frozen
        object.__setattr__(self, "_constant", dict(self.constants))

    def constant(self, r):
        if r not in self._constant:
            raise KeyError(f"no constant for {r}")
        return self._constant[r]

    @property
    def levels(self):
        return tuple(r for r, _ in self.constants)


@dataclass(frozen=True)
class GradedContext:
    algebra: PavelkaAlgebra
    filter: Filter

    def __post_init__(self):
        if not self.filter.is_proper:
            raise ValueError("graded degrees need a proper filter")


def constants_check(pav):
    """0-bar = 0, (r (+) s)-bar = r-bar (+) s-bar, (~r)-bar = ~(r-bar)."""
    base, chain, bar = pav.base, pav.chain, pav.constant
    return AuditReport((
        clause_result("zero-constant",
                      [_instance(bar(ZERO), base.zero, (ZERO,))]),
        clause_result("oplus-compatible", (
            _instance(base.oplus(bar(r), bar(s)), bar(chain.oplus(r, s)),
                      (r, s))
            for r, s in itertools.product(pav.levels, repeat=2))),
        clause_result("neg-compatible", (
            _instance(base.neg(bar(r)), bar(chain.neg(r)), (r,))
            for r in pav.levels)),
    ))


def degree(a, ctx):
    """[a]_H: the largest constant level r with r-bar -> a in the filter."""
    base = ctx.algebra.base
    members = ctx.filter.members
    best = ZERO
    for r in ctx.algebra.levels:
        if base.implies(ctx.algebra.constant(r), a) in members and r > best:
            best = r
    return best


def degree_dual(a, ctx):
    """The dual form: the least r with a -> r-bar in the filter."""
    base = ctx.algebra.base
    members = ctx.filter.members
    best = ONE
    for r in ctx.algebra.levels:
        if base.implies(a, ctx.algebra.constant(r)) in members and r < best:
            best = r
    return best


def degree_forms_check(pav, flt):
    """Sup-form degree equals inf-form degree for every element."""
    ctx = GradedContext(pav, flt)
    return AuditReport((clause_result("degree-sup-equals-inf", (
        _instance(up, down, (a, up, down)) for a in pav.base.carrier
        for up, down in [(degree(a, ctx), degree_dual(a, ctx))])),))


def pavelka_lemma_check(pav, flt):
    """r-bar in P iff r = 1, and r-bar/P <= s-bar/P iff r <= s."""
    base, bar, members = pav.base, pav.constant, flt.members
    return AuditReport((
        clause_result("membership-iff-one", (
            _instance(bar(r) in members, r == ONE, (r,))
            for r in pav.levels)),
        clause_result("quotient-order-matches", (
            _instance(base.implies(bar(r), bar(s)) in members, r <= s, (r, s))
            for r, s in itertools.product(pav.levels, repeat=2))),
    ))


def pavelka_quantifier_check(pav, algebra):
    """Existential invariance of constants: c_J r-bar = r-bar for all J."""
    return AuditReport((clause_result("exists-r-equals-r({checked} cases)", (
        _instance(algebra.cyl_el(j, rbar), rbar, (r, sorted(j)))
        for r in pav.levels for rbar in [pav.constant(r)]
        for j in algebra.scopes)),))


def constants_as_elements(algebra):
    """The chain constants realized as constant functions of the algebra."""
    size = len(algebra.assignments)
    table = {}
    for r in algebra.chain.carrier:
        el = tuple(r for _ in range(size))
        if algebra.contains(el):
            table[r] = el
    return table


def functional_pavelka(algebra, require_full=True):
    """View a functional set algebra as a Pavelka algebra.

    The constants are the chain values realized as constant functions in
    the carrier; with require_full every chain value must be realized.
    """
    table = constants_as_elements(algebra)
    if require_full and len(table) != algebra.chain.n:
        missing = [r for r in algebra.chain.carrier if r not in table]
        raise ValueError(f"carrier lacks constant functions for {missing}")
    return PavelkaAlgebra.make(algebra, algebra.chain, table)


def pavelka_representation(algebra, pav, hf):
    """psi(p)(x) = [s_x p] by graded degree; audited exhaustively.

    Clauses: preservation of (+), (*), ~; psi(r-bar) constant at r; the
    cylinder supremum [s_x c_i p] = sup over k-variants; and unit images.
    """
    if not isinstance(hf, HenkinFilter):
        raise TypeError("the graded representation is built on a HenkinFilter")
    V = algebra.indexed()
    flt = Filter(V, frozenset(V.index_of[p] for p in hf.members))
    ctx = GradedContext(PavelkaAlgebra.make(
        V, pav.chain, {r: V.index_of[e] for r, e in pav.constants}), flt)
    vs = algebra.transformations
    top = pav.chain.n - 1
    level = {v: r for r, v in enumerate(pav.chain.carrier)}
    rows = psi_rows(V, [level[degree(i, ctx)] for i in V.carrier], vs)

    results = [
        clause_result("unit-0", [_instance(rows[V.zero], (0,) * len(vs),
                                           ("0",))]),
        clause_result("unit-1", [_instance(rows[V.one], (top,) * len(vs),
                                           ("1",))]),
        clause_result("constants", [(
            [rows[V.index_of[pav.constant(r)]] for r in pav.levels],
            [(level[r],) * len(vs) for r in pav.levels],
            zip(pav.levels))]),
        *homomorphism_clauses(V, rows, top),
        cyl_sup_clause(V, rows),
    ]
    psi = {p: tuple(pav.chain.carrier[r] for r in rows[i])
           for i, p in enumerate(V.elements)}
    return psi, AuditReport(tuple(results))
