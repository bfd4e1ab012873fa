"""Rational Pavelka extension: truth-constant-enriched algebras, the
constant compatibility laws, graded degrees of membership with their dual
forms, quantifier invariance of constants, and the graded representation
map built on a Henkin filter: `interlab.represent`'s psi on view indices,
with the graded degree as its level function. Every law reads filter
indices and view tables through `clause_result` into an `AuditReport`."""

from __future__ import annotations

import itertools

from .mv_core import (
    AuditReport, Chain, Filter, ZERO, _coding, _instance, _level_tables,
    clause_result, filter_ids, kept, record,
)
from .interlab import HenkinFilter, represent


@record
class PavelkaAlgebra:
    """An algebra together with truth constants indexed by a finite chain.

    base is any finite MV algebra with an indexed view; constants maps
    chain values r, and only those, to the elements playing r-bar, which
    base.check_args refuses outside its carrier. The
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
        # derived once (the record is frozen): (level, view index) pairs
        chain, (_, enc, _) = self.chain, _coding(self.base)
        chain.check_args(self.levels)
        self.base.check_args([e for _, e in self.constants])
        object.__setattr__(self, "_bar", tuple(
            (int(r * (chain.n - 1)), enc(e)) for r, e in self.constants))

    def constant(self, r):
        return dict(self.constants)[r]

    @property
    def levels(self):
        return tuple(r for r, _ in self.constants)


@record
class GradedContext:
    algebra: PavelkaAlgebra
    filter: Filter

    def __post_init__(self):
        if not self.filter.is_proper:
            raise ValueError("graded degrees need a proper filter")
        filter_ids(self.filter, self.algebra.base)


def constants_check(pav):
    """0-bar = 0, (r (+) s)-bar = r-bar (+) s-bar, (~r)-bar = ~(r-bar)."""
    V, rs, bar = pav.base.indexed(), pav.levels, pav._bar
    top, at = pav.chain.n - 1, dict(bar).get
    plus = _level_tables(top)[1]  # min(l + m, top) per sum l + m
    return AuditReport((
        clause_result("zero-constant", [_instance(at(0), V.zero, (ZERO,))]),
        clause_result("oplus-compatible", (
            ([V.oplus[c][d] for _, d in bar],
             [at(plus[l + m]) for m, _ in bar],
             zip(itertools.repeat(r), rs))
            for r, (l, c) in zip(rs, bar))),
        clause_result("neg-compatible", [(
            [V.neg[c] for _, c in bar], [at(top - l) for l, _ in bar],
            zip(rs))]),
    ))


def _degrees(pav, flt, ids, form):
    """The degrees of one form of the view indices ids as chain levels:
    degree's (form 0), else 0, or degree_dual's (form 1), else the top."""
    V, bar, members = pav.base.indexed(), pav._bar, filter_ids(flt, pav.base)
    if form == 0:
        return [max((l for l, c in bar if V.implies(c, a) in members),
                    default=0) for a in ids]
    return [min((l for l, c in bar if V.implies(a, c) in members),
                default=pav.chain.n - 1) for a in ids]


def _degree(a, ctx, form):
    """The chain value of the element a's degree of one form (_degrees)."""
    pav = ctx.algebra
    pav.base.check_args((a,))
    (level,) = _degrees(pav, ctx.filter, [_coding(pav.base)[1](a)], form)
    return pav.chain.carrier[level]


def degree(a, ctx):
    """[a]_H: the largest constant level r with r-bar -> a in the filter."""
    return _degree(a, ctx, 0)


def degree_dual(a, ctx):
    """The dual form: the least r with a -> r-bar in the filter."""
    return _degree(a, ctx, 1)


def degree_forms_check(pav, flt):
    """Sup-form degree equals inf-form degree for every element."""
    V, _, dec = _coding(pav.base)
    flt = GradedContext(pav, flt).filter
    ups, downs = (_degrees(pav, flt, V.carrier, form) for form in (0, 1))
    return AuditReport((clause_result("degree-sup-equals-inf", [(
        ups, downs, ((dec(a), pav.chain.carrier[u], pav.chain.carrier[d])
                     for a, u, d in zip(V.carrier, ups, downs)))]),))


def pavelka_lemma_check(pav, flt):
    """r-bar in P iff r = 1, and r-bar/P <= s-bar/P iff r <= s."""
    V, rs, bar = pav.base.indexed(), pav.levels, pav._bar
    members, top = filter_ids(flt, pav.base), pav.chain.n - 1
    return AuditReport((
        clause_result("membership-iff-one", [(
            [c in members for _, c in bar], [l == top for l, _ in bar],
            zip(rs))]),
        clause_result("quotient-order-matches", (
            ([V.implies(c, d) in members for _, d in bar],
             [l <= m for m, _ in bar], zip(itertools.repeat(r), rs))
            for r, (l, c) in zip(rs, bar))),
    ))


def pavelka_quantifier_check(pav, algebra):
    """Existential invariance of constants: c_J r-bar = r-bar for all J."""
    return AuditReport((clause_result("exists-r-equals-r({checked} cases)", (
        _instance(cyl[c], c, (r, sorted(j)))
        for r, (_, c) in zip(pav.levels, pav._bar)
        for j, cyl in algebra.indexed().cyl.items())),))


def functional_pavelka(algebra, require_full=True):
    """View a functional set algebra as a Pavelka algebra.

    The constants are the chain values realized as constant functions in
    the carrier; with require_full every chain value must be realized.
    The Pavelka algebra is built once per algebra object and value of
    require_full, and kept on the algebra (see mv_core.kept); the
    ValueError of a missing constant is raised on every call.
    """
    def build():
        size = len(algebra.assignments)
        table = {r: (r,) * size for r in algebra.chain.carrier
                 if algebra.contains((r,) * size)}
        if require_full and len(table) != algebra.chain.n:
            missing = [r for r in algebra.chain.carrier if r not in table]
            raise ValueError(
                f"carrier lacks constant functions for {missing}")
        return PavelkaAlgebra.make(algebra, algebra.chain, table)

    return kept(algebra, ("pavelka", require_full), build)


def pavelka_representation(algebra, pav, hf):
    """psi(p)(x) = [s_x p] by graded degree, as rows on view indices, and
    its audit (see interlab.represent): the unit images, psi(r-bar)
    constant at r, preservation of (+), (*), ~ and the cylinder supremum
    [s_x c_i p] = sup over k-variants."""
    if not isinstance(hf, HenkinFilter):
        raise TypeError("the graded representation is built on a HenkinFilter")
    return represent(algebra, hf, lambda flt: (
        pav.chain, _degrees(pav, flt, algebra.indexed().carrier, 0)), pav)
