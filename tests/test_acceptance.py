"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is exact (rational equality); the stated wall-clock
budgets are asserted where the criterion names one.
"""

import itertools
import json
import operator
import random
import time
from fractions import Fraction as F

import pytest

from builders import henkin_demo_algebra, pattern_generator
from mvlogic import calculus, semantics
from mvlogic.cli import dispatch
from mvlogic.interlab import (
    HenkinFilter, PremiseNotEntailed, TermCyl, TermNeg, TermOdot, TermOne,
    TermOplus, TermSub, TermVar, TermZero, VocabSplit, _levels,
    eta_agreement_check, henkin_filter_build, interpolant_search,
    representation_map,
)
from mvlogic.mv_core import (
    Chain, StandardRationals, check_mv_axioms, principal_filter,
    residuum_by_maximization,
)
from mvlogic.pavelka import (
    PavelkaAlgebra, constants_check, degree_forms_check, functional_pavelka,
    pavelka_lemma_check, pavelka_quantifier_check, pavelka_representation,
)
from mvlogic.polyadic import audit_axioms, build_generated, dimension_set
from mvlogic.semantics import Assignment, Model, eval_formula, random_model
from mvlogic.syntax import (
    Atom, BOTTOM, Implies, LanguageSpec, Neg, Odot, Oplus, TOP, free_vars,
    predicates_of, random_formula, substitute,
)
from mvlogic.transform import (
    FinTransformation, PRED, SUC, SemigroupSpec, check_strongly_rich,
    semigroup_closure,
)


def verdict(number, description, ok):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_mv_axiom_suite():
    started = time.monotonic()
    ok = True
    for n in range(2, 7):
        report = check_mv_axioms(Chain(n))
        ok = ok and report.passed and len(report.results) == 8
    sampled = check_mv_axioms(StandardRationals(), mode="sampled",
                              count=100000, seed=1)
    ok = ok and sampled.passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    verdict(1, f"eight axiom groups on L2..L6 + 1e5 sampled triples "
               f"({elapsed:.1f}s < 10s)", ok)


def test_criterion_02_residuation():
    ok = True
    for n in range(2, 12):
        chain = Chain(n)
        for x, y in itertools.product(chain.carrier, repeat=2):
            closed = chain.implies(x, y)
            if residuum_by_maximization(x, y, chain) != closed:
                ok = False
            for z in chain.carrier:
                if (z <= closed) != (chain.odot(x, z) <= y):
                    ok = False
    verdict(2, "adjunction and residuum agreement on L2..L11, zero tolerance",
            ok)


def test_criterion_03_polyadic_audit():
    started = time.monotonic()
    chain = Chain(3)
    dom = (0, 1, 2)
    # the audit quantifier set: closure of all replacements/transpositions
    gens = [FinTransformation.replacement(dom, i, j)
            for i in dom for j in dom if i != j]
    gens += [FinTransformation.transposition(dom, i, j)
             for i in dom for j in dom if i < j]
    closure = semigroup_closure(SemigroupSpec(tuple(gens), 100))
    assert len(closure.elements) == 27 and not closure.truncated

    ok = True
    for seed in range(5):
        rng = random.Random(seed)
        k = 1 + seed % 2
        generators = [pattern_generator(rng, chain) for _ in range(k)]
        algebra = build_generated(dom, 2, chain, generators,
                                  "full", "powerset", cap=200)
        assert set(algebra.transformations) == set(closure.elements)
        assert len(algebra.carrier) <= 200
        report = audit_axioms(algebra)
        if not report.passed:
            ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    verdict(3, f"polyadic/exists/d-law/q-law audits over 5 seeded algebras "
               f"({elapsed:.1f}s < 60s)", ok)


def test_criterion_04_substitution_lemma():
    lang = LanguageSpec(num_vars=5, reserve=1,
                        predicates=(("p", 1), ("s", 2)))
    rng = random.Random(11)
    chain = Chain(3)
    variables = list(lang.variables)
    violations = 0
    for _ in range(500):
        phi = random_formula(rng, lang, 4)
        model = random_model(rng, lang, 3, chain)
        images = variables[:]
        rng.shuffle(images)
        tau = dict(zip(variables, images))
        renamed = substitute(tau, phi)
        fv = sorted(free_vars(phi) | free_vars(renamed))
        for choice in itertools.product(model.domain, repeat=len(fv)):
            s = Assignment(dict(zip(fv, choice)))
            composed = Assignment({v: s.get(tau[v]) for v in variables})
            if eval_formula(renamed, model, s) \
                    != eval_formula(phi, model, composed):
                violations += 1
                break
    verdict(4, "substitution lemma on 500 formula/model/assignment batches",
            violations == 0)


def test_criterion_05_eta_agreement():
    lang = LanguageSpec(num_vars=4, reserve=1,
                        predicates=(("p0", 2), ("p1", 2)))
    chain = Chain(3)
    rng = random.Random(5)
    maps = [FinTransformation((0, 1), v)
            for v in itertools.product((0, 1), repeat=2)]

    def random_term(depth):
        if depth == 0 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.1:
                return TermZero()
            if roll < 0.2:
                return TermOne()
            return TermVar(rng.randrange(2))
        kind = rng.randrange(5)
        if kind == 0:
            return TermNeg(random_term(depth - 1))
        if kind == 1:
            return TermOplus(random_term(depth - 1), random_term(depth - 1))
        if kind == 2:
            return TermOdot(random_term(depth - 1), random_term(depth - 1))
        if kind == 3:
            return TermCyl(rng.randrange(2), random_term(depth - 1))
        return TermSub(maps[rng.randrange(4)], random_term(depth - 1))

    violations = 0
    for _ in range(500):
        model = random_model(rng, lang, 2, chain)
        if not eta_agreement_check(random_term(4), model):
            violations += 1
    verdict(5, "term/formula translation agreement on 500 seeded terms",
            violations == 0)


def test_criterion_06_calculus_soundness():
    ok = True
    for schema in ("MV-PROP", "A2", "A3", "A5", "A6"):
        report = calculus.soundness_audit(schema, 200, max_domain=2,
                                          chain_n=3, seed=0)
        ok = ok and report.passed
    for mode in ("printed", "strict"):
        report = calculus.soundness_audit("A4", 200, max_domain=2,
                                          chain_n=3, seed=0, mode=mode)
        ok = ok and report.passed
    for rule in ("MP", "Gen", "FreeSubInv", "SubInv"):
        report = calculus.soundness_audit(rule, 200, max_domain=2,
                                          chain_n=3, seed=0)
        ok = ok and report.passed
    verdict(6, "200 instances per schema (both A4 modes) and all four rules "
               "sound over |M|<=2, L3", ok)


def boolean_representatives(atoms):
    """Canonical representative formula per boolean truth table: the
    disjunction of strong-conjunction minterms, BOTTOM for the empty one."""
    atoms = sorted(atoms)
    points = list(itertools.product((F(0), F(1)), repeat=len(atoms)))
    reps = {}
    for mask in itertools.product((0, 1), repeat=len(points)):
        minterms = []
        for bit, point in zip(mask, points):
            if not bit:
                continue
            literals = [Atom(a, ()) if v == F(1) else Neg(Atom(a, ()))
                        for a, v in zip(atoms, point)]
            term = literals[0]
            for lit in literals[1:]:
                term = Odot(term, lit)
            minterms.append(term)
        if not minterms:
            formula = BOTTOM
        else:
            formula = minterms[0]
            for term in minterms[1:]:
                formula = Oplus(formula, term)
        reps[mask] = formula
    return points, reps


def prop_entails(a, b, atoms, chain):
    """a <= b at every valuation of the atoms on the chain's levels."""
    return all(map(operator.le, *(_levels(phi, atoms, chain.n - 1)
                                  for phi in (a, b))))


def test_criterion_07_boolean_craig():
    started = time.monotonic()
    chain = Chain(2)
    _, reps_a = boolean_representatives(["p", "q"])
    _, reps_b = boolean_representatives(["q", "r"])
    assert len(reps_a) == 16 and len(reps_b) == 16
    split = VocabSplit(frozenset({"p", "q"}), frozenset({"q", "r"}))
    verify_language = LanguageSpec(
        num_vars=2, reserve=1,
        predicates=(("p", 0), ("q", 0), ("r", 0)))
    entailed = searched = 0
    ok = True
    for a in reps_a.values():
        for b in reps_b.values():
            if not prop_entails(a, b, ["p", "q", "r"], chain):
                continue
            entailed += 1
            out = interpolant_search(a, b, split, depth=9, chain_n=2)
            if not out.found:
                ok = False
                continue
            c = out.interpolant
            searched += 1
            if not predicates_of(c) <= {"q"}:
                ok = False
            if semantics.entails([], Implies(a, c), verify_language,
                                 1, 2).refuted:
                ok = False
            if semantics.entails([], Implies(c, b), verify_language,
                                 1, 2).refuted:
                ok = False
    elapsed = time.monotonic() - started
    ok = ok and searched == entailed and entailed > 0 and elapsed < 120.0
    verdict(7, f"Craig interpolants found and verified for all {entailed} "
               f"entailed boolean pairs ({elapsed:.1f}s < 120s)", ok)


def test_criterion_08_henkin_representation():
    algebra, g = henkin_demo_algebra()
    assert dimension_set(algebra, g) == frozenset({0})
    hf = henkin_filter_build(algebra, g)
    ok = isinstance(hf, HenkinFilter)
    if ok:
        psi, audit = representation_map(algebra, hf)
        ok = audit.passed
        ident = FinTransformation.identity((0, 1, 2))
        at = algebra.transformations.index(ident)
        ok = ok and psi[algebra.indexed().index_of[g]][at] != 0
    verdict(8, "Henkin filter built on the |I|=3 demo and the exhaustive "
               "representation audit passed with psi(a) != 0", ok)


def test_criterion_09_strong_richness():
    started = time.monotonic()
    report = check_strongly_rich(SUC, PRED, n_max=64)
    ok = report.passed
    for n, supp in enumerate(report.supports, start=1):
        if supp != tuple(range(n)):
            ok = False
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 1.0
    verdict(9, f"suc/pred strong-richness conditions for n=1..64 with exact "
               f"supports ({elapsed:.3f}s < 1s)", ok)


def test_criterion_10_pavelka():
    chain = Chain(5)
    pav = PavelkaAlgebra.full_chain(chain)
    flt = principal_filter(chain, chain.one)
    ok = constants_check(pav).passed
    ok = ok and pavelka_lemma_check(pav, flt).passed
    ok = ok and degree_forms_check(pav, flt).passed

    consts = [tuple(r for _ in range(4)) for r in chain.carrier]
    algebra = build_generated((0, 1), 2, chain, consts, "full", "powerset",
                              cap=60)
    fpav = functional_pavelka(algebra)
    ok = ok and pavelka_quantifier_check(fpav, algebra).passed
    hf = henkin_filter_build(algebra, algebra.one)
    ok = ok and isinstance(hf, HenkinFilter)
    if ok:
        psi, audit = pavelka_representation(algebra, fpav, hf)
        ok = audit.passed
        at = algebra.indexed().index_of
        for r in fpav.levels:
            if set(psi[at[fpav.constant(r)]]) != {fpav.chain.carrier.index(r)}:
                ok = False
    verdict(10, "constants laws, Pavelka lemma, exists-invariance, degree "
                "form agreement and constant representation on L5", ok)


ACCEPTANCE_MANIFEST = {
    "commands": [
        ["mv", "audit", "--chain", "5"],
        ["mv", "audit", "--standard", "--mode", "sampled",
         "--samples", "2000", "--seed", "1"],
        ["mv", "residuum", "--chain", "4", "--x", "2/3", "--y", "1/3"],
        ["semigroup", "rich", "--sigma", "suc", "--pi", "pred", "-N", "64"],
        ["pavelka", "check", "--chain", "5"],
        ["semigroup", "closure", "--generators", "[0|1];[0,1]",
         "--domain", "3", "--cap", "50"],
    ]
}


def test_criterion_11_determinism(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(ACCEPTANCE_MANIFEST))

    def run():
        code, report = dispatch(["batch", str(manifest)])
        return code, json.dumps(report, sort_keys=True,
                                separators=(",", ":")).encode()

    code1, blob1 = run()
    code2, blob2 = run()
    ok = code1 == code2 == 0 and blob1 == blob2
    verdict(11, "batch manifest run twice produced byte-identical JSON "
                "reports", ok)
