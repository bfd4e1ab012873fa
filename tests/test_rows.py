"""The row evaluator of `semantics` against the closure evaluator it
replaced.

Below is a verbatim copy of the closure evaluator (`CompiledFormula`, its
quantifier sweeps and the four entry points built on it, renamed with a
`closure_` prefix), which evaluated a formula one assignment and one model
at a time. Seeded formulas over
0-, 1- and 2-ary predicates, domains up to 3 and chains 2-5 must get the
same `entails` verdicts and countermodels, and the same `eval_formula`,
`is_valid` and `truth_degree` values, from both. So must chains on both
sides of the switch from byte rows to list rows (128, 129 and 200
values).
"""

import itertools
import json
import random

import pytest

from mvlogic import semantics
from mvlogic.mv_core import Chain
from mvlogic.semantics import (
    Assignment, MissingTableError, Model, NoCounterexampleUpTo, RefutedBy,
    _check_model_count, entails, enumerate_models, eval_formula, is_valid,
    model_chunks, random_model, truth_degree,
)
from mvlogic.syntax import (
    Atom, Bottom, Exists, Forall, Implies, LanguageSpec, Neg, Odot, Oplus,
    Top, free_vars, predicates_of, random_formula, render,
)

# -- the closure evaluator, as it was -----------------------------------


class CompiledFormula:
    """A formula compiled once for Chain(n) into closures over levels.

    `run(env)` is the level of the formula under an env: a list holding
    the model's level tables, its domain as a range, then one slot per
    variable of the formula (`slots` maps each variable to its position).
    `free_vars` names the free variables and `free` holds their slots.
    `valid` and `degree` take a model as level tables plus a domain size
    and scan the assignments of the free variables, the only ones the
    value depends on.
    """

    def __init__(self, phi, n):
        self.top = n - 1
        self.slots = {}
        self.predicates = sorted(predicates_of(phi))
        self.run, free = self._compile(phi)
        self.free_vars = tuple(sorted(free))
        self.free = tuple(self.slots[v] for v in self.free_vars)

    def _slot(self, var):
        return self.slots.setdefault(var, 2 + len(self.slots))

    def _compile(self, phi):
        """(closure, free variables) of phi."""
        top = self.top
        if isinstance(phi, Atom):
            pred = phi.pred
            slots = tuple(self._slot(v) for v in phi.args)

            def atom(env):
                size = len(env[1])
                k = 0
                for s in slots:
                    k = k * size + env[s]
                return env[0][pred][k]
            return atom, set(phi.args)
        if isinstance(phi, Top):
            return (lambda env: top), set()
        if isinstance(phi, Bottom):
            return (lambda env: 0), set()
        if isinstance(phi, Neg):
            body, free = self._compile(phi.body)
            return (lambda env: top - body(env)), free
        if isinstance(phi, (Oplus, Odot, Implies)):
            left, lfree = self._compile(phi.left)
            right, rfree = self._compile(phi.right)
            if isinstance(phi, Oplus):
                def node(env):
                    v = left(env) + right(env)
                    return v if v < top else top
            elif isinstance(phi, Odot):
                def node(env):
                    v = left(env) + right(env) - top
                    return v if v > 0 else 0
            else:
                def node(env):
                    v = top - left(env) + right(env)
                    return v if v < top else top
            return node, lfree | rfree
        if isinstance(phi, (Forall, Exists)):
            body, inner = self._compile(phi.body)
            relevant = sorted(phi.block & inner)
            free = inner - phi.block
            # a block sweep is the nest of one-variable sweeps
            sweep = _sup if isinstance(phi, Exists) else _inf
            for v in relevant:
                body = sweep(body, self._slot(v), top)
            return body, free
        raise TypeError(f"not a formula: {phi!r}")

    def env(self, tables, domain_size):
        return [tables, range(domain_size)] + [0] * len(self.slots)

    def _assignments(self, env):
        """Set env to each assignment of the free variables in turn."""
        free = self.free
        for choice in itertools.product(env[1], repeat=len(free)):
            for s, x in zip(free, choice):
                env[s] = x
            yield

    def valid(self, tables, domain_size):
        """True iff the formula takes the top level under every assignment."""
        env = self.env(tables, domain_size)
        run, top = self.run, self.top
        return all(run(env) == top for _ in self._assignments(env))

    def degree(self, tables, domain_size):
        """The least level over the assignments of the free variables."""
        env = self.env(tables, domain_size)
        run = self.run
        return min(run(env) for _ in self._assignments(env))


def _inf(body, slot, top):
    """The infimum of body over the values of one slot; stops at level 0."""
    def forall(env):
        saved = env[slot]
        best = top
        for x in env[1]:
            env[slot] = x
            v = body(env)
            if v < best:
                best = v
                if not v:
                    break
        env[slot] = saved
        return best
    return forall


def _sup(body, slot, top):
    """The supremum of body over the values of one slot; stops at the top."""
    def exists(env):
        saved = env[slot]
        best = 0
        for x in env[1]:
            env[slot] = x
            v = body(env)
            if v > best:
                best = v
                if v == top:
                    break
        env[slot] = saved
        return best
    return exists


def _compiled_for(phi, model):
    compiled = CompiledFormula(phi, model.chain.n)
    for pred in compiled.predicates:
        if pred not in model.levels:
            raise MissingTableError(pred)
    return compiled


def closure_eval_formula(phi, model, s):
    """The truth value of phi under the assignment s.

    Every free variable of phi must be assigned an element of the domain;
    the quantifier sweeps set the bound ones.
    """
    compiled = _compiled_for(phi, model)
    env = compiled.env(model.levels, model.domain_size)
    for var, slot in zip(compiled.free_vars, compiled.free):
        x = s.get(var)
        if not 0 <= x < model.domain_size:
            raise ValueError(
                f"assignment {var}={x} is outside the domain "
                f"0..{model.domain_size - 1}")
        env[slot] = x
    return model.chain.carrier[compiled.run(env)]


def closure_is_valid(phi, model):
    """True iff the formula takes value 1 under every assignment.

    Scanning assignments of the free variables suffices: the value depends
    on nothing else (the dependency property, pinned by the tests).
    """
    return _compiled_for(phi, model).valid(model.levels, model.domain_size)


def closure_truth_degree(phi, model):
    """Infimum of the value over assignments of the free variables."""
    level = _compiled_for(phi, model).degree(model.levels, model.domain_size)
    return model.chain.carrier[level]


def closure_entails(gamma, phi, language, max_domain, chain_n, cap=500000):
    """Bounded entailment search over all models with |M| <= max_domain.

    Returns the canonically first countermodel (every gamma member valid,
    phi not) or the bounded no-counterexample verdict.
    """
    chain = Chain(chain_n)
    predicates = set(predicates_of(phi))
    for g in gamma:
        predicates |= predicates_of(g)
    predicates = sorted(predicates)
    _check_model_count(language, predicates, max_domain, chain_n, cap)
    hypotheses = [CompiledFormula(g, chain_n) for g in gamma]
    goal = CompiledFormula(phi, chain_n)
    for size in range(1, max_domain + 1):
        for tables in enumerate_models(language, predicates, size, chain):
            if all(h.valid(tables, size) for h in hypotheses) \
                    and not goal.valid(tables, size):
                return RefutedBy(
                    Model.from_levels(language, size, chain, tables))
    return NoCounterexampleUpTo(max_domain, chain_n)



# -- the differential tests -----------------------------------------------

LANG = LanguageSpec(num_vars=5, reserve=1,
                    predicates=(("p", 1), ("r", 0), ("s", 2)))
# the 0-ary predicate alone: a long chain has as many models per domain
# size as values
NULLARY = LanguageSpec(num_vars=5, reserve=1, predicates=(("r", 0),))
# rows are byte strings up to Chain(128) and lists past it
SWITCH_CHAINS = (128, 129, 200)

# the most models of one domain size a case searches, so that the closure
# evaluator stays quick
MODELS_PER_SIZE = 2000


def outcome(verdict):
    if verdict.refuted:
        return json.dumps(verdict.model.to_json(), sort_keys=True)
    return verdict.max_domain, verdict.chain_n


def max_domain_for(formulas, chain_n, language):
    predicates = set().union(*map(predicates_of, formulas))
    for size in (3, 2):
        cells = sum(size ** language.arity(p) for p in predicates)
        if chain_n ** cells <= MODELS_PER_SIZE:
            return size
    return 1


def entailment_cases(seed, count, chains=(2, 3, 4, 5), language=LANG):
    """(gamma, phi, max_domain, chain_n): refutable goals, valid goals,
    sound rule instances and random hypotheses, in turn."""
    rng = random.Random(seed)
    for i in range(count):
        chain_n = chains[i % len(chains)]
        a, b = (random_formula(rng, language, rng.randint(1, 3))
                for _ in range(2))
        gamma, phi = [
            ([], a),
            ([], Oplus(a, Neg(a)) if i % 8 == 1 else Implies(a, a)),
            ([a, Implies(a, b)], b),
            ([random_formula(rng, language, 2)
              for _ in range(rng.randint(1, 2))], a),
        ][i % 4]
        yield gamma, phi, max_domain_for(gamma + [phi], chain_n,
                                         language), chain_n


def test_entails_matches_the_closure_evaluator():
    kinds, bounds = set(), set()
    for gamma, phi, max_domain, chain_n in entailment_cases(7, 240):
        expected = outcome(closure_entails(gamma, phi, LANG, max_domain,
                                           chain_n))
        assert outcome(entails(gamma, phi, LANG, max_domain, chain_n)) \
            == expected, ([render(g) for g in gamma], render(phi))
        kinds.add((bool(gamma), type(expected)))
        bounds.add(max_domain)
    # both verdicts, with and without hypotheses, and every domain bound
    assert len(kinds) == 4 and bounds == {1, 2, 3}


def test_entails_in_small_chunks_matches_the_closure_evaluator(
        monkeypatch):
    # a chunk of a few models at a time: high-order cells held constant,
    # and the countermodel found in a later chunk
    monkeypatch.setattr(semantics, "ROW_CHUNK", 12)
    refuted = 0
    for gamma, phi, max_domain, chain_n in entailment_cases(8, 80):
        expected = closure_entails(gamma, phi, LANG, max_domain, chain_n)
        assert outcome(entails(gamma, phi, LANG, max_domain, chain_n)) \
            == outcome(expected), ([render(g) for g in gamma], render(phi))
        refuted += expected.refuted
    assert 0 < refuted < 80


def assert_model_matches(phi, model):
    assert is_valid(phi, model) == closure_is_valid(phi, model)
    assert truth_degree(phi, model) == closure_truth_degree(phi, model)
    free = sorted(free_vars(phi))
    for choice in itertools.product(model.domain, repeat=len(free)):
        s = Assignment(dict(zip(free, choice)))
        assert eval_formula(phi, model, s) \
            == closure_eval_formula(phi, model, s), render(phi)


def test_models_match_the_closure_evaluator():
    rng = random.Random(3)
    for i in range(300):
        chain = Chain(2 + i % 4)
        model = random_model(rng, LANG, 3, chain)
        assert_model_matches(random_formula(rng, LANG, rng.randint(1, 4)),
                             model)


@pytest.mark.parametrize("chain_n", SWITCH_CHAINS)
def test_chains_across_the_row_switch_match_the_closure_evaluator(
        chain_n):
    rng = random.Random(chain_n)
    for _ in range(60):
        model = random_model(rng, LANG, 3, Chain(chain_n))
        assert_model_matches(random_formula(rng, LANG, rng.randint(1, 4)),
                             model)
    kinds = set()
    for gamma, phi, max_domain, _ in entailment_cases(chain_n, 40,
                                                      (chain_n,), NULLARY):
        expected = outcome(closure_entails(gamma, phi, NULLARY, max_domain,
                                           chain_n))
        assert outcome(entails(gamma, phi, NULLARY, max_domain, chain_n)) \
            == expected, ([render(g) for g in gamma], render(phi))
        kinds.add((bool(gamma), type(expected)))
    assert len(kinds) == 4


def test_errors_match_the_closure_evaluator():
    rng = random.Random(4)
    raised = 0
    for _ in range(100):
        model = random_model(rng, LANG, 2, Chain(3))
        model.levels.pop(rng.choice(["p", "r", "s"]))
        phi = random_formula(rng, LANG, 3)
        s = Assignment({v: rng.choice([0, 1, 2, -1]) for v in
                        LANG.variables})
        errors = []
        for run in (eval_formula, closure_eval_formula):
            try:
                errors.append(run(phi, model, s))
            except (MissingTableError, ValueError) as exc:
                errors.append((type(exc), str(exc)))
        assert errors[0] == errors[1], render(phi)
        raised += isinstance(errors[0], tuple)
    assert raised > 50


@pytest.mark.parametrize("width, chunk", [(1, 1 << 15), (1, 3), (4, 40),
                                          (100, 10)])
def test_chunks_list_the_models_in_canonical_order(monkeypatch, width,
                                                   chunk):
    monkeypatch.setattr(semantics, "ROW_CHUNK", chunk)
    predicates = ["p", "r", "s"]
    expected = [tuple(itertools.chain.from_iterable(map(tables.get,
                                                        predicates)))
                for tables in enumerate_models(LANG, predicates, 2,
                                               Chain(3))]
    listed = []
    for first, count, columns in model_chunks(7, 3, width):
        assert first == len(listed) and len(columns) == 7
        assert {len(column) for column in columns} == {count}
        listed.extend(zip(*columns))
    assert listed == expected
