import itertools
import json
import random
from fractions import Fraction as F

import pytest

from mvlogic import semantics
from mvlogic.interlab import _levels
from mvlogic.mv_core import ONE, ZERO, CarrierError, Chain
from mvlogic.semantics import (
    Assignment, MissingTableError, Model, NoCounterexampleUpTo, RefutedBy,
    SearchTooLarge, entails, enumerate_models, eval_formula, is_valid,
    random_model, truth_degree,
)
from mvlogic.syntax import (
    Atom, Bottom, Exists, Forall, Implies, LanguageSpec, Neg, Odot, Oplus,
    Top, _var_key, free_vars, parse, random_formula, render, substitute,
)

LANG = LanguageSpec(num_vars=4, reserve=1, predicates=(("p", 1),))
RICH = LanguageSpec(num_vars=5, reserve=1, predicates=(("p", 1), ("s", 2)))
PROPS = LanguageSpec(num_vars=2, reserve=1,
                     predicates=(("a", 0), ("b", 0), ("c", 0)))


def _prop_eval(phi, valuation, chain, model=None):
    """Direct recursive Tarskian valuation, in Fractions: the reference for
    the semantics evaluator and for interlab's truth tables on levels.
    Without a model, `valuation` gives each (nullary) predicate its value
    and quantifiers are refused; with one, it gives each variable an
    element, an atom reads the model's table at its arguments' values, and
    E and A take the max and min over the domain of each block variable."""
    tables = None if model is None else model.tables

    def value(phi, s):
        if isinstance(phi, Atom):
            if tables is None:
                return s[phi.pred]
            return tables[phi.pred][tuple(s[v] for v in phi.args)]
        if isinstance(phi, Top):
            return ONE
        if isinstance(phi, Bottom):
            return ZERO
        if isinstance(phi, Neg):
            return chain.neg(value(phi.body, s))
        if isinstance(phi, Oplus):
            return chain.oplus(value(phi.left, s), value(phi.right, s))
        if isinstance(phi, Odot):
            return chain.odot(value(phi.left, s), value(phi.right, s))
        if isinstance(phi, Implies):
            return chain.implies(value(phi.left, s), value(phi.right, s))
        if tables is None:
            raise ValueError("propositional scope admits no quantifiers")
        bound = max if isinstance(phi, Exists) else min

        def over(block, s):
            if not block:
                return value(phi.body, s)
            return bound(over(block[1:], {**s, block[0]: x})
                         for x in model.domain)

        return over(sorted(phi.block), s)

    return value(phi, valuation)


def agrees_off(s, t, block):
    """Whether two assignments agree on every variable outside block."""
    keys = set(s.mapping) | set(t.mapping)
    return all(s.get(v) == t.get(v) for v in keys if v not in block)


@pytest.fixture
def example_model():
    # p(a) = 3/10, p(b) = 8/10, values living in the eleven-point chain
    return Model(LANG, 2, Chain(11),
                 {"p": {(0,): F(3, 10), (1,): F(8, 10)}})


class TestEval:
    def test_top(self, example_model):
        assert eval_formula(parse("T", LANG), example_model, Assignment()) == F(1)

    def test_exists_is_sup(self, example_model):
        phi = parse("E{v0} p(v0)", LANG)
        assert eval_formula(phi, example_model, Assignment()) == F(8, 10)

    def test_forall_is_inf(self, example_model):
        phi = parse("A{v0} p(v0)", LANG)
        assert eval_formula(phi, example_model, Assignment()) == F(3, 10)

    def test_quantifiers_against_brute_force(self):
        # oracle: the Tarskian recursion of _prop_eval at every assignment
        # of all variables, E and A by brute force over the domain
        rng = random.Random(0)
        chain = Chain(3)
        for _ in range(60):
            model = random_model(rng, RICH, 3, chain)
            phi = random_formula(rng, RICH, 3)
            for choice in itertools.product(model.domain,
                                            repeat=len(RICH.variables)):
                valuation = dict(zip(RICH.variables, choice))
                direct = eval_formula(phi, model, Assignment(valuation))
                assert chain.contains(direct)
                assert direct == _prop_eval(phi, valuation, chain, model), \
                    (render(phi), choice)

    def test_missing_table(self):
        model = Model(LANG, 2, Chain(3), {})
        with pytest.raises(KeyError):
            eval_formula(parse("p(v0)", LANG), model, Assignment())

    def test_missing_table_on_every_entry_point(self):
        # the table is missing on a branch a short-circuit could skip
        model = Model(RICH, 2, Chain(3), {"p": {(0,): F(1), (1,): F(1)}})
        phi = parse("T (+) s(v0,v1)", RICH)
        for run in (lambda: eval_formula(phi, model, Assignment()),
                    lambda: is_valid(phi, model),
                    lambda: truth_degree(phi, model)):
            with pytest.raises(MissingTableError):
                run()

    def test_assignment_outside_domain(self, example_model):
        with pytest.raises(ValueError):
            eval_formula(parse("p(v0)", LANG), example_model,
                         Assignment({"v0": 7}))
        # a bound variable's value cannot matter, so it is not checked
        assert eval_formula(parse("A{v0} p(v0)", LANG), example_model,
                            Assignment({"v0": 7})) == F(3, 10)

    def test_agrees_with_propositional_evaluator(self):
        # differential check against interlab's independent valuation
        rng = random.Random(5)
        for n in range(2, 7):
            chain = Chain(n)
            for _ in range(60):
                phi = random_formula(rng, PROPS, 4, quantifiers=False)
                valuation = {name: chain.carrier[rng.randrange(n)]
                             for name, _ in PROPS.predicates}
                model = Model(PROPS, 1, chain, {
                    name: {(): value} for name, value in valuation.items()})
                assert eval_formula(phi, model, Assignment()) \
                    == _prop_eval(phi, valuation, chain), render(phi)

    def test_levels_agree_with_propositional_evaluator(self):
        # interlab's truth tables on levels against the Fraction reference,
        # valuations in product order; chains 128, 129 and 200 (one atom)
        # sit on both sides of the switch from byte rows to tuple rows
        rng = random.Random(12)
        for n, atoms in [*((n, 3) for n in range(2, 7)),
                         (128, 1), (129, 1), (200, 1)]:
            chain = Chain(n)
            for k in range(1, atoms + 1):
                atoms = [name for name, _ in PROPS.predicates[:k]]
                lang = LanguageSpec(num_vars=2, reserve=1,
                                    predicates=PROPS.predicates[:k])
                for _ in range(20):
                    phi = random_formula(rng, lang, 4, quantifiers=False)
                    expected = [
                        _prop_eval(phi, dict(zip(atoms, values)), chain)
                        * (n - 1)
                        for values in itertools.product(chain.carrier,
                                                        repeat=k)]
                    assert list(_levels(phi, atoms, n - 1)) == expected, \
                        render(phi)

    def test_chain_carrier_is_never_read(self, monkeypatch):
        # a level r is reported as r/top, so neither function builds the
        # chain's n values to report one of them
        def unread(chain):
            raise AssertionError("Chain.carrier was read")

        monkeypatch.setattr(Chain, "carrier", property(unread))
        n = 10 ** 6
        model = Model.from_levels(RICH, 2, Chain(n), {
            "p": (1, n - 1), "s": (0, 0, n - 2, n - 1)})
        phi = parse("E{v1} s(v0,v1) (*) p(v2)", RICH)
        assert eval_formula(phi, model, Assignment({"v0": 1, "v2": 0})) \
            == F(1, n - 1)
        assert eval_formula(phi, model, Assignment({"v0": 0, "v2": 1})) \
            == 0
        assert truth_degree(parse("A{v1} s(v0,v1) (+) p(v0)", RICH),
                            model) == F(1, n - 1)

    def test_a_countermodel_is_reported_without_the_carrier(self,
                                                            monkeypatch):
        # each level of a table is written as r/top, built once
        def unread(chain):
            raise AssertionError("Chain.carrier was read")

        monkeypatch.setattr(Chain, "carrier", property(unread))
        n = 10 ** 6
        language = LanguageSpec(num_vars=2, reserve=1, predicates=(("r", 0),))
        verdict = entails([], parse("r -> r (*) r", language), language, 1,
                          n, cap=n)
        assert verdict.refuted
        assert verdict.model.to_json() == {
            "domain": 1, "chain": n,
            "predicates": {"r": {"arity": 0, "table": {"()": f"1/{n - 1}"}}}}

    def test_compiles_once_per_formula_and_chain(self, monkeypatch):
        compiled = []

        class Counting(semantics.RowProgram):
            def __init__(self, top, **kwargs):
                compiled.append(top)
                super().__init__(top, **kwargs)

        monkeypatch.setattr(semantics, "RowProgram", Counting)
        semantics._fixed_program.cache_clear()
        phi = parse("E{v1} s(v0,v1) (*) p(v2)", RICH)
        for n in (3, 4):
            model = Model.from_levels(RICH, 2, Chain(n), {
                "p": (1, n - 1), "s": (0, 0, n - 1, n - 1)})
            values = [eval_formula(phi, model,
                                   Assignment({"v0": x, "v2": y}))
                      for x, y in itertools.product(model.domain, repeat=2)]
            # one program, read at each assignment
            assert values == [0, 0, F(1, n - 1), 1]
        assert compiled == [2, 3]

    def test_table_values_must_sit_in_chain(self):
        with pytest.raises(CarrierError):
            Model(LANG, 1, Chain(3), {"p": {(0,): F(1, 3)}})


class TestValidity:
    def test_self_implication(self, example_model):
        assert is_valid(parse("p(v0) -> p(v0)", LANG), example_model)

    def test_exists_not_valid(self, example_model):
        assert not is_valid(parse("E{v0} p(v0)", LANG), example_model)

    def test_ex_falso(self, example_model):
        assert is_valid(parse("F -> p(v0)", LANG), example_model)

    def test_truth_degree(self, example_model):
        assert truth_degree(parse("p(v0)", LANG), example_model) == F(3, 10)
        assert truth_degree(parse("T", LANG), example_model) == F(1)
        closed = parse("E{v0} p(v0)", LANG)
        assert truth_degree(closed, example_model) \
            == eval_formula(closed, example_model, Assignment())


class TestEntailment:
    def test_member_of_gamma(self):
        phi = parse("p(v0)", LANG)
        verdict = entails([phi], phi, LANG, 2, 3)
        assert isinstance(verdict, NoCounterexampleUpTo)

    def test_refuted_by_first_canonical_model(self):
        verdict = entails([], parse("p(v0)", LANG), LANG, 1, 2)
        assert isinstance(verdict, RefutedBy)
        assert verdict.model.domain_size == 1
        assert verdict.model.tables["p"][(0,)] == F(0)

    def test_universal_hypothesis(self):
        gamma = [parse("A{v0} p(v0)", LANG)]
        verdict = entails(gamma, parse("p(v1)", LANG), LANG, 2, 3)
        assert isinstance(verdict, NoCounterexampleUpTo)

    def test_search_guard(self):
        with pytest.raises(SearchTooLarge):
            entails([], parse("s(v0,v1)", RICH), RICH, 3, 3, cap=100)

    @pytest.mark.parametrize("max_domain", [0, -1])
    def test_no_domain_to_search(self, max_domain):
        verdict = entails([], parse("p(v0)", LANG), LANG, max_domain, 3)
        assert isinstance(verdict, NoCounterexampleUpTo)
        assert (verdict.max_domain, verdict.chain_n) == (max_domain, 3)

    @pytest.mark.parametrize("gamma, phi, domain, sizes", [
        (["A{v0} p(v0)"], "p(v1)", None, [2]),
        ([], "p(v0)", 1, [2, 1]),
        ([], "(E{v0} p(v0)) -> (A{v0} p(v0))", 2, [2, 1])])
    def test_searches_the_largest_domain_first(self, monkeypatch, gamma, phi,
                                               domain, sizes):
        # a valid search at |M| <= 2 builds the atom cells of domain 2
        # only; a refuted one builds those of domain 1 after them
        built = []
        atom_cells = semantics.RowProgram.atom_cells

        def spy(program, size, *args):
            built.append(size)
            return atom_cells(program, size, *args)

        monkeypatch.setattr(semantics.RowProgram, "atom_cells", spy)
        verdict = entails([parse(g, LANG) for g in gamma], parse(phi, LANG),
                          LANG, 2, 3)
        assert built == sizes
        assert (verdict.model.domain_size if verdict.refuted
                else None) == domain


class TestRowCap:
    """A row is a list in memory: one model's assignments of a row's
    variables may not pass MAX_VALUATIONS, checked before any row is
    built."""

    @pytest.fixture
    def capped_model(self, monkeypatch):
        monkeypatch.setattr(semantics, "MAX_VALUATIONS", 8)
        return Model(RICH, 3, Chain(3), {
            "s": {pt: F(0) for pt in itertools.product(range(3), repeat=2)}})

    def test_single_model_entry_points(self, capped_model, monkeypatch):
        model = capped_model
        def refuse(*args):
            raise AssertionError("a row was built")
        monkeypatch.setattr(semantics.RowProgram, "run", refuse)
        phi = parse("A{v2} s(v0,v1)", RICH)  # 3^2 assignments of v0, v1
        for run in (lambda: is_valid(phi, model),
                    lambda: truth_degree(phi, model),
                    lambda: semantics.assignment_row(phi, model,
                                                     ["v0", "v1"])):
            with pytest.raises(SearchTooLarge) as exc:
                run()
            assert str(exc.value) == "3^2 assignments of a subformula's " \
                "variables exceed the cap of 8"

    def test_eval_formula_spans_only_the_bound_variables(self,
                                                         capped_model):
        model = capped_model
        # v0 and v1 are fixed by the assignment, so the rows span v1 alone
        assert eval_formula(parse("s(v0,v1) (+) E{v1} s(v1,v0)", RICH),
                            model, Assignment()) == F(0)
        with pytest.raises(SearchTooLarge):
            eval_formula(parse("A{v1,v2} s(v1,v2)", RICH), model,
                         Assignment())

    def test_entails_checks_the_largest_domain_first(self, capped_model,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("a chunk of models was built")
        monkeypatch.setattr(semantics, "model_chunks", refuse)
        with pytest.raises(SearchTooLarge):
            entails([], parse("p(v0) (+) p(v1)", LANG), LANG, 3, 2)


class TestProperties:
    def test_dependency_on_free_variables(self):
        rng = random.Random(1)
        chain = Chain(3)
        for _ in range(80):
            model = random_model(rng, RICH, 3, chain)
            phi = random_formula(rng, RICH, 4)
            fv = sorted(free_vars(phi))
            others = [v for v in RICH.variables if v not in fv]
            for choice in itertools.product(model.domain, repeat=len(fv)):
                base = dict(zip(fv, choice))
                s = Assignment(base)
                noisy = Assignment(
                    {**base, **{v: model.domain_size - 1 for v in others}})
                assert agrees_off(s, noisy, set(others))
                assert eval_formula(phi, model, noisy) \
                    == eval_formula(phi, model, s)

    def test_substitution_lemma_for_permutations(self):
        rng = random.Random(2)
        chain = Chain(3)
        variables = list(RICH.variables)
        for _ in range(120):
            model = random_model(rng, RICH, 3, chain)
            phi = random_formula(rng, RICH, 4)
            images = variables[:]
            rng.shuffle(images)
            tau = dict(zip(variables, images))
            renamed = substitute(tau, phi)
            for choice in itertools.product(model.domain,
                                            repeat=len(variables)):
                s = Assignment(dict(zip(variables, choice)))
                composed = Assignment(
                    {v: s.get(tau[v]) for v in variables})
                assert eval_formula(renamed, model, s) \
                    == eval_formula(phi, model, composed)

    def test_raw_substitution_lemma_fails_without_injectivity(self):
        # witness for why the lemma is restricted to one-to-one maps
        model = Model(RICH, 2, Chain(2),
                      {"s": {(0, 0): F(0), (0, 1): F(1),
                             (1, 0): F(1), (1, 1): F(0)},
                       "p": {(0,): F(0), (1,): F(0)}})
        phi = Exists(frozenset({"v0"}), parse("s(v0,v1)", RICH))
        tau = {v: "v1" for v in RICH.variables}
        s = Assignment({"v1": 1})
        composed = Assignment({v: s.get(tau[v]) for v in RICH.variables})
        assert eval_formula(substitute(tau, phi), model, s) \
            != eval_formula(phi, model, composed)

    def test_quantifier_duality(self):
        rng = random.Random(3)
        chain = Chain(3)
        for _ in range(80):
            model = random_model(rng, RICH, 2, chain)
            phi = random_formula(rng, RICH, 3)
            block = frozenset({"v0", "v1"})
            lhs = Forall(block, phi)
            rhs = Neg(Exists(block, Neg(phi)))
            for choice in itertools.product(model.domain, repeat=3):
                s = Assignment(dict(zip(("v0", "v1", "v2"), choice)))
                assert eval_formula(lhs, model, s) \
                    == eval_formula(rhs, model, s)

    def test_exists_monotone(self):
        rng = random.Random(4)
        chain = Chain(4)
        for _ in range(80):
            model = random_model(rng, RICH, 2, chain)
            phi = random_formula(rng, RICH, 3)
            bumped = Exists(frozenset({"v0"}), phi)
            for choice in itertools.product(model.domain, repeat=3):
                s = Assignment(dict(zip(("v0", "v1", "v2"), choice)))
                assert eval_formula(phi, model, s) \
                    <= eval_formula(bumped, model, s)


class TestModelIO:
    def test_round_trip(self, example_model):
        dumped = example_model.to_json()
        again = Model.from_json(dumped)
        assert again.to_json() == dumped

    def test_levels_round_trip(self, example_model):
        assert example_model.levels == {"p": (3, 8)}
        again = Model.from_levels(LANG, 2, Chain(11), example_model.levels)
        assert again.to_json() == example_model.to_json()

    def test_json_shape(self, example_model):
        data = example_model.to_json()
        assert data["domain"] == 2 and data["chain"] == 11
        assert data["predicates"]["p"]["table"]["(0)"] == "3/10"


# -- the lift and the search that reads smaller domains off it ------------

# a predicate of each arity 0, 1 and 2, and the usable variables v0..v2
LIFT_LANG = LanguageSpec(num_vars=4, reserve=1,
                         predicates=(("p", 1), ("r", 0), ("s", 2)))


def lift(model, size):
    """The model lifted to a domain of `size` >= its own along h(x) =
    min(x, k - 1), k the model's size: p(b) reads the model's p(h(b))."""
    k = model.domain_size
    levels = {}
    for pred, row in model.levels.items():
        arity = model.language.arity(pred)
        levels[pred] = tuple(
            row[sum(min(x, k - 1) * k ** (arity - 1 - i)
                    for i, x in enumerate(point))]
            for point in itertools.product(range(size), repeat=arity))
    return Model.from_levels(model.language, size, model.chain, levels)


def ascending_entails(gamma, phi, language, max_domain, chain_n,
                      cap=500000):
    """The bounded search that does not start at the largest domain:
    every domain size in ascending order, chunk by chunk, up to the first
    chunk that holds a countermodel, decoded by canonical enumeration."""
    chain = Chain(chain_n)
    program = semantics.RowProgram(chain_n - 1)
    goal = program.add(phi)
    goal_steps = len(program.steps)
    hypotheses = [program.add(g) for g in gamma]
    predicates = sorted(program.predicates)
    semantics._check_model_count(language, predicates, max_domain, chain_n,
                                 cap)
    program.width(max_domain)
    top = program.top
    for size in range(1, max_domain + 1):
        counts = [size ** language.arity(p) for p in predicates]
        offsets = dict(zip(predicates, itertools.accumulate([0] + counts)))
        cells = program.atom_cells(size, offsets)
        for first, count, columns in semantics.model_chunks(
                sum(counts), chain_n, program.width(size)):
            rows = program.run(size, cells, count, columns, [], goal_steps)
            if rows[goal].count(top) == len(rows[goal]):
                continue
            program.run(size, cells, count, columns, rows,
                        len(program.steps))
            m = program.countermodel(rows[goal],
                                     [rows[h] for h in hypotheses], count)
            if m is not None:
                tables = next(itertools.islice(
                    enumerate_models(language, predicates, size, chain),
                    first + m, None))
                return RefutedBy(Model.from_levels(language, size, chain,
                                                   tables))
    return NoCounterexampleUpTo(max_domain, chain_n)


def search_outcome(search, *args, **kwargs):
    """A search's verdict as comparable data: the countermodel's JSON, the
    bound of a no-counterexample verdict, or a refusal's message."""
    try:
        verdict = search(*args, **kwargs)
    except SearchTooLarge as exc:
        return "too-large", str(exc)
    if isinstance(verdict, RefutedBy):
        return "refuted", json.dumps(verdict.model.to_json(), sort_keys=True)
    assert isinstance(verdict, NoCounterexampleUpTo)
    return "none", verdict.max_domain, verdict.chain_n


def search_problems(seed, count):
    """(gamma, phi, max_domain, chain_n): 0-2 random hypotheses and a goal
    over LIFT_LANG, |M| <= 0..3 over chains 2..4. Every other goal is one
    that |M| = 1 cannot refute and a larger domain may, searched up to
    |M| = 2 or 3: E{W} a -> A{W} a, or a -> a with two variables swapped,
    W and one of the two free in a."""
    rng = random.Random(seed)
    usable = list(LIFT_LANG.variables[:3])
    for i in range(count):
        a = random_formula(rng, LIFT_LANG, rng.randint(1, 3))
        free = sorted(free_vars(a))
        max_domain = rng.randint(0, 3)
        if i % 2 and free:
            max_domain = rng.randint(2, 3)
            if i % 4 == 1:
                block = frozenset(rng.sample(free, rng.randint(
                    1, min(2, len(free)))))
                a = Implies(Exists(block, a), Forall(block, a))
            else:
                x = rng.choice(free)
                y = rng.choice([v for v in usable if v != x])
                a = Implies(a, substitute({x: y, y: x}, a))
        gamma = [random_formula(rng, LIFT_LANG, rng.randint(1, 2))
                 for _ in range(rng.randint(0, 2))]
        yield gamma, a, max_domain, rng.randint(2, 4)


class TestLift:
    def test_values_are_read_at_the_image_assignment(self):
        # eval(phi, lift(M), s') == eval(phi, M, h o s') at every s'
        rng = random.Random(5)
        variables = LIFT_LANG.variables[:3]
        for i in range(120):
            chain = Chain(2 + i % 3)
            model = random_model(rng, LIFT_LANG, 2, chain)
            size = rng.randint(model.domain_size, 3)
            lifted = lift(model, size)
            phi = random_formula(rng, LIFT_LANG, rng.randint(1, 4))
            k = model.domain_size
            for choice in itertools.product(range(size),
                                            repeat=len(variables)):
                s = Assignment(dict(zip(variables, choice)))
                image = Assignment({v: min(x, k - 1)
                                    for v, x in zip(variables, choice)})
                assert eval_formula(phi, lifted, s) \
                    == eval_formula(phi, model, image), render(phi)

    def test_entails_matches_the_ascending_search(self):
        outcomes, later = set(), 0
        for gamma, phi, max_domain, chain_n in search_problems(11, 2000):
            expected = search_outcome(ascending_entails, gamma, phi,
                                      LIFT_LANG, max_domain, chain_n,
                                      cap=3000)
            assert search_outcome(entails, gamma, phi, LIFT_LANG,
                                  max_domain, chain_n, cap=3000) \
                == expected, ([render(g) for g in gamma], render(phi),
                              max_domain, chain_n)
            outcomes.add(expected[0])
            later += expected[0] == "refuted" \
                and json.loads(expected[1])["domain"] > 1
        assert outcomes == {"refuted", "none", "too-large"}
        # countermodels that first appear above |M| = 1
        assert later >= 100

    @pytest.mark.parametrize("chain_n", [2, 3])
    def test_a_chain_of_three_needs_three_elements(self, chain_n):
        # s irreflexive and transitive: s(a, b) (*) s(b, c) > 0 needs
        # three distinct elements, so the first countermodel has |M| = 3
        gamma = [parse("A{v0} ~s(v0,v0)", LIFT_LANG), parse(
            "A{v0,v1,v2} (s(v0,v1) (*) s(v1,v2) -> s(v0,v2))", LIFT_LANG)]
        phi = parse("~E{v0,v1,v2} (s(v0,v1) (*) s(v1,v2))", LIFT_LANG)
        for max_domain in (2, 3):
            expected = search_outcome(ascending_entails, gamma, phi,
                                      LIFT_LANG, max_domain, chain_n)
            assert search_outcome(entails, gamma, phi, LIFT_LANG,
                                  max_domain, chain_n) == expected
        assert json.loads(expected[1])["domain"] == 3

    def test_small_chunks_match_the_ascending_search(self, monkeypatch):
        # the largest domain in more than one chunk
        monkeypatch.setattr(semantics, "ROW_CHUNK", 64)
        for gamma, phi, max_domain, chain_n in search_problems(12, 300):
            assert search_outcome(entails, gamma, phi, LIFT_LANG,
                                  max_domain, chain_n, cap=3000) \
                == search_outcome(ascending_entails, gamma, phi, LIFT_LANG,
                                  max_domain, chain_n, cap=3000)


# -- the compile and the atom cells it reads ------------------------------

class ReferenceProgram:
    """RowProgram's compile as written without its caches: every variable
    order sorted and every spread axis found afresh at each node. The
    steps and variables it lists are what RowProgram.add must produce."""

    def __init__(self, top, fix_free=False):
        self.top, self.fix_free = top, fix_free
        self.steps, self.vars, self._slots = [], [], {}

    def add(self, phi, bound=frozenset()):
        kind = type(phi)
        if kind is Atom:
            variables = phi.args
            if self.fix_free:
                variables = tuple(v for v in variables if v in bound)
            if len(variables) > 1:
                variables = tuple(sorted(set(variables), key=_var_key))
            return self._step(("atom", phi.pred, phi.args), variables)
        if kind in (Oplus, Odot, Implies):
            left = self.add(phi.left, bound)
            right = self.add(phi.right, bound)
            if kind is Implies:
                left = self._negate(left)
            if left > right:
                left, right = right, left
            want, other = self.vars[left], self.vars[right]
            if want != other:
                want = tuple(sorted(set(want + other), key=_var_key))
            op = "times" if kind is Odot else "plus"
            return self._step((op, self._spread(left, want),
                               self._spread(right, want)), want)
        if kind is Neg:
            return self._negate(self.add(phi.body, bound))
        if kind is Top or kind is Bottom:
            return self._step(("const", self.top if kind is Top else 0,
                               None), ())
        slot = self.add(phi.body, bound | phi.block)
        op = "sup" if kind is Exists else "inf"
        for var in sorted(phi.block, key=_var_key):
            have = self.vars[slot]
            if var in have:
                slot = self._step((op, slot, have.index(var)),
                                  tuple(v for v in have if v != var))
        return slot

    def _step(self, step, variables):
        key = step, variables
        if key not in self._slots:
            self._slots[key] = len(self.steps)
            self.steps.append(step)
            self.vars.append(variables)
        return self._slots[key]

    def _negate(self, slot):
        return self._step(("neg", slot, None), self.vars[slot])

    def _spread(self, slot, want):
        have = self.vars[slot]
        if have == want:
            return slot
        return self._step(("spread", slot, tuple(
            j for j, var in enumerate(want) if var not in have)), want)


class TestCompile:
    def test_programs_match_the_uncached_compile(self):
        # 600 goals, each with its hypotheses in one program as entails
        # compiles them, and each formula alone with its free variables
        # fixed
        kinds = set()
        for gamma, phi, _, chain_n in search_problems(21, 600):
            for fix_free, group in [(False, [phi, *gamma]),
                                    *((True, [f]) for f in [phi, *gamma])]:
                program = semantics.RowProgram(chain_n - 1, fix_free)
                reference = ReferenceProgram(chain_n - 1, fix_free)
                assert [program.add(f) for f in group] \
                    == [reference.add(f) for f in group]
                assert (program.steps, program.vars) \
                    == (reference.steps, reference.vars), \
                    [render(f) for f in group]
                kinds |= {step[0] for step in program.steps}
        assert kinds == {"atom", "const", "neg", "plus", "times", "spread",
                         "sup", "inf"}

    def test_atom_cells_read_each_point(self):
        # an atom's cells list, over the product of its variables, the
        # offset plus each argument's value times size^(arity - 1 - i)
        rng = random.Random(22)
        arities = set()
        for i in range(300):
            fix_free = i % 2 == 1
            program = semantics.RowProgram(2, fix_free)
            program.add(random_formula(rng, LIFT_LANG, rng.randint(1, 4)))
            for size in (1, 2, 3):
                offsets = {p: rng.randrange(20) for p, _ in
                           LIFT_LANG.predicates}
                fixed = {v: rng.randrange(size) for v in program.fixed}
                cells = program.atom_cells(size, offsets,
                                           fixed if fix_free else None)
                atoms = [slot for slot, step in enumerate(program.steps)
                         if step[0] == "atom"]
                assert sorted(cells) == atoms
                for slot in atoms:
                    _, pred, args = program.steps[slot]
                    variables = program.vars[slot]
                    expected = []
                    for values in itertools.product(range(size),
                                                    repeat=len(variables)):
                        s = {**fixed, **dict(zip(variables, values))}
                        expected.append(offsets[pred] + sum(
                            s[v] * size ** (len(args) - 1 - k)
                            for k, v in enumerate(args)))
                    assert type(cells[slot]) is tuple
                    assert list(cells[slot]) == expected, (args, variables)
                    arities.add(len(args))
        assert arities == {0, 1, 2}
        for cache in (semantics._ordered, semantics._missing,
                      semantics._atom_cells):
            assert cache.cache_parameters()["maxsize"] is not None
