import itertools
import random
from fractions import Fraction as F

import pytest

from mvlogic import semantics
from mvlogic.interlab import _levels
from mvlogic.mv_core import ONE, ZERO, CarrierError, Chain
from mvlogic.semantics import (
    Assignment, MissingTableError, Model, NoCounterexampleUpTo, RefutedBy,
    SearchTooLarge, entails, eval_formula, is_valid, random_model,
    truth_degree,
)
from mvlogic.syntax import (
    Atom, Bottom, Exists, Forall, Implies, LanguageSpec, Neg, Odot, Oplus,
    Top, free_vars, parse, random_formula, render, substitute,
)

LANG = LanguageSpec(num_vars=4, reserve=1, predicates=(("p", 1),))
RICH = LanguageSpec(num_vars=5, reserve=1, predicates=(("p", 1), ("s", 2)))
PROPS = LanguageSpec(num_vars=2, reserve=1,
                     predicates=(("a", 0), ("b", 0), ("c", 0)))


def _prop_eval(phi, valuation, chain):
    """Direct recursive valuation of a quantifier-free formula, in
    Fractions: the reference for the semantics evaluator and for
    interlab's truth tables on levels."""
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
        # oracle: enumerate every assignment of all variables
        rng = random.Random(0)
        chain = Chain(3)
        for _ in range(60):
            model = random_model(rng, RICH, 3, chain)
            phi = random_formula(rng, RICH, 3)
            for choice in itertools.product(model.domain,
                                            repeat=len(RICH.variables)):
                s = Assignment(dict(zip(RICH.variables, choice)))
                direct = eval_formula(phi, model, s)
                assert chain.contains(direct)

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
