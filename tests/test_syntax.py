import random

import pytest

from mvlogic.syntax import (
    MAX_DEPTH, AdmissionError, Atom, BOTTOM, Exists, Forall, Implies,
    LanguageSpec, Neg, Odot, Oplus, ParseError, TOP, all_vars, bound_vars,
    free_vars, parse, random_formula, render, substitute,
    substitute_capture_avoiding, substitute_free,
)

LANG = LanguageSpec(num_vars=5, reserve=1,
                    predicates=(("p", 2), ("q", 1), ("r", 0)))


class TestVariables:
    def test_atom_vars(self):
        phi = Atom("p", ("v0", "v1"))
        assert free_vars(phi) == {"v0", "v1"}
        assert bound_vars(phi) == set()

    def test_constants(self):
        assert free_vars(TOP) == set() and bound_vars(TOP) == set()
        assert free_vars(BOTTOM) == set() and bound_vars(BOTTOM) == set()

    def test_single_quantifier(self):
        phi = Exists(frozenset({"v0"}), Atom("p", ("v0", "v1")))
        assert free_vars(phi) == {"v1"}
        assert bound_vars(phi) == {"v0"}

    def test_union_is_all_vars(self):
        rng = random.Random(0)
        for _ in range(100):
            phi = random_formula(rng, LANG, 4)
            assert all_vars(phi) == free_vars(phi) | bound_vars(phi)


def restrict_extend(mapping, zs):
    """f|Z: agrees with f on dom(f) cap Z, identity on the rest of Z."""
    return {z: mapping.get(z, z) for z in zs}


class TestRestrictExtend:
    def test_empty_map_is_identity(self):
        assert restrict_extend({}, ["v0", "v1"]) == {"v0": "v0", "v1": "v1"}

    def test_partial_extension(self):
        assert restrict_extend({"v0": "v2"}, ["v0", "v1"]) \
            == {"v0": "v2", "v1": "v1"}

    def test_disjoint_domain(self):
        assert restrict_extend({"v5": "v0"}, ["v0"]) == {"v0": "v0"}


class TestSubstitute:
    def test_atom_clause(self):
        phi = Atom("p", ("v0", "v0"))
        assert substitute({"v0": "v1"}, phi) == Atom("p", ("v1", "v1"))

    def test_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            phi = random_formula(rng, LANG, 3)
            assert substitute({}, phi) == phi

    def test_quantifier_block_renamed(self):
        phi = Exists(frozenset({"v0"}), Atom("q", ("v0",)))
        out = substitute({"v0": "v1"}, phi)
        assert out == Exists(frozenset({"v1"}), Atom("q", ("v1",)))

    def test_composition_law(self):
        rng = random.Random(2)
        variables = LANG.variables
        for _ in range(150):
            phi = random_formula(rng, LANG, 4)
            sigma = {v: variables[rng.randrange(len(variables))]
                     for v in variables}
            tau = {v: variables[rng.randrange(len(variables))]
                   for v in variables}
            composed = {v: sigma.get(tau[v], tau[v]) for v in variables}
            assert substitute(composed, phi) \
                == substitute(sigma, substitute(tau, phi))


class TestSubstituteFree:
    def test_atom_clause(self):
        phi = Atom("p", ("v0", "v1"))
        assert substitute_free({"v0": "v1"}, phi) == Atom("p", ("v1", "v1"))

    def test_bound_variable_shielded(self):
        phi = Forall(frozenset({"v0"}), Atom("q", ("v0",)))
        assert substitute_free({"v0": "v1"}, phi) == phi

    def test_free_variable_inside_block(self):
        phi = Forall(frozenset({"v0"}), Atom("p", ("v0", "v1")))
        out = substitute_free({"v1": "v2"}, phi)
        assert out == Forall(frozenset({"v0"}), Atom("p", ("v0", "v2")))

    def test_blocks_never_change(self):
        rng = random.Random(3)
        variables = LANG.variables
        for _ in range(150):
            phi = random_formula(rng, LANG, 4)
            tau = {v: variables[rng.randrange(len(variables))]
                   for v in variables[:3]}
            assert bound_vars(substitute_free(tau, phi)) == bound_vars(phi)

    def test_free_image_containment(self):
        rng = random.Random(4)
        variables = LANG.variables
        for _ in range(150):
            phi = random_formula(rng, LANG, 4)
            tau = {v: variables[rng.randrange(len(variables))]
                   for v in variables[:3]}
            image = {tau.get(v, v) for v in free_vars(phi)}
            assert free_vars(substitute_free(tau, phi)) \
                <= image | free_vars(phi)


class TestCaptureAvoiding:
    def test_collision_renamed_away(self):
        phi = Exists(frozenset({"v1"}), Atom("p", ("v0", "v1")))
        out = substitute_capture_avoiding({"v0": "v1"}, phi)
        # the block moved out of the way; v1 now occurs free inside
        block = next(iter(out.block))
        assert block != "v1"
        assert out.body == Atom("p", ("v1", block))

    def test_agrees_with_raw_substitution_for_permutations(self):
        # for injective maps the two routes are alpha-variants; compare
        # their free variables and shapes via a round of renderings
        phi = Exists(frozenset({"v1"}), Atom("p", ("v0", "v1")))
        raw = substitute({"v0": "v2", "v1": "v3", "v2": "v0", "v3": "v1"}, phi)
        safe = substitute_capture_avoiding(
            {"v0": "v2", "v1": "v3", "v2": "v0", "v3": "v1"}, phi)
        assert free_vars(raw) == free_vars(safe) == {"v2"}


class TestParseRender:
    def test_grammar_example(self):
        phi = parse("p(v0,v1) (+) ~q(v0)", LANG)
        assert phi == Oplus(Atom("p", ("v0", "v1")), Neg(Atom("q", ("v0",))))

    def test_quantifier_example(self):
        phi = parse("E{v0} q(v0)", LANG)
        assert phi == Exists(frozenset({"v0"}), Atom("q", ("v0",)))

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse("p(v0)", LANG)

    def test_unknown_predicate(self):
        with pytest.raises(ParseError):
            parse("zz(v0)", LANG)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p(v0,v1) (+)", LANG)
        assert err.value.position == 12

    @pytest.mark.parametrize("nest", [
        lambda k: "(" * k + "r" + ")" * k,
        lambda k: "~" * (k - 1) + "r",
        lambda k: "E{v0} " * (k - 1) + "r",
        lambda k: " (+) ".join(["r"] * k),
        lambda k: " -> ".join(["r"] * k),
    ], ids=["parentheses", "negations", "quantifiers", "oplus-chain",
            "implications"])
    def test_nesting_is_refused_past_max_depth(self, nest):
        parse(nest(MAX_DEPTH), LANG)
        with pytest.raises(ParseError, match="nests deeper than"):
            parse(nest(MAX_DEPTH + 1), LANG)

    def test_precedence(self):
        phi = parse("q(v0) -> q(v1) (+) q(v2) (*) ~r", LANG)
        assert phi == Implies(
            Atom("q", ("v0",)),
            Oplus(Atom("q", ("v1",)), Odot(Atom("q", ("v2",)), Neg(Atom("r", ())))))

    def test_implication_right_associative(self):
        phi = parse("r -> r -> r", LANG)
        assert phi == Implies(Atom("r", ()), Implies(Atom("r", ()), Atom("r", ())))

    def test_zero_arity_atom_spellings(self):
        assert parse("r", LANG) == parse("r()", LANG) == Atom("r", ())

    def test_parse_render_round_trip_on_asts(self):
        rng = random.Random(5)
        for _ in range(300):
            phi = random_formula(rng, LANG, 4)
            assert parse(render(phi), LANG) == phi

    def test_render_parse_canonical_on_texts(self):
        texts = ["((q(v0)))", "T (+) (F)", "A{v1,v0} p(v0,v1)",
                 "q(v0) (*) (q(v1) (*) q(v2))"]
        for text in texts:
            once = render(parse(text, LANG))
            assert render(parse(once, LANG)) == once


class TestAdmission:
    def test_reserve_enforced(self):
        tight = LanguageSpec(num_vars=2, reserve=1, predicates=(("q", 1),))
        parse("q(v0)", tight)  # fine: v1 stays spare
        with pytest.raises(AdmissionError):
            tight.admit(Odot(Atom("q", ("v0",)), Atom("q", ("v1",))))

    def test_block_outside_vocabulary(self):
        phi = Forall(frozenset({"v9"}), Atom("r", ()))
        with pytest.raises(AdmissionError):
            LANG.admit(phi)

    def test_messages_in_order_of_the_checks(self):
        # the vocabulary is checked before any arity, the arities left to
        # right before the reserve, and an unknown predicate is an arity
        # check of its own
        tight = LanguageSpec(num_vars=3, reserve=2, predicates=(("q", 1),))
        cases = [
            (LANG, Odot(Atom("p", ("v0",)), Atom("q", ("v9",))),
             "variables ['v9'] outside V"),
            (LANG, Forall(frozenset({"v7"}), Atom("r", ("v0",))),
             "variables ['v7'] outside V"),
            (LANG, Oplus(Atom("q", ("v0", "v1")), Atom("p", ("v0",))),
             "q expects 1 arguments, got 2"),
            (LANG, Neg(Implies(Atom("s", ()), Atom("r", ("v0",)))),
             "unknown predicate 's'"),
            (tight, Exists(frozenset({"v1"}), Atom("q", ("v0", "v1"))),
             "q expects 1 arguments, got 2"),
            (tight, Odot(Atom("q", ("v0",)), Atom("q", ("v1",))),
             "formula uses 2 of 3 variables; reserve of 2 violated"),
        ]
        for language, phi, message in cases:
            with pytest.raises(AdmissionError) as exc:
                language.admit(phi)
            assert str(exc.value) == message, render(phi)

    def test_a_non_formula_is_refused(self):
        with pytest.raises(TypeError) as exc:
            LANG.admit(Neg(Oplus(Atom("r", ()), "q(v0)")))
        assert str(exc.value) == "not a formula: 'q(v0)'"

    def test_language_validation(self):
        with pytest.raises(ValueError):
            LanguageSpec(num_vars=2, reserve=0, predicates=())
        with pytest.raises(ValueError):
            LanguageSpec(num_vars=2, reserve=1, predicates=(("p", 2),))
        with pytest.raises(ValueError):
            LanguageSpec(num_vars=3, reserve=1, predicates=(("v0", 1),))

    def test_spec_json_round_trip(self):
        again = LanguageSpec.from_json(LANG.to_json())
        assert again.num_vars == LANG.num_vars
        assert again.predicates == LANG.predicates


class TestFormulaNodes:
    """The formula nodes are frozen records (mv_core.record): fields in
    declaration order, keyword construction, field equality, the hash of
    the field tuple and the generated repr."""

    NODES = [
        (Atom, {"pred": "p", "args": ("v0", "v1")},
         "Atom(pred='p', args=('v0', 'v1'))"),
        (Oplus, {"left": TOP, "right": BOTTOM},
         "Oplus(left=Top(), right=Bottom())"),
        (Odot, {"left": TOP, "right": TOP}, "Odot(left=Top(), right=Top())"),
        (Implies, {"left": BOTTOM, "right": TOP},
         "Implies(left=Bottom(), right=Top())"),
        (Neg, {"body": Atom("r", ())}, "Neg(body=Atom(pred='r', args=()))"),
        (Forall, {"block": frozenset({"v0"}), "body": TOP},
         "Forall(block=frozenset({'v0'}), body=Top())"),
        (Exists, {"block": frozenset({"v1"}), "body": BOTTOM},
         "Exists(block=frozenset({'v1'}), body=Bottom())"),
    ]

    @pytest.mark.parametrize("node, fields, text", NODES,
                             ids=[n.__name__ for n, _, _ in NODES])
    def test_frozen_record(self, node, fields, text):
        phi = node(**fields)
        assert phi == node(*fields.values())
        assert vars(phi) == fields
        assert hash(phi) == hash(tuple(fields.values()))
        assert repr(phi) == text
        assert node.__record_fields__ == tuple(fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(phi, name, None)
            with pytest.raises(AttributeError):
                delattr(phi, name)
        assert vars(phi) == fields
