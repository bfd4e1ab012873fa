import itertools
import random
from fractions import Fraction as F

import pytest

from mvlogic.calculus import (
    Accept, DEFAULT_AUDIT_LANGUAGE, MV_PROP_SCHEMAS, Proof, ProofStep, Reject,
    check_axiom_instance, check_proof, proof_from_json, proof_to_json,
    soundness_audit,
)
from mvlogic import semantics
from mvlogic.mv_core import AuditReport, Chain
from mvlogic.semantics import Model, SearchTooLarge, is_valid
from mvlogic.syntax import (
    Exists, Forall, Implies, LanguageSpec, Neg, Odot, Oplus, parse,
    random_formula, substitute, substitute_free,
)

LANG = LanguageSpec(num_vars=5, reserve=1,
                    predicates=(("p", 1), ("q", 1)))
CAPTURE = LanguageSpec(num_vars=5, reserve=1,
                       predicates=(("p", 1), ("s", 2)))
BINARY = LanguageSpec(num_vars=3, reserve=1, predicates=(("p", 2),))


class TestAxiomInstances:
    def test_a5_accepted(self):
        body = parse("p(v0)", LANG)
        inst = Implies(Forall(frozenset({"v1"}), body), body)
        verdict = check_axiom_instance("A5", inst, LANG,
                                       data={"tau": {"v1": "v2"}})
        assert verdict.ok

    def test_a5_side_condition(self):
        body = Exists(frozenset({"v1"}), parse("s(v0,v1)", CAPTURE))
        inst = Implies(Forall(frozenset({"v0"}), body),
                       substitute_free({"v0": "v1"}, body))
        verdict = check_axiom_instance("A5", inst, CAPTURE,
                                       data={"tau": {"v0": "v1"}})
        assert not verdict.ok and "SideConditionViolated" in verdict.reason

    def test_a3_rejects_block_meeting_free_vars(self):
        a, b = parse("p(v0)", LANG), parse("q(v0)", LANG)
        inst = Implies(Forall(frozenset({"v0"}), Implies(a, b)),
                       Implies(a, Forall(frozenset({"v0"}), b)))
        verdict = check_axiom_instance("A3", inst, LANG)
        assert not verdict.ok and "SideConditionViolated" in verdict.reason

    def test_a3_accepted(self):
        a, b = parse("p(v0)", LANG), parse("q(v0)", LANG)
        inst = Implies(Forall(frozenset({"v1"}), Implies(a, b)),
                       Implies(a, Forall(frozenset({"v1"}), b)))
        assert check_axiom_instance("A3", inst, LANG).ok

    def test_a4_modes(self):
        a, b = parse("p(v0)", LANG), parse("q(v1)", LANG)
        inst = Implies(Forall(frozenset({"v1"}), Implies(a, b)),
                       Implies(Exists(frozenset({"v1"}), a), b))
        assert check_axiom_instance("A4", inst, LANG, mode="printed").ok
        strict = check_axiom_instance("A4", inst, LANG, mode="strict")
        assert not strict.ok  # v1 is free in the consequent

    def test_a2_accepted(self):
        a, b = parse("p(v0)", LANG), parse("q(v0)", LANG)
        core = Implies(a, b)
        bridge = Oplus(Neg(a), b)
        inst = Odot(Implies(core, bridge), Implies(bridge, core))
        assert check_axiom_instance("A2", inst, LANG).ok

    def test_mv_prop_schemas(self):
        a, b = parse("p(v0)", LANG), parse("q(v1)", LANG)
        l1 = Implies(a, Implies(b, a))
        verdict = check_axiom_instance("MV-PROP", l1, LANG)
        assert verdict.ok and verdict.schema == "L1"
        assert not check_axiom_instance("MV-PROP", Implies(a, b), LANG).ok

    def test_metavariable_consistency(self):
        a, b = parse("p(v0)", LANG), parse("q(v0)", LANG)
        broken = Implies(a, Implies(b, b))  # not A -> (B -> A)
        assert not check_axiom_instance("MV-PROP", broken, LANG).ok


def mp_proof():
    p, q = parse("p(v0)", LANG), parse("q(v0)", LANG)
    return Proof((p, Implies(p, q)), (
        ProofStep("Hyp", p, (0,)),
        ProofStep("Hyp", Implies(p, q), (1,)),
        ProofStep("MP", q, (0, 1)),
    ))


class TestProofChecking:
    def test_single_axiom_step(self):
        a, b = parse("p(v0)", LANG), parse("q(v0)", LANG)
        core = Implies(a, b)
        bridge = Oplus(Neg(a), b)
        inst = Odot(Implies(core, bridge), Implies(bridge, core))
        proof = Proof((), (ProofStep("Ax", inst, schema="A2"),))
        assert check_proof(proof, LANG).accepted

    def test_modus_ponens(self):
        assert check_proof(mp_proof(), LANG).accepted

    def test_shape_mismatch_rejected(self):
        p, q = parse("p(v0)", LANG), parse("q(v0)", LANG)
        proof = Proof((p,), (
            ProofStep("Hyp", p, (0,)),
            ProofStep("MP", q, (0, 0)),
        ))
        verdict = check_proof(proof, LANG)
        assert isinstance(verdict, Reject)
        assert verdict.step == 1 and "shape mismatch" in verdict.reason

    def test_forward_reference_rejected(self):
        p = parse("p(v0)", LANG)
        proof = Proof((p,), (ProofStep("MP", p, (0, 1)),))
        verdict = check_proof(proof, LANG)
        assert not verdict.accepted and "IndexError" in verdict.reason

    def test_generalization(self):
        p = parse("p(v0)", LANG)
        proof = Proof((p,), (
            ProofStep("Hyp", p, (0,)),
            ProofStep("Gen", Forall(frozenset({"v1"}), p), (0,),
                      block=frozenset({"v1"})),
        ))
        assert check_proof(proof, LANG).accepted

    def test_free_sub_inverse_rule(self):
        phi = parse("p(v0)", LANG)
        tau = {"v0": "v2"}
        proof = Proof((substitute_free(tau, phi),), (
            ProofStep("Hyp", substitute_free(tau, phi), (0,)),
            ProofStep("FreeSubInv", phi, (0,),
                      tau=tuple(sorted(tau.items()))),
        ))
        assert check_proof(proof, LANG).accepted

    def test_free_sub_inverse_requires_injectivity(self):
        phi = parse("p(v0) (+) q(v1)", LANG)
        tau = {"v0": "v2", "v1": "v2"}
        proof = Proof((substitute_free(tau, phi),), (
            ProofStep("Hyp", substitute_free(tau, phi), (0,)),
            ProofStep("FreeSubInv", phi, (0,),
                      tau=tuple(sorted(tau.items()))),
        ))
        verdict = check_proof(proof, LANG)
        assert not verdict.accepted and "one to one" in verdict.reason

    @pytest.mark.parametrize("phi, tau", [
        ("p(v0)", {"v0": "v2", "v1": "v3"}),
        ("p(v0) (+) q(v1)", {"v0": "v2"}),
    ], ids=["extra-variable", "missing-free-variable"])
    def test_free_sub_inverse_domain_is_the_free_variables(self, phi, tau):
        # tau is one to one, misses the bound variables and carries phi to
        # the premise, so only the domain check rejects the step
        phi = parse(phi, LANG)
        premise = substitute_free(tau, phi)
        proof = Proof((premise,), (
            ProofStep("Hyp", premise, (0,)),
            ProofStep("FreeSubInv", phi, (0,),
                      tau=tuple(sorted(tau.items()))),
        ))
        verdict = check_proof(proof, LANG)
        assert not verdict.accepted and verdict.step == 1
        assert "dom(tau) must be the free variables" in verdict.reason

    def test_sub_rule(self):
        phi = parse("E{v1} p(v1) (+) q(v0)", LANG)
        tau = {"v0": "v2", "v1": "v3"}
        image = substitute(tau, phi)
        proof = Proof((phi,), (
            ProofStep("Hyp", phi, (0,)),
            ProofStep("SubInv", image, (0,), tau=tuple(sorted(tau.items()))),
        ))
        assert check_proof(proof, LANG).accepted

    def test_monotone_under_hypothesis_extension(self):
        proof = mp_proof()
        extended = proof.hypotheses + (parse("q(v3)", LANG),)
        assert check_proof(proof, LANG, gamma=extended).accepted

    def test_acceptance_stable_under_renaming(self):
        # rename the whole proof through a permutation of the variables
        proof = mp_proof()
        perm = {"v0": "v1", "v1": "v0", "v2": "v3", "v3": "v2", "v4": "v4"}
        renamed = Proof(
            tuple(substitute(perm, h) for h in proof.hypotheses),
            tuple(ProofStep(s.rule, substitute(perm, s.formula), s.refs,
                            s.schema, frozenset(perm[v] for v in s.block),
                            tuple(sorted((perm[k], perm[v])
                                         for k, v in s.tau)), s.mode)
                  for s in proof.steps))
        assert check_proof(renamed, LANG).accepted

    def test_json_round_trip(self):
        proof = mp_proof()
        assert proof_from_json(proof_to_json(proof), LANG) == proof


def _step(rule, text, refs=(), tau=None, block=(), **fields):
    """A step of LANG, its formula written as text and tau as a dict."""
    return ProofStep(rule, parse(text, LANG), refs,
                     tau=tuple(sorted((tau or {}).items())),
                     block=frozenset(block), **fields)


def _axiom(schema, text, tau=None, mode="printed"):
    return [_step("Ax", text, tau=tau, schema=schema, mode=mode)]


# (hypotheses, steps, rejected step, reason): every way a step or an axiom
# instance is rejected, each by a proof that breaks that rule alone
REJECTIONS = {
    "mv-prop-no-schema": (
        [], _axiom("MV-PROP", "p(v0)"),
        0, "axiom check failed: matches no propositional schema"),
    "a2-shape": (
        [], _axiom("A2", "p(v0)"), 0, "axiom check failed: not of A2 shape"),
    "a3-antecedent": (
        [], _axiom("A3", "p(v0) -> p(v0)"),
        0, "axiom check failed: antecedent must be a universal block"),
    "a3-block-body": (
        [], _axiom("A3", "(A{v1} p(v0)) -> p(v0)"),
        0, "axiom check failed: block body must be an implication"),
    "a3-consequent": (
        [], _axiom("A3", "(A{v1} (p(v0) -> q(v0))) -> q(v0)"),
        0, "axiom check failed: consequent must be phi -> (AW psi)"),
    "a4-consequent": (
        [], _axiom("A4", "(A{v1} (p(v0) -> q(v0))) -> q(v0)"),
        0, "axiom check failed: consequent must be (EW phi) -> psi"),
    "a3-side-condition": (
        [], _axiom("A3",
                   "(A{v0} (p(v0) -> q(v0))) -> (p(v0) -> A{v0} q(v0))"),
        0, "axiom check failed: SideConditionViolated: block meets "
           "free(p(v0))"),
    "a4-strict-side-condition": (
        [], _axiom("A4",
                   "(A{v1} (p(v0) -> q(v1))) -> ((E{v1} p(v0)) -> q(v1))",
                   mode="strict"),
        0, "axiom check failed: SideConditionViolated: strict mode, block "
           "meets free(q(v1))"),
    "a5-no-tau": (
        [], _axiom("A5", "(A{v1} p(v1)) -> p(v2)"),
        0, "axiom check failed: A5 instance needs its map tau"),
    "a5-shape": (
        [], _axiom("A5", "p(v0)", {"v1": "v2"}),
        0, "axiom check failed: shape must be (AW phi) -> S_f(tau)phi"),
    "a6-shape": (
        [], _axiom("A6", "p(v0)", {"v1": "v2"}),
        0, "axiom check failed: shape must be S_f(tau)phi -> (EW phi)"),
    "a5-tau-domain": (
        [], _axiom("A5", "(A{v1} p(v1)) -> p(v2)", {"v0": "v2"}),
        0, "axiom check failed: dom(tau) must be exactly the block"),
    "a5-tau-bound": (
        [], _axiom("A5", "(A{v1} E{v2} q(v1)) -> E{v2} q(v2)", {"v1": "v2"}),
        0, "axiom check failed: SideConditionViolated: tau(v1) = v2 is "
           "bound"),
    "a5-tau-outside": (
        [], _axiom("A5", "(A{v1} p(v1)) -> p(v2)", {"v1": "v7"}),
        0, "axiom check failed: tau(v1) = v7 is outside V"),
    "a5-not-an-instance": (
        [], _axiom("A5", "(A{v1} p(v1)) -> p(v3)", {"v1": "v2"}),
        0, "axiom check failed: instance is not S_f(tau) of the body"),
    "unknown-schema": (
        [], _axiom("A7", "p(v0)"),
        0, "axiom check failed: unknown schema 'A7'"),
    "hyp-arity": (
        ["p(v0)"], [_step("Hyp", "p(v0)")],
        0, "Hyp takes one index into the hypothesis list"),
    "hyp-index": (
        [], [_step("Hyp", "p(v0)", (0,))], 0, "IndexError: no hypothesis 0"),
    "hyp-differs": (
        ["p(v0)"], [_step("Hyp", "q(v0)", (0,))],
        0, "asserted formula differs from the hypothesis"),
    "unknown-rule": (
        [], [_step("Cut", "p(v0)")], 0, "unknown rule 'Cut'"),
    "forward-reference": (
        [], [_step("MP", "p(v0)", (0, 1))],
        0, "IndexError: reference 0 not before step 0"),
    "mp-arity": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)), _step("MP", "q(v0)", (0,))],
        1, "MP takes two references"),
    "mp-shape": (
        ["p(v0)", "q(v0)"],
        [_step("Hyp", "p(v0)", (0,)), _step("Hyp", "q(v0)", (1,)),
         _step("MP", "q(v0)", (0, 1))],
        2, "shape mismatch: second premise is not (first premise -> "
           "conclusion)"),
    "gen-arity": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("Gen", "A{v1} p(v0)", (0, 0), block={"v1"})],
        1, "Gen takes one reference"),
    "gen-empty-block": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("Gen", "p(v0)", (0,))],
        1, "Gen needs a nonempty block"),
    "gen-block-vocabulary": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("Gen", "p(v0)", (0,), block={"v7"})],
        1, "block escapes the vocabulary"),
    "gen-conclusion": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("Gen", "A{v2} p(v0)", (0,), block={"v1"})],
        1, "conclusion is not the generalization of the premise"),
    "free-sub-inv-arity": (
        ["p(v2)"], [_step("Hyp", "p(v2)", (0,)),
                    _step("FreeSubInv", "p(v0)", (0, 0), {"v0": "v2"})],
        1, "FreeSubInv takes one reference"),
    "free-sub-inv-domain": (
        ["p(v2)"], [_step("Hyp", "p(v2)", (0,)),
                    _step("FreeSubInv", "p(v0)", (0,), {"v1": "v2"})],
        1, "dom(tau) must be the free variables of the conclusion"),
    "free-sub-inv-injective": (
        ["p(v2) (+) q(v2)"],
        [_step("Hyp", "p(v2) (+) q(v2)", (0,)),
         _step("FreeSubInv", "p(v0) (+) q(v1)", (0,),
               {"v0": "v2", "v1": "v2"})],
        1, "tau must be one to one"),
    "free-sub-inv-bound": (
        ["p(v1) (*) E{v1} q(v1)"],
        [_step("Hyp", "p(v1) (*) E{v1} q(v1)", (0,)),
         _step("FreeSubInv", "p(v0) (*) E{v1} q(v1)", (0,), {"v0": "v1"})],
        1, "tau image meets the bound variables"),
    "free-sub-inv-premise": (
        ["p(v3)"], [_step("Hyp", "p(v3)", (0,)),
                    _step("FreeSubInv", "p(v0)", (0,), {"v0": "v2"})],
        1, "premise is not S_f(tau) of the conclusion"),
    "sub-inv-arity": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("SubInv", "p(v2)", (), {"v0": "v2"})],
        1, "SubInv takes one reference"),
    "sub-inv-domain": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("SubInv", "p(v2)", (0,), {"v1": "v2"})],
        1, "dom(tau) must be the variables of the premise"),
    "sub-inv-injective": (
        ["p(v0) (+) q(v1)"],
        [_step("Hyp", "p(v0) (+) q(v1)", (0,)),
         _step("SubInv", "p(v2) (+) q(v2)", (0,), {"v0": "v2", "v1": "v2"})],
        1, "tau must be one to one"),
    "sub-inv-vocabulary": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("SubInv", "p(v0)", (0,), {"v0": "v7"})],
        1, "tau image escapes the vocabulary"),
    "sub-inv-conclusion": (
        ["p(v0)"], [_step("Hyp", "p(v0)", (0,)),
                    _step("SubInv", "p(v3)", (0,), {"v0": "v2"})],
        1, "conclusion is not S(tau) of the premise"),
    "empty-proof": ([], [], -1, "empty proof"),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejection_reason(name):
    hypotheses, steps, step, reason = REJECTIONS[name]
    proof = Proof(tuple(parse(h, LANG) for h in hypotheses), tuple(steps))
    assert check_proof(proof, LANG) == Reject(step, reason)


class TestSoundness:
    def test_axiom_schemas_sound(self):
        for schema in ("MV-PROP", "A2", "A3", "A5", "A6"):
            report = soundness_audit(schema, 25, seed=0)
            assert report.passed, (schema, report.violations[:1])

    def test_a4_both_modes_sound(self):
        for mode in ("printed", "strict"):
            report = soundness_audit("A4", 25, seed=0, mode=mode)
            assert report.passed

    def test_rules_preserve_validity(self):
        for rule in ("MP", "Gen", "FreeSubInv", "SubInv"):
            report = soundness_audit(rule, 15, seed=0)
            assert report.passed, (rule, report.violations[:1])

    def test_mutated_a3_checker_is_caught(self):
        # with the side condition skipped the auditor must find violations,
        # each with the canonically first countermodel
        report = soundness_audit("A3", 60, seed=0, skip_side_conditions=True)
        assert [(v.instance, v.detail) for v in report.violations] == [
            ("A{v2} (E{v1} q(v2) -> q(v0) (+) p(v2)) -> E{v1} q(v2) -> "
             "A{v2} (q(v0) (+) p(v2))",
             "invalid in {'domain': 2, 'chain': 3, 'predicates': "
             "{'p': {'arity': 1, 'table': {'(0)': '0', '(1)': '1/2'}}, "
             "'q': {'arity': 1, 'table': {'(0)': '0', '(1)': '1/2'}}}}"),
            ("A{v0,v3} (p(v0) (+) A{v2} q(v2) -> ~(q(v0) -> r)) -> "
             "p(v0) (+) A{v2} q(v2) -> A{v0,v3} ~(q(v0) -> r)",
             "invalid in {'domain': 2, 'chain': 3, 'predicates': "
             "{'p': {'arity': 1, 'table': {'(0)': '0', '(1)': '1/2'}}, "
             "'q': {'arity': 1, 'table': {'(0)': '0', '(1)': '1/2'}}, "
             "'r': {'arity': 0, 'table': {'()': '0'}}}}"),
            ("A{v0,v3} (p(v2) (*) r (+) q(v0) -> ~p(v2) -> q(v0) (+) p(v3)) "
             "-> p(v2) (*) r (+) q(v0) -> "
             "A{v0,v3} (~p(v2) -> q(v0) (+) p(v3))",
             "invalid in {'domain': 2, 'chain': 3, 'predicates': "
             "{'p': {'arity': 1, 'table': {'(0)': '0', '(1)': '0'}}, "
             "'q': {'arity': 1, 'table': {'(0)': '0', '(1)': '1/2'}}, "
             "'r': {'arity': 0, 'table': {'()': '0'}}}}"),
            ("A{v2,v3} (A{v1} q(v3) -> p(v2) (*) T (*) q(v3)) -> "
             "A{v1} q(v3) -> A{v2,v3} (p(v2) (*) T (*) q(v3))",
             "invalid in {'domain': 2, 'chain': 3, 'predicates': "
             "{'p': {'arity': 1, 'table': {'(0)': '1/2', '(1)': '1/2'}}, "
             "'q': {'arity': 1, 'table': {'(0)': '0', '(1)': '1'}}}}"),
        ]

    def test_mutated_a5_checker_is_caught(self):
        report = soundness_audit("A5", 60, seed=4, skip_side_conditions=True,
                                 language=CAPTURE)
        # an AuditReport whose results are its violations, none holding
        assert isinstance(report, AuditReport) and not report.passed
        assert report.failures() == list(report.violations) \
            == list(report.results)
        assert (report.target, report.trials, report.seed) == ("A5", 60, 4)
        assert [(v.instance, v.detail) for v in report.violations] == [(
            "A{v2,v3} (A{v0} s(v2,v3) (+) ~p(v2)) -> "
            "A{v0} s(v0,v0) (+) ~p(v0)",
            "invalid in {'domain': 2, 'chain': 3, 'predicates': "
            "{'p': {'arity': 1, 'table': {'(0)': '0', '(1)': '1/2'}}, "
            "'s': {'arity': 2, 'table': {'(0,0)': '0', '(0,1)': '0', "
            "'(1,0)': '1/2', '(1,1)': '1/2'}}}}")]

    @pytest.mark.parametrize("target", ["A2", "MP"])
    def test_model_space_over_the_cap_raises_before_search(self, target,
                                                           monkeypatch):
        # a binary predicate on up to 4 points on Chain(3): 3^16 models
        # at |M| = 4 alone, far over the 500,000 cap of entails
        def refuse(*args):
            raise AssertionError("a model was enumerated")
        monkeypatch.setattr(semantics, "enumerate_models", refuse)
        with pytest.raises(SearchTooLarge):
            soundness_audit(target, 1, max_domain=4, seed=0, language=BINARY)

    @pytest.mark.parametrize("target", ["A2", "MP"])
    def test_model_space_over_the_cap_raises_before_any_chunk(
            self, target, monkeypatch):
        # the same search, with the builder of model chunks refusing
        def refuse(*args):
            raise AssertionError("a chunk of models was built")
        monkeypatch.setattr(semantics, "model_chunks", refuse)
        with pytest.raises(SearchTooLarge):
            soundness_audit(target, 1, max_domain=4, seed=0, language=BINARY)

    def test_capture_instance_semantically_invalid(self):
        # the concrete instance the A5 side condition exists to block
        body = Exists(frozenset({"v1"}), parse("s(v0,v1)", CAPTURE))
        inst = Implies(Forall(frozenset({"v0"}), body),
                       substitute_free({"v0": "v1"}, body))
        inequality = Model(CAPTURE, 2, Chain(2), {
            "s": {(0, 0): F(0), (0, 1): F(1), (1, 0): F(1), (1, 1): F(0)},
        })
        assert not is_valid(inst, inequality)
