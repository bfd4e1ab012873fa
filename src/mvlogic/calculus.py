"""Hilbert-style proof objects and their checker.

Axiom schemas: a propositional base (the four Lukasiewicz implication
schemas plus the definitional links between ->, (+), (*) and the
constants), the implication/strong-disjunction bridge (A2), the two
quantifier distribution schemas (A3, A4) with their variable side
conditions, and the two instantiation schemas (A5, A6) driven by free
substitutions. Rules: modus ponens, generalization, and the two inverse
substitution rules with injectivity side conditions.

A seeded soundness auditor replays random schema instances and rule
applications against the finite-model semantics, each as one bounded
entailment search.
"""

from __future__ import annotations

import random

from . import semantics, syntax
from .mv_core import (
    AuditReport, is_json_int, is_json_list, is_json_object, is_json_str,
    json_field, json_list_of, record,
)
from .syntax import (
    Atom, Top, Bottom, Oplus, Odot, Implies, Neg, Forall, Exists,
    TOP, BOTTOM, free_vars, bound_vars, all_vars,
    substitute, substitute_free, parse, render, random_formula,
)

SCHEMAS = ("MV-PROP", "A2", "A3", "A4", "A5", "A6")
RULES = ("MP", "Gen", "FreeSubInv", "SubInv")


@record
class Meta:
    """Metavariable leaf for schema patterns."""

    name: str


def _match(pattern, phi, binding):
    if isinstance(pattern, Meta):
        seen = binding.get(pattern.name)
        if seen is None:
            binding[pattern.name] = phi
            return True
        return seen == phi
    if type(pattern) is not type(phi):
        return False
    if isinstance(pattern, Atom):
        return pattern == phi
    if isinstance(pattern, (Top, Bottom)):
        return True
    if isinstance(pattern, Neg):
        return _match(pattern.body, phi.body, binding)
    if isinstance(pattern, (Oplus, Odot, Implies)):
        return (_match(pattern.left, phi.left, binding)
                and _match(pattern.right, phi.right, binding))
    raise TypeError(f"bad pattern node {pattern!r}")


_A, _B, _C = Meta("A"), Meta("B"), Meta("C")

MV_PROP_SCHEMAS = {
    "L1": Implies(_A, Implies(_B, _A)),
    "L2": Implies(Implies(_A, _B), Implies(Implies(_B, _C), Implies(_A, _C))),
    "L3": Implies(Implies(Implies(_A, _B), _B), Implies(Implies(_B, _A), _A)),
    "L4": Implies(Implies(Neg(_A), Neg(_B)), Implies(_B, _A)),
    "ODOT-DEF": Odot(
        Implies(Neg(Oplus(Neg(_A), Neg(_B))), Odot(_A, _B)),
        Implies(Odot(_A, _B), Neg(Oplus(Neg(_A), Neg(_B)))),
    ),
    "OPLUS-DEF": Odot(
        Implies(Neg(Odot(Neg(_A), Neg(_B))), Oplus(_A, _B)),
        Implies(Oplus(_A, _B), Neg(Odot(Neg(_A), Neg(_B)))),
    ),
    "TOP-DEF": Odot(Implies(TOP, Neg(BOTTOM)), Implies(Neg(BOTTOM), TOP)),
    "EFQ": Implies(BOTTOM, _A),
}

A2_PATTERN = Odot(
    Implies(Implies(_A, _B), Oplus(Neg(_A), _B)),
    Implies(Oplus(Neg(_A), _B), Implies(_A, _B)),
)


@record
class AxiomVerdict:
    ok: bool
    reason: str
    schema: str = ""


def check_axiom_instance(schema, phi, language, data=None, mode="printed"):
    """Shape-and-side-condition check for one axiom schema instance.

    data carries what the shape alone cannot determine (the map tau of A5
    and A6). mode selects the A4 side condition: "printed" restricts the
    block by the free variables of the antecedent's antecedent, exactly as
    stated; "strict" additionally restricts by the consequent's.
    """
    data = data or {}
    if schema == "MV-PROP":
        for name, pattern in MV_PROP_SCHEMAS.items():
            if _match(pattern, phi, {}):
                return AxiomVerdict(True, f"matches {name}", name)
        return AxiomVerdict(False, "matches no propositional schema")

    if schema == "A2":
        if _match(A2_PATTERN, phi, {}):
            return AxiomVerdict(True, "A2 shape", "A2")
        return AxiomVerdict(False, "not of A2 shape")

    if schema in ("A3", "A4"):
        if not (isinstance(phi, Implies) and isinstance(phi.left, Forall)):
            return AxiomVerdict(False, "antecedent must be a universal block")
        block = phi.left.block
        inner = phi.left.body
        if not isinstance(inner, Implies):
            return AxiomVerdict(False, "block body must be an implication")
        sub, sup = inner.left, inner.right
        if schema == "A3":
            want = Implies(sub, Forall(block, sup))
            if phi.right != want:
                return AxiomVerdict(False, "consequent must be phi -> (AW psi)")
        else:
            want = Implies(Exists(block, sub), sup)
            if phi.right != want:
                return AxiomVerdict(False, "consequent must be (EW phi) -> psi")
        if block & free_vars(sub):
            return AxiomVerdict(
                False,
                f"SideConditionViolated: block meets free({render(sub)})")
        if schema == "A4" and mode == "strict" and block & free_vars(sup):
            return AxiomVerdict(
                False,
                f"SideConditionViolated: strict mode, block meets free({render(sup)})")
        return AxiomVerdict(True, f"{schema} shape and side condition", schema)

    if schema in ("A5", "A6"):
        tau = data.get("tau")
        if tau is None:
            return AxiomVerdict(False, f"{schema} instance needs its map tau")
        if schema == "A5":
            if not (isinstance(phi, Implies) and isinstance(phi.left, Forall)):
                return AxiomVerdict(False, "shape must be (AW phi) -> S_f(tau)phi")
            block, body, target = phi.left.block, phi.left.body, phi.right
        else:
            if not (isinstance(phi, Implies) and isinstance(phi.right, Exists)):
                return AxiomVerdict(False, "shape must be S_f(tau)phi -> (EW phi)")
            block, body, target = phi.right.block, phi.right.body, phi.left
        if set(tau) != set(block):
            return AxiomVerdict(False, "dom(tau) must be exactly the block")
        banned = bound_vars(body)
        for v, image in tau.items():
            if image in banned:
                return AxiomVerdict(
                    False, f"SideConditionViolated: tau({v}) = {image} is bound")
            if image not in set(language.variables):
                return AxiomVerdict(False, f"tau({v}) = {image} is outside V")
        if target != substitute_free(tau, body):
            return AxiomVerdict(False, "instance is not S_f(tau) of the body")
        return AxiomVerdict(True, f"{schema} shape and side condition", schema)

    return AxiomVerdict(False, f"unknown schema {schema!r}")


@record
class ProofStep:
    rule: str
    formula: object
    refs: tuple = ()
    schema: str = ""
    block: frozenset = frozenset()
    tau: tuple = ()  # sorted (var, image) pairs
    mode: str = "printed"

    def tau_map(self):
        return dict(self.tau)


@record
class Proof:
    hypotheses: tuple
    steps: tuple


@record
class Accept:
    accepted = True


@record
class Reject:
    accepted = False
    step: int = -1
    reason: str = ""


def check_proof(proof, language, gamma=None):
    """Validate every step; Accept only if all of them check."""
    hypotheses = tuple(gamma) if gamma is not None else proof.hypotheses
    formulas = []
    for k, step in enumerate(proof.steps):
        verdict = _check_step(k, step, formulas, hypotheses, language)
        if verdict is not None:
            return verdict
        formulas.append(step.formula)
    if not proof.steps:
        return Reject(-1, "empty proof")
    return Accept()


def _check_step(k, step, formulas, hypotheses, language):
    if step.rule == "Hyp":
        # Hyp refs point into gamma, not into earlier steps.
        if len(step.refs) != 1:
            return Reject(k, "Hyp takes one index into the hypothesis list")
        i = step.refs[0]
        if not 0 <= i < len(hypotheses):
            return Reject(k, f"IndexError: no hypothesis {i}")
        if step.formula != hypotheses[i]:
            return Reject(k, "asserted formula differs from the hypothesis")
        return None
    if step.rule != "Ax" and step.rule not in RULES:
        return Reject(k, f"unknown rule {step.rule!r}")
    for r in step.refs:
        if not 0 <= r < k:
            return Reject(k, f"IndexError: reference {r} not before step {k}")
    if step.rule == "Ax":
        verdict = check_axiom_instance(
            step.schema, step.formula, language,
            data={"tau": step.tau_map()} if step.tau else None,
            mode=step.mode)
        if not verdict.ok:
            return Reject(k, f"axiom check failed: {verdict.reason}")
        return None
    if step.rule == "MP":
        if len(step.refs) != 2:
            return Reject(k, "MP takes two references")
        i, j = step.refs
        if formulas[j] != Implies(formulas[i], step.formula):
            return Reject(k, "shape mismatch: second premise is not "
                             "(first premise -> conclusion)")
        return None
    if step.rule == "Gen":
        if len(step.refs) != 1:
            return Reject(k, "Gen takes one reference")
        if not step.block:
            return Reject(k, "Gen needs a nonempty block")
        if not step.block <= set(language.variables):
            return Reject(k, "block escapes the vocabulary")
        if step.formula != Forall(step.block, formulas[step.refs[0]]):
            return Reject(k, "conclusion is not the generalization of the premise")
        return None
    if step.rule == "FreeSubInv":
        if len(step.refs) != 1:
            return Reject(k, "FreeSubInv takes one reference")
        tau = step.tau_map()
        phi = step.formula
        if set(tau) != free_vars(phi):
            return Reject(k, "dom(tau) must be the free variables of the conclusion")
        if len(set(tau.values())) != len(tau):
            return Reject(k, "tau must be one to one")
        if set(tau.values()) & bound_vars(phi):
            return Reject(k, "tau image meets the bound variables")
        if formulas[step.refs[0]] != substitute_free(tau, phi):
            return Reject(k, "premise is not S_f(tau) of the conclusion")
        return None
    # SubInv, the one rule left
    if len(step.refs) != 1:
        return Reject(k, "SubInv takes one reference")
    tau = step.tau_map()
    phi = formulas[step.refs[0]]
    if set(tau) != all_vars(phi):
        return Reject(k, "dom(tau) must be the variables of the premise")
    if len(set(tau.values())) != len(tau):
        return Reject(k, "tau must be one to one")
    if not set(tau.values()) <= set(language.variables):
        return Reject(k, "tau image escapes the vocabulary")
    # every block variable is in dom(tau), so no block image can escape
    # the vocabulary either
    if step.formula != substitute(tau, phi):
        return Reject(k, "conclusion is not S(tau) of the premise")
    return None


def proof_to_json(proof):
    steps = []
    for step in proof.steps:
        record = {"rule": step.rule, "formula": render(step.formula)}
        if step.refs:
            record["refs"] = list(step.refs)
        if step.schema:
            record["schema"] = step.schema
        if step.block:
            record["vars"] = sorted(step.block)
        if step.tau:
            record["tau"] = dict(step.tau)
        if step.mode != "printed":
            record["mode"] = step.mode
        steps.append(record)
    return {"hypotheses": [render(h) for h in proof.hypotheses], "steps": steps}


def proof_from_json(data, language):
    """The proof of a JSON object; only keys with a default may be missing."""
    texts = json_list_of(is_json_str)
    hypotheses = tuple(parse(t, language) for t in json_field(
        data, "hypotheses", texts, "a list of strings", ()))
    steps = [ProofStep(
        rule=json_field(r, "rule", is_json_str, "a string"),
        formula=parse(json_field(r, "formula", is_json_str, "a string"),
                      language),
        refs=tuple(json_field(r, "refs", json_list_of(is_json_int),
                              "a list of integers", ())),
        schema=json_field(r, "schema", is_json_str, "a string", ""),
        block=frozenset(json_field(r, "vars", texts, "a list of strings", ())),
        tau=tuple(sorted(json_field(r, "tau", lambda v: is_json_object(v)
                                    and all(map(is_json_str, v.values())),
                                    "an object of strings", {}).items())),
        mode=json_field(r, "mode", is_json_str, "a string", "printed"),
    ) for r in json_field(data, "steps", is_json_list, "a list")]
    return Proof(hypotheses, tuple(steps))


DEFAULT_AUDIT_LANGUAGE = syntax.LanguageSpec(
    num_vars=5,
    reserve=1,
    predicates=(("p", 1), ("q", 1), ("r", 0)),
)


@record
class Violation:
    target: str
    instance: str
    detail: str
    holds = False  # not a field: the report's JSON keeps its three keys


@record
class SoundnessReport(AuditReport):
    """The violations found as results, in trial order."""

    target: str
    trials: int
    seed: int

    @property
    def violations(self):
        return self.results


def _random_instance(rng, schema, language, depth, honest=True, mode="printed"):
    """One random instance of the schema; returns (formula, data)."""
    usable = list(language.variables[: language.num_vars - language.reserve])
    mk = lambda: random_formula(rng, language, depth)
    if schema == "MV-PROP":
        name = rng.choice(list(MV_PROP_SCHEMAS))
        pattern = MV_PROP_SCHEMAS[name]
        binding = {m: mk() for m in ("A", "B", "C")}

        def fill(node):
            if isinstance(node, Meta):
                return binding[node.name]
            if isinstance(node, (Top, Bottom, Atom)):
                return node
            if isinstance(node, Neg):
                return Neg(fill(node.body))
            return type(node)(fill(node.left), fill(node.right))

        return fill(pattern), None
    if schema == "A2":
        a, b = mk(), mk()
        core = Implies(a, b)
        bridge = Oplus(Neg(a), b)
        return Odot(Implies(core, bridge), Implies(bridge, core)), None
    if schema in ("A3", "A4"):
        while True:
            a, b = mk(), mk()
            if not honest:
                pool = usable
                break
            pool = [v for v in usable if v not in free_vars(a)]
            if schema == "A4" and mode == "strict":
                pool = [v for v in pool if v not in free_vars(b)]
            if pool:
                break  # otherwise redraw: a legal block must exist
        block = frozenset(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
        inner = Forall(block, Implies(a, b))
        if schema == "A3":
            return Implies(inner, Implies(a, Forall(block, b))), None
        return Implies(inner, Implies(Exists(block, a), b)), None
    # A5 / A6
    while True:
        body = mk()
        if not honest:
            # bias images toward bound variables so capture actually occurs
            pool = sorted(bound_vars(body)) or usable
            break
        pool = [v for v in usable if v not in bound_vars(body)]
        if pool:
            break
    block = frozenset(rng.sample(usable, rng.randint(1, min(2, len(usable)))))
    tau = {v: rng.choice(pool) for v in block}
    inst = substitute_free(tau, body)
    if schema == "A5":
        return Implies(Forall(block, body), inst), {"tau": tau}
    return Implies(inst, Exists(block, body)), {"tau": tau}


def soundness_audit(target, trials, max_domain=2, chain_n=3, seed=0,
                    language=None, depth=2, skip_side_conditions=False,
                    mode="printed"):
    """Replay random instances of a schema or rule against the semantics.

    Each trial is one bounded entailment search (`semantics.entails`)
    over every model with |M| <= max_domain on Chain(chain_n): a schema
    instance must follow from no hypotheses, a rule's conclusion from its
    premises. A violation names the canonically first countermodel, the
    least domain size first. Each trial searches |M| = max_domain first
    and the smaller sizes only if that domain holds a countermodel: a
    smaller model is a countermodel iff its lift to max_domain is one
    (see `entails`). A trial whose model space exceeds the cap of
    `entails` raises `SearchTooLarge` before any model is enumerated.
    With skip_side_conditions=True the generator ignores the variable
    side conditions, which is the mutation hook the test suite uses to
    prove the auditor has teeth.
    """
    language = language or DEFAULT_AUDIT_LANGUAGE
    rng = random.Random(seed)
    violations = []

    if target in SCHEMAS:
        for _ in range(trials):
            phi, data = _random_instance(
                rng, target, language, depth,
                honest=not skip_side_conditions, mode=mode)
            if not skip_side_conditions:
                verdict = check_axiom_instance(target, phi, language,
                                               data=data, mode=mode)
                if not verdict.ok:
                    violations.append(Violation(
                        target, render(phi), f"generator emitted a non-instance: "
                                             f"{verdict.reason}"))
                    continue
            outcome = semantics.entails([], phi, language, max_domain,
                                        chain_n)
            if outcome.refuted:
                violations.append(Violation(
                    target, render(phi),
                    f"invalid in {outcome.model.to_json()}"))
    elif target in RULES:
        for _ in range(trials):
            outcome = _audit_rule_once(rng, target, language, depth,
                                       max_domain, chain_n)
            if outcome is not None:
                violations.append(outcome)
    else:
        raise ValueError(f"unknown audit target {target!r}")
    return SoundnessReport(tuple(violations), target, trials, seed)


def _audit_rule_once(rng, rule, language, depth, max_domain, chain_n):
    usable = list(language.variables[: language.num_vars - language.reserve])
    phi = random_formula(rng, language, depth)
    if rule == "MP":
        psi = random_formula(rng, language, depth)
        premises = [phi, Implies(phi, psi)]
        conclusion = psi
    elif rule == "Gen":
        block = frozenset(rng.sample(usable, rng.randint(1, 2)))
        premises = [phi]
        conclusion = Forall(block, phi)
    elif rule == "FreeSubInv":
        fv = sorted(free_vars(phi))
        pool = [v for v in usable if v not in bound_vars(phi)]
        if len(pool) < len(fv):
            return None
        images = rng.sample(pool, len(fv))
        tau = dict(zip(fv, images))
        premises = [substitute_free(tau, phi)]
        conclusion = phi
    elif rule == "SubInv":
        av = sorted(all_vars(phi))
        if len(av) > len(usable):
            return None
        images = rng.sample(usable, len(av))
        tau = dict(zip(av, images))
        premises = [phi]
        conclusion = substitute(tau, phi, language)
    else:
        raise ValueError(rule)
    verdict = semantics.entails(premises, conclusion, language, max_domain,
                                chain_n)
    if not verdict.refuted:
        return None
    return Violation(
        rule,
        " ; ".join(render(p) for p in premises) + f" => {render(conclusion)}",
        f"validity not preserved in {verdict.model.to_json()}")
