"""Command-line surface over every module.

Each subcommand maps onto one library operation and emits a run report.
Exit codes: 0 for a positive verdict, 1 for a negative one (reject,
refuted, not found, exhausted, audit failure), 2 for usage or I/O errors.
`--json` prints the report as canonical JSON; identical inputs and seeds
produce byte-identical output (wall-clock timing is reported in human mode
only, precisely so the machine-readable reports stay reproducible).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import calculus, interlab, mv_core, pavelka, polyadic, semantics, syntax
from . import transform
from .mv_core import Chain, StandardRationals, TableAlgebra, parse_value


class CliError(Exception):
    """Usage or input problem: exit code 2."""


def _canonical(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted(_canonical(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, (transform.FinTransformation, transform.OmegaMap)):
        return repr(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _canonical(getattr(obj, k))
                for k in obj.__dataclass_fields__}
    return obj


def _read_file(path, inputs):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    inputs[path] = hashlib.sha256(raw).hexdigest()
    return raw.decode("utf-8")


def _read_json(path, inputs):
    text = _read_file(path, inputs)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None


def _read_json_entry(path, key, inputs):
    """The entry `key` of the JSON object in the file."""
    data = _read_json(path, inputs)
    try:
        return data[key]
    except (KeyError, TypeError):
        raise CliError(f"{path} has no {key!r} entry") from None


def _read_formula_text(arg, inputs):
    if arg == "-":
        return sys.stdin.read().strip()
    return arg


def _algebra_arg(args, inputs):
    if getattr(args, "table", None):
        data = _read_json(args.table, inputs)
        try:
            return TableAlgebra.from_json(data)
        except (KeyError, ValueError) as exc:
            raise CliError(f"bad table algebra: {exc}") from None
    if getattr(args, "standard", False):
        return StandardRationals()
    if getattr(args, "chain", None):
        return Chain(args.chain)
    raise CliError("choose one of --chain N, --standard, --table FILE")


def _values(text):
    return [parse_value(t) for t in text.split(",") if t.strip()]


def _members_arg(args, algebra, text):
    # table carriers are labelled; chains carry rationals
    if getattr(args, "table", None):
        return [t.strip() for t in text.split(",") if t.strip()]
    return _values(text)


# -- mv ---------------------------------------------------------------


def _cmd_mv_audit(args, inputs):
    if getattr(args, "table", None):
        # the audit verb judges the table itself, so no construction audit
        data = _read_json(args.table, inputs)
        try:
            algebra = TableAlgebra.from_json(data, audit=False)
        except (KeyError, ValueError) as exc:
            raise CliError(f"bad table algebra: {exc}") from None
    else:
        algebra = _algebra_arg(args, inputs)
    mode = "sampled" if isinstance(algebra, StandardRationals) \
        and not isinstance(algebra, Chain) else args.mode
    report = mv_core.check_mv_axioms(
        algebra, mode=mode, count=args.samples, seed=args.seed)
    data = {
        "algebra": repr(algebra),
        "mode": report.mode,
        "groups": [
            {"axiom": r.axiom, "holds": r.holds,
             "witness": _canonical(r.witness)}
            for r in report.results
        ],
    }
    return (0 if report.passed else 1,
            "pass" if report.passed else "fail", data)


def _cmd_mv_eval(args, inputs):
    algebra = _algebra_arg(args, inputs)
    try:
        value = mv_core.eval_basic(args.op, _values(args.args), algebra)
    except (ValueError, mv_core.CarrierError) as exc:
        raise CliError(str(exc)) from None
    return 0, "ok", {"value": str(value)}


def _cmd_mv_residuum(args, inputs):
    algebra = _algebra_arg(args, inputs)
    x, y = parse_value(args.x), parse_value(args.y)
    scan = mv_core.residuum_by_maximization(x, y, algebra)
    closed = algebra.implies(x, y)
    agree = scan == closed
    return (0 if agree else 1, "ok" if agree else "mismatch",
            {"max_scan": str(scan), "closed_form": str(closed)})


def _cmd_mv_tnorm(args, inputs):
    value = mv_core.tnorm_eval(args.kind, parse_value(args.x),
                               parse_value(args.y))
    return 0, "ok", {"value": str(value)}


def _cmd_mv_filter(args, inputs):
    algebra = _algebra_arg(args, inputs)
    flt = mv_core.filter_generate(
        algebra, _members_arg(args, algebra, args.elements)
        if args.elements else [])
    return 0, "ok", {
        "members": sorted(str(m) for m in flt.members),
        "proper": flt.is_proper,
    }


def _cmd_mv_extend(args, inputs):
    algebra = _algebra_arg(args, inputs)
    flt = mv_core.Filter(
        algebra, frozenset(_members_arg(args, algebra, args.members)))
    try:
        maximal = mv_core.extend_to_maximal(algebra, flt)
    except mv_core.FilterNotFound:
        return 1, "not-found", {}
    except mv_core.ProperFilterRequired as exc:
        raise CliError(str(exc)) from None
    return 0, "ok", {"members": sorted(str(m) for m in maximal.members)}


def _cmd_mv_quotient(args, inputs):
    algebra = _algebra_arg(args, inputs)
    flt = mv_core.Filter(
        algebra, frozenset(_members_arg(args, algebra, args.members)))
    try:
        chain, projection = mv_core.quotient(algebra, flt)
    except (mv_core.NonMaximalFilter, mv_core.ProperFilterRequired) as exc:
        return 1, "rejected", {"reason": str(exc)}
    return 0, "ok", {
        "chain": chain.n,
        "projection": {str(k): str(v) for k, v in sorted(projection.items())},
    }


# -- logic ------------------------------------------------------------


def _load_model(args, inputs):
    data = _read_json(args.model, inputs)
    try:
        return semantics.Model.from_json(data)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad model file: {exc}") from None


def _parse_against(model, text):
    try:
        return syntax.parse(text, model.language)
    except syntax.ParseError as exc:
        raise CliError(str(exc)) from None


def _cmd_logic_eval(args, inputs):
    model = _load_model(args, inputs)
    phi = _parse_against(model, _read_formula_text(args.formula, inputs))
    mapping = {}
    if args.assign:
        for chunk in args.assign.split(","):
            var, _, val = chunk.partition("=")
            mapping[var.strip()] = int(val)
    value = semantics.eval_formula(phi, model,
                                   semantics.Assignment(mapping))
    return 0, "ok", {"value": str(value)}


def _cmd_logic_valid(args, inputs):
    model = _load_model(args, inputs)
    phi = _parse_against(model, _read_formula_text(args.formula, inputs))
    valid = semantics.is_valid(phi, model)
    return (0 if valid else 1, "valid" if valid else "not-valid",
            {"degree": str(semantics.truth_degree(phi, model))})


def _cmd_logic_degree(args, inputs):
    model = _load_model(args, inputs)
    phi = _parse_against(model, _read_formula_text(args.formula, inputs))
    return 0, "ok", {"value": str(semantics.truth_degree(phi, model))}


def _cmd_logic_entails(args, inputs):
    try:
        language = syntax.LanguageSpec.from_json(
            _read_json(args.language, inputs))
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad language file: {exc}") from None
    gamma = []
    if args.gamma:
        for text in _read_json_entry(args.gamma, "formulas", inputs):
            gamma.append(syntax.parse(text, language))
    phi = syntax.parse(_read_formula_text(args.formula, inputs), language)
    try:
        verdict = semantics.entails(gamma, phi, language,
                                    args.max_domain, args.chain,
                                    cap=args.cap)
    except semantics.SearchTooLarge as exc:
        raise CliError(str(exc)) from None
    if verdict.refuted:
        return 1, "refuted", {"countermodel": verdict.model.to_json()}
    return 0, "no-counterexample", {
        "max_domain": verdict.max_domain, "chain": verdict.chain_n}


# -- proof ------------------------------------------------------------


def _cmd_proof_check(args, inputs):
    data = _read_json(args.proof, inputs)
    try:
        language = syntax.LanguageSpec.from_json(data["language"])
        proof = calculus.proof_from_json(data, language)
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad proof file: {exc}") from None
    gamma = None
    if args.gamma:
        gamma = tuple(syntax.parse(t, language)
                      for t in _read_json_entry(args.gamma, "formulas", inputs))
    verdict = calculus.check_proof(proof, language, gamma=gamma)
    if verdict.accepted:
        return 0, "accept", {"steps": len(proof.steps)}
    return 1, "reject", {"step": verdict.step, "reason": verdict.reason}


def _cmd_proof_audit(args, inputs):
    report = calculus.soundness_audit(
        args.target, args.trials, max_domain=args.max_domain,
        chain_n=args.chain, seed=args.seed, mode=args.mode)
    data = {
        "target": report.target,
        "trials": report.trials,
        "violations": [_canonical(v) for v in report.violations],
    }
    return (0 if report.passed else 1,
            "pass" if report.passed else "fail", data)


# -- poly -------------------------------------------------------------


def _load_poly(path, inputs):
    """(spec data, algebra) of an algebra spec file."""
    data = _read_json(path, inputs)
    try:
        return data, polyadic.algebra_from_json(data)
    except (KeyError, ValueError, polyadic.TruncationError) as exc:
        raise CliError(f"bad algebra spec: {exc}") from None


def _resolve_element(algebra, ref):
    """The carrier element at index ref, or generator N for ref 'gN'."""
    ref = str(ref)
    pool, name = algebra.carrier, "carrier"
    if ref.startswith("g"):
        pool, name, ref = algebra.generators, "generator list", ref[1:]
    i = int(ref)
    if not 0 <= i < len(pool):
        raise CliError(f"no element {i} in the {name} of {len(pool)}")
    return pool[i]


def _cmd_poly_build(args, inputs):
    _, algebra = _load_poly(args.spec, inputs)
    dump = algebra.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, sort_keys=True, indent=1)
    return 0, "ok", {
        "carrier": len(algebra.carrier),
        "transformations": len(algebra.transformations),
        "scopes": len(algebra.scopes),
    }


def _cmd_poly_audit(args, inputs):
    _, algebra = _load_poly(args.spec, inputs)
    report = polyadic.audit_axioms(algebra)
    data = {
        "carrier": len(algebra.carrier),
        "identities": [
            {"name": r.name, "holds": r.holds, "checked": r.checked,
             "witness": _canonical(r.witness)}
            for r in report.results
        ],
    }
    return (0 if report.passed else 1,
            "pass" if report.passed else "fail", data)


def _cmd_poly_neat(args, inputs):
    _, algebra = _load_poly(args.spec, inputs)
    alpha = frozenset(int(x) for x in args.alpha.split(",") if x.strip())
    try:
        reduct = polyadic.neat_reduct(algebra, alpha, flavor=args.flavor)
    except polyadic.NotASubuniverse as exc:
        return 1, "not-a-subuniverse", {"reason": str(exc)}
    return 0, "ok", {
        "alpha": sorted(alpha),
        "elements": len(reduct.elements),
        "scopes": len(reduct.scopes),
        "transformations": len(reduct.transformations),
    }


def _cmd_poly_dims(args, inputs):
    _, algebra = _load_poly(args.spec, inputs)
    element = _resolve_element(algebra, args.element)
    return 0, "ok", {
        "dimension_set": sorted(polyadic.dimension_set(algebra, element)),
        "minimal_support": sorted(polyadic.minimal_support(algebra, element)),
    }


# -- interp / henkin ---------------------------------------------------


def _cmd_interp_search(args, inputs):
    a_text = _read_file(args.a, inputs).strip()
    b_text = _read_file(args.b, inputs).strip()
    common = tuple(p.strip() for p in args.common.split(",") if p.strip())
    names = set()
    for text in (a_text, b_text):
        names |= {tok for tok in _identifiers(text)} - {"T", "F", "A", "E"}
    language = syntax.LanguageSpec(
        num_vars=2, reserve=1,
        predicates=tuple((n, 0) for n in sorted(names | set(common))))
    a = syntax.parse(a_text, language)
    b = syntax.parse(b_text, language)
    split = interlab.VocabSplit(
        frozenset(syntax.predicates_of(a)) | frozenset(common),
        frozenset(syntax.predicates_of(b)) | frozenset(common))
    try:
        outcome = interlab.interpolant_search(
            a, b, split, depth=args.depth, chain_n=args.chain,
            language=language)
    except interlab.PremiseNotEntailed as exc:
        return 1, "premise-not-entailed", {"reason": str(exc)}
    if outcome.found:
        return 0, "found", {"interpolant": syntax.render(outcome.interpolant)}
    return 1, "not-found-within", {"depth": outcome.depth}


def _identifiers(text):
    import re
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)


def _cmd_henkin_demo(args, inputs):
    _, algebra = _load_poly(args.algebra, inputs)
    element = _resolve_element(algebra, args.element)
    try:
        outcome = interlab.henkin_filter_build(algebra, element)
    except interlab.ZeroElement as exc:
        raise CliError(str(exc)) from None
    if isinstance(outcome, interlab.Exhausted):
        return 1, "exhausted", {"examined": outcome.examined}
    psi, audit = interlab.representation_map(algebra, outcome)
    data = {
        "filter_size": len(outcome.members),
        "witnesses": len(outcome.witnesses),
        "spare_witnesses": sum(1 for w in outcome.witnesses if w.spare),
        "clauses": [
            {"clause": c.clause, "holds": c.holds}
            for c in audit.results
        ],
    }
    return (0 if audit.passed else 1,
            "pass" if audit.passed else "fail", data)


# -- pavelka ------------------------------------------------------------


def _cmd_pavelka_degree(args, inputs):
    data, algebra = _load_poly(args.algebra, inputs)
    if "constants" in data:
        # explicit declaration: {"constants": {"1/2": carrierIndex, ...}}
        table = {parse_value(k): _resolve_element(algebra, i)
                 for k, i in data["constants"].items()}
        pav = pavelka.PavelkaAlgebra.make(algebra, algebra.chain, table)
    else:
        pav = pavelka.functional_pavelka(algebra, require_full=False)
    members = frozenset(_resolve_element(algebra, i) for i in
                        _read_json_entry(args.filter, "members", inputs))
    flt = mv_core.Filter(algebra, members)
    ctx = pavelka.GradedContext(pav, flt)
    element = _resolve_element(algebra, args.element)
    return 0, "ok", {
        "degree": str(pavelka.degree(element, ctx)),
        "dual": str(pavelka.degree_dual(element, ctx)),
    }


def _cmd_pavelka_check(args, inputs):
    chain = Chain(args.chain)
    pav = pavelka.PavelkaAlgebra.full_chain(chain)
    flt = mv_core.principal_filter(chain, chain.one)
    reports = {
        "constants": pavelka.constants_check(pav),
        "lemma": pavelka.pavelka_lemma_check(pav, flt),
        "degree_forms": pavelka.degree_forms_check(pav, flt),
    }
    ok = all(r.passed for r in reports.values())
    data = {
        name: [{"law": r.law, "holds": r.holds,
                "witness": _canonical(r.witness)} for r in rep.results]
        for name, rep in reports.items()
    }
    return (0 if ok else 1, "pass" if ok else "fail", data)


# -- semigroup ----------------------------------------------------------


def _parse_gen_list(text, domain):
    return tuple(transform.parse_transformation(g.strip(), domain)
                 for g in text.split(";") if g.strip())


def _cmd_semigroup_closure(args, inputs):
    domain = tuple(range(args.domain)) if args.domain else None
    gens = _parse_gen_list(args.generators, domain)
    result = transform.semigroup_closure(
        transform.SemigroupSpec(gens, args.cap))
    return 0, "ok", {
        "size": len(result.elements),
        "truncated": result.truncated,
        "elements": [repr(t) for t in result.elements[:50]],
    }


def _cmd_semigroup_rich(args, inputs):
    sigma = transform.parse_transformation(args.sigma)
    pi = transform.parse_transformation(args.pi)
    ambient = None
    if args.ambient:
        gens = _parse_gen_list(args.ambient, None)
        ambient = transform.SemigroupSpec(gens, args.cap)
    report = transform.check_strongly_rich(sigma, pi, ambient=ambient,
                                           n_max=args.n)
    data = {
        "passed": report.passed,
        "supports": [list(s) if s is not None else None
                     for s in report.supports],
        "failures": [_canonical(c) for c in report.failures()],
        "closure_truncated": report.closure_truncated,
    }
    return (0 if report.passed else 1,
            "pass" if report.passed else "fail", data)


def _cmd_semigroup_eval(args, inputs):
    domain = tuple(range(args.domain)) if args.domain else None
    t = transform.parse_transformation(args.map, domain)
    info = transform.support(t)
    points = args.points if args.points else 8
    table = {str(i): t.apply(i)
             for i in (t.domain if domain else range(points))}
    return 0, "ok", {
        "normal_form": repr(t),
        "support_finite": info.finite,
        "support_points": sorted(info.points),
        "values": table,
    }


# -- batch ----------------------------------------------------------------


def _cmd_batch(args, inputs):
    data = _read_json(args.manifest, inputs)
    commands = data.get("commands", [])
    results = []
    worst = 0
    for argv in commands:
        code, report = dispatch([str(a) for a in argv])
        results.append({"argv": argv, "exit": code, "report": report})
        worst = max(worst, 0 if code == 0 else 1)
    verdict = "pass" if worst == 0 else "fail"
    return worst, verdict, {"commands": len(commands), "results": results}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mvlogic",
        description="Many-valued logic and MV-polyadic algebra toolkit")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable canonical report")
    sub = parser.add_subparsers(dest="verb")

    mv = sub.add_parser("mv").add_subparsers(dest="action")
    p = mv.add_parser("audit")
    p.add_argument("--chain", type=int)
    p.add_argument("--standard", action="store_true")
    p.add_argument("--table")
    p.add_argument("--mode", default="exhaustive",
                   choices=["exhaustive", "sampled"])
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_mv_audit)
    p = mv.add_parser("eval")
    p.add_argument("--chain", type=int)
    p.add_argument("--standard", action="store_true")
    p.add_argument("--table")
    p.add_argument("--op", required=True)
    p.add_argument("--args", required=True)
    p.set_defaults(handler=_cmd_mv_eval)
    p = mv.add_parser("residuum")
    p.add_argument("--chain", type=int)
    p.add_argument("--table")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(handler=_cmd_mv_residuum)
    p = mv.add_parser("tnorm")
    p.add_argument("--kind", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(handler=_cmd_mv_tnorm)
    p = mv.add_parser("filter")
    p.add_argument("--chain", type=int)
    p.add_argument("--table")
    p.add_argument("--elements", default="")
    p.set_defaults(handler=_cmd_mv_filter)
    p = mv.add_parser("extend")
    p.add_argument("--chain", type=int)
    p.add_argument("--table")
    p.add_argument("--members", required=True)
    p.set_defaults(handler=_cmd_mv_extend)
    p = mv.add_parser("quotient")
    p.add_argument("--chain", type=int)
    p.add_argument("--table")
    p.add_argument("--members", required=True)
    p.set_defaults(handler=_cmd_mv_quotient)

    logic = sub.add_parser("logic").add_subparsers(dest="action")
    p = logic.add_parser("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign")
    p.set_defaults(handler=_cmd_logic_eval)
    p = logic.add_parser("valid")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_logic_valid)
    p = logic.add_parser("degree")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(handler=_cmd_logic_degree)
    p = logic.add_parser("entails")
    p.add_argument("--language", required=True)
    p.add_argument("--gamma")
    p.add_argument("--formula", required=True)
    p.add_argument("--max-domain", type=int, default=2)
    p.add_argument("--chain", type=int, default=3)
    p.add_argument("--cap", type=int, default=500000)
    p.set_defaults(handler=_cmd_logic_entails)

    proof = sub.add_parser("proof").add_subparsers(dest="action")
    p = proof.add_parser("check")
    p.add_argument("--proof", required=True)
    p.add_argument("--gamma")
    p.set_defaults(handler=_cmd_proof_check)
    p = proof.add_parser("audit")
    p.add_argument("--target", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-domain", type=int, default=2)
    p.add_argument("--chain", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="printed", choices=["printed", "strict"])
    p.set_defaults(handler=_cmd_proof_audit)

    poly = sub.add_parser("poly").add_subparsers(dest="action")
    p = poly.add_parser("build")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_poly_build)
    p = poly.add_parser("audit")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_poly_audit)
    p = poly.add_parser("neat")
    p.add_argument("--spec", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--flavor", default="FiniteT",
                   choices=["FiniteT", "FullT"])
    p.set_defaults(handler=_cmd_poly_neat)
    p = poly.add_parser("dims")
    p.add_argument("--spec", required=True)
    p.add_argument("--element", type=int, required=True)
    p.set_defaults(handler=_cmd_poly_dims)

    interp = sub.add_parser("interp").add_subparsers(dest="action")
    p = interp.add_parser("search")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--common", required=True)
    p.add_argument("--chain", type=int, default=2)
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(handler=_cmd_interp_search)

    henkin = sub.add_parser("henkin").add_subparsers(dest="action")
    p = henkin.add_parser("demo")
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True)
    p.set_defaults(handler=_cmd_henkin_demo)

    pav = sub.add_parser("pavelka").add_subparsers(dest="action")
    p = pav.add_parser("degree")
    p.add_argument("--algebra", required=True)
    p.add_argument("--filter", required=True)
    p.add_argument("--element", required=True)
    p.set_defaults(handler=_cmd_pavelka_degree)
    p = pav.add_parser("check")
    p.add_argument("--chain", type=int, default=5)
    p.set_defaults(handler=_cmd_pavelka_check)

    sg = sub.add_parser("semigroup").add_subparsers(dest="action")
    p = sg.add_parser("closure")
    p.add_argument("--generators", required=True,
                   help="semicolon-separated literals, e.g. '[0|1];[0,1]'")
    p.add_argument("--cap", type=int, default=1000)
    p.add_argument("--domain", type=int)
    p.set_defaults(handler=_cmd_semigroup_closure)
    p = sg.add_parser("rich")
    p.add_argument("--sigma", default="suc")
    p.add_argument("--pi", default="pred")
    p.add_argument("-N", "--n", type=int, default=64)
    p.add_argument("--ambient")
    p.add_argument("--cap", type=int, default=200)
    p.set_defaults(handler=_cmd_semigroup_rich)
    p = sg.add_parser("eval")
    p.add_argument("--map", required=True)
    p.add_argument("--domain", type=int)
    p.add_argument("--points", type=int)
    p.set_defaults(handler=_cmd_semigroup_eval)

    p = sub.add_parser("batch")
    p.add_argument("manifest")
    p.set_defaults(handler=_cmd_batch)
    return parser


def dispatch(argv):
    """Run one command line; returns (exit_code, report).

    The report never embeds wall-clock time, so machine-readable output is
    byte-identical across runs with the same inputs and seed; the human
    front end prints timing separately.
    """
    argv = [a for a in argv if a != "--json"]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2, {"verdict": "usage-error", "argv": list(argv)}
    handler = getattr(args, "handler", None)
    if handler is None:
        return 2, {"verdict": "usage-error", "argv": list(argv)}
    inputs = {}
    try:
        code, verdict, data = handler(args, inputs)
    except CliError as exc:
        return 2, {
            "verb": args.verb, "verdict": "error", "reason": str(exc),
            "inputs": inputs,
        }
    except (mv_core.CarrierError, mv_core.FilterError, ValueError) as exc:
        return 2, {
            "verb": args.verb, "verdict": "error", "reason": str(exc),
            "inputs": inputs,
        }
    report = {
        "verb": args.verb,
        "action": getattr(args, "action", None),
        "verdict": verdict,
        "seed": getattr(args, "seed", 0),
        "inputs": inputs,
        "data": data,
    }
    return code, report


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    want_json = "--json" in argv
    started = time.monotonic()
    code, report = dispatch(argv)
    if want_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        data = report.get("data", {})
        if isinstance(data, dict) and set(data) <= {"value", "dual"} and data:
            # plain value queries answer with the bare value
            print(data["value"])
            return code
        verdict = report.get("verdict", "?")
        print(f"[{report.get('verb', 'mvlogic')}] {verdict}")
        if isinstance(data, dict):
            for key in sorted(data):
                value = data[key]
                if isinstance(value, (str, int, bool)) or value is None:
                    print(f"  {key}: {value}")
        if report.get("reason"):
            print(f"  reason: {report['reason']}")
        print(f"  time: {int((time.monotonic() - started) * 1000)} ms")
    return code


if __name__ == "__main__":
    sys.exit(main())
