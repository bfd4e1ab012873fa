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
import contextlib
import functools
import hashlib
import io
import json
import re
import sys
import time
from fractions import Fraction

from . import calculus, interlab, mv_core, pavelka, polyadic, semantics, syntax
from . import transform
from .mv_core import (
    Chain, StandardRationals, TableAlgebra, is_json_list, is_json_object,
    is_json_str, json_field, json_list_of, parse_value,
)


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
    if hasattr(obj, "__record_fields__"):
        return {k: _canonical(getattr(obj, k))
                for k in obj.__record_fields__}
    return obj


def _pass_fail(passed, data):
    """(exit code, verdict, data) of an audit: 0 and "pass" when it
    passed, 1 and "fail" when it did not."""
    return (0, "pass", data) if passed else (1, "fail", data)


def _read_file(path, inputs):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    inputs[path] = hashlib.sha256(raw).hexdigest()
    return raw.decode("utf-8")


def _load_json(path, inputs, what, load):
    """load(data) of the JSON file at path. A loader's input errors are
    ValueErrors (see mv_core.json_field), reported as "{what}: ..."."""
    text = _read_file(path, inputs)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.loads recurses once per nested array or object
        raise CliError(f"{path} is not valid JSON: {exc}") from None
    try:
        return load(data)
    except ValueError as exc:
        raise CliError(f"{what}: {exc}") from None


def _read_json_list(path, key, inputs, valid=is_json_list, expected="a list"):
    """The list `key` of the JSON object in the file."""
    return _load_json(path, inputs, path, lambda data: json_field(
        data, key, valid, expected))


def _gamma(args, inputs):
    """The formula texts of the --gamma file; none without the flag."""
    return _read_json_list(args.gamma, "formulas", inputs, json_list_of(
        is_json_str), "a list of strings") if args.gamma else []


def _read_formula_text(arg, inputs):
    if arg == "-":
        return sys.stdin.read().strip()
    return arg


def _algebra_arg(args, inputs, audit=True):
    if args.table:
        return _load_json(args.table, inputs, "bad table algebra",
                          lambda data: TableAlgebra.from_json(data, audit))
    if getattr(args, "standard", False):
        return StandardRationals()
    if args.chain is not None:
        return Chain(args.chain)
    raise CliError("choose one of --chain N, --standard, --table FILE")


def _value(algebra, word):
    """The carrier value a word names: on a table algebra the first label
    whose str() it is, elsewhere a rational. A word that names no label
    stays a word, which the command refuses as outside the carrier."""
    word = word.strip()
    if isinstance(algebra, TableAlgebra):
        return next((v for v in algebra.carrier if str(v) == word), word)
    return parse_value(word)


def _values(algebra, text):
    """The carrier values of the comma-separated words of text."""
    return [_value(algebra, w) for w in text.split(",") if w.strip()]


# -- mv ---------------------------------------------------------------


def _cmd_mv_audit(args, inputs):
    _at_most(args.samples, "--samples", MAX_SAMPLES)
    # the audit verb judges the table itself, so no construction audit
    algebra = _algebra_arg(args, inputs, audit=False)
    mode = "sampled" if isinstance(algebra, StandardRationals) \
        and not isinstance(algebra, Chain) else args.mode
    report = mv_core.check_mv_axioms(
        algebra, mode=mode, count=args.samples, seed=args.seed)
    return _pass_fail(report.passed, {
        "algebra": repr(algebra),
        "mode": report.mode,
        "groups": _canonical(report.results),
    })


def _cmd_mv_eval(args, inputs):
    algebra = _algebra_arg(args, inputs)
    value = mv_core.eval_basic(args.op, _values(algebra, args.args), algebra)
    return 0, "ok", {"value": str(value)}


def _cmd_mv_residuum(args, inputs):
    algebra = _algebra_arg(args, inputs)
    x, y = _value(algebra, args.x), _value(algebra, args.y)
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
        algebra, _values(algebra, args.elements))
    return 0, "ok", {
        "members": sorted(str(m) for m in flt.members),
        "proper": flt.is_proper,
    }


def _cmd_mv_extend(args, inputs):
    algebra = _algebra_arg(args, inputs)
    flt = mv_core.Filter(
        algebra, frozenset(_values(algebra, args.members)))
    try:
        maximal = mv_core.extend_to_maximal(algebra, flt)
    except mv_core.FilterNotFound:
        return 1, "not-found", {}
    return 0, "ok", {"members": sorted(str(m) for m in maximal.members)}


def _cmd_mv_quotient(args, inputs):
    algebra = _algebra_arg(args, inputs)
    flt = mv_core.Filter(
        algebra, frozenset(_values(algebra, args.members)))
    try:
        chain, projection = mv_core.quotient(algebra, flt)
    except (mv_core.NonMaximalFilter, mv_core.ProperFilterRequired) as exc:
        return 1, "rejected", {"reason": str(exc)}
    return 0, "ok", {
        "chain": chain.n,
        "projection": {str(k): str(v) for k, v in sorted(projection.items())},
    }


# -- logic ------------------------------------------------------------


def _load_model_formula(args, inputs):
    """The --model file and the --formula parsed in its language."""
    model = _load_json(args.model, inputs, "bad model file",
                       semantics.Model.from_json)
    text = _read_formula_text(args.formula, inputs)
    return model, syntax.parse(text, model.language)


def _cmd_logic_eval(args, inputs):
    model, phi = _load_model_formula(args, inputs)
    mapping = {}
    if args.assign:
        for chunk in args.assign.split(","):
            var, _, val = chunk.partition("=")
            mapping[var.strip()] = int(val)
    value = semantics.eval_formula(phi, model,
                                   semantics.Assignment(mapping))
    return 0, "ok", {"value": str(value)}


def _cmd_logic_valid(args, inputs):
    model, phi = _load_model_formula(args, inputs)
    degree = semantics.truth_degree(phi, model)
    return (0 if degree == 1 else 1, "valid" if degree == 1 else "not-valid",
            {"degree": str(degree)})


def _cmd_logic_degree(args, inputs):
    model, phi = _load_model_formula(args, inputs)
    return 0, "ok", {"value": str(semantics.truth_degree(phi, model))}


def _cmd_logic_entails(args, inputs):
    language = _load_json(args.language, inputs, "bad language file",
                          syntax.LanguageSpec.from_json)
    gamma = [syntax.parse(text, language) for text in _gamma(args, inputs)]
    phi = syntax.parse(_read_formula_text(args.formula, inputs), language)
    verdict = semantics.entails(gamma, phi, language, args.max_domain,
                                args.chain, cap=args.cap)
    if verdict.refuted:
        return 1, "refuted", {"countermodel": verdict.model.to_json()}
    return 0, "no-counterexample", {
        "max_domain": verdict.max_domain, "chain": verdict.chain_n}


# -- proof ------------------------------------------------------------


def _load_proof(data):
    language = syntax.LanguageSpec.from_json(json_field(
        data, "language", is_json_object, "an object"))
    return language, calculus.proof_from_json(data, language)


def _cmd_proof_check(args, inputs):
    language, proof = _load_json(args.proof, inputs, "bad proof file",
                                 _load_proof)
    gamma = tuple(syntax.parse(t, language) for t in _gamma(args, inputs)) \
        if args.gamma else None
    verdict = calculus.check_proof(proof, language, gamma=gamma)
    if verdict.accepted:
        return 0, "accept", {"steps": len(proof.steps)}
    return 1, "reject", {"step": verdict.step, "reason": verdict.reason}


def _cmd_proof_audit(args, inputs):
    _at_most(args.trials, "--trials", MAX_TRIALS)
    report = calculus.soundness_audit(
        args.target, args.trials, max_domain=args.max_domain,
        chain_n=args.chain, seed=args.seed, mode=args.mode)
    return _pass_fail(report.passed, {
        "target": report.target,
        "trials": report.trials,
        "violations": [_canonical(v) for v in report.violations],
    })


# -- poly -------------------------------------------------------------


def _load_poly(path, inputs):
    """(spec data, algebra) of an algebra spec file."""
    return _load_json(path, inputs, "bad algebra spec",
                      lambda data: (data, polyadic.algebra_from_json(data)))


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
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(algebra.to_json(), fh, sort_keys=True, indent=1)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from None
    return 0, "ok", {
        "carrier": len(algebra.carrier),
        "transformations": len(algebra.transformations),
        "scopes": len(algebra.scopes),
    }


def _cmd_poly_audit(args, inputs):
    _, algebra = _load_poly(args.spec, inputs)
    report = polyadic.audit_axioms(algebra)
    return _pass_fail(report.passed, {
        "carrier": len(algebra.carrier),
        "identities": _canonical(report.results),
    })


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
    words = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", f"{a_text}\n{b_text}")
    names = set(words) - {"T", "F", "A", "E"}
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
            a, b, split, depth=args.depth, chain_n=args.chain)
    except interlab.PremiseNotEntailed as exc:
        return 1, "premise-not-entailed", {"reason": str(exc)}
    if outcome.found:
        return 0, "found", {"interpolant": syntax.render(outcome.interpolant)}
    return 1, "not-found-within", {"depth": outcome.depth}


def _cmd_henkin_demo(args, inputs):
    _, algebra = _load_poly(args.algebra, inputs)
    element = _resolve_element(algebra, args.element)
    outcome = interlab.henkin_filter_build(algebra, element)
    if isinstance(outcome, interlab.Exhausted):
        return 1, "exhausted", {"examined": outcome.examined}
    _, audit = interlab.representation_map(algebra, outcome)
    return _pass_fail(audit.passed, {
        "filter_size": len(outcome.filter.ids),
        "witnesses": len(outcome.witnesses),
        "spare_witnesses": sum(1 for w in outcome.witnesses if w.spare),
        "clauses": [
            {"clause": c.clause, "holds": c.holds}
            for c in audit.results
        ],
    })


# -- pavelka ------------------------------------------------------------


def _cmd_pavelka_degree(args, inputs):
    data, algebra = _load_poly(args.algebra, inputs)
    # explicit declaration: {"constants": {"1/2": carrierIndex, ...}}
    constants = json_field(data, "constants", is_json_object, "an object",
                           None)
    if constants is not None:
        table = {parse_value(k): _resolve_element(algebra, i)
                 for k, i in constants.items()}
        pav = pavelka.PavelkaAlgebra.make(algebra, algebra.chain, table)
    else:
        pav = pavelka.functional_pavelka(algebra, require_full=False)
    members = frozenset(_resolve_element(algebra, i) for i in
                        _read_json_list(args.filter, "members", inputs))
    flt = mv_core.Filter(algebra, members)
    ctx = pavelka.GradedContext(pav, flt)
    element = _resolve_element(algebra, args.element)
    return 0, "ok", {
        "degree": str(pavelka.degree(element, ctx)),
        "dual": str(pavelka.degree_dual(element, ctx)),
    }


def _cmd_pavelka_check(args, inputs):
    chain = Chain(args.chain)
    # the filter needs the chain's view, whose cap refuses a long chain
    # before its carrier is built
    flt = mv_core.principal_filter(chain, chain.one)
    pav = pavelka.PavelkaAlgebra.full_chain(chain)
    reports = {
        "constants": pavelka.constants_check(pav),
        "lemma": pavelka.pavelka_lemma_check(pav, flt),
        "degree_forms": pavelka.degree_forms_check(pav, flt),
    }
    return _pass_fail(all(r.passed for r in reports.values()), {
        name: [{"law": r.clause, "holds": r.holds,
                "witness": _canonical(r.witness)} for r in rep.results]
        for name, rep in reports.items()
    })


# -- semigroup ----------------------------------------------------------


def _domain(args):
    """The points 0..N-1 of --domain N, built only for N up to
    mv_core.MAX_VALUATIONS; None without the flag."""
    if args.domain is not None and args.domain > mv_core.MAX_VALUATIONS:
        raise CliError(f"--domain {args.domain} exceeds the cap of "
                       f"{mv_core.MAX_VALUATIONS} points")
    return None if args.domain is None else tuple(range(args.domain))


def _parse_gen_list(text, domain):
    return tuple(transform.parse_transformation(g.strip(), domain)
                 for g in text.split(";") if g.strip())


def _cmd_semigroup_closure(args, inputs):
    _at_most(args.cap, "--cap", MAX_SEMIGROUP_CAP)
    domain = _domain(args)
    gens = _parse_gen_list(args.generators, domain)
    result = transform.semigroup_closure(
        transform.SemigroupSpec(gens, args.cap))
    return 0, "ok", {
        "size": len(result.elements),
        "truncated": result.truncated,
        "elements": [repr(t) for t in result.elements[:50]],
    }


# The largest counts a command takes, each read before any work (times
# at the cap, Python 3.11). -N of `semigroup rich`, whose report grows
# as N^2: about 0.06 s and 110 KB of report; -N 2048 would print 8.7 MB.
# The tests, the golden corpus and the benchmark ask for at most 64.
# --samples of `mv audit`: the sampled audit of the standard algebra
# takes about 17 s; the golden corpus asks for 10^6. --trials of `proof
# audit`: 1.7 s for A2 up to |M| = 2 and 3.3 s up to |M| = 3; the
# soundness criterion and the golden corpus ask for at most 200. --cap
# of `semigroup closure` and `semigroup rich`, the most maps a closure
# holds: "suc;pred" closes to the cap in about 0.5 s and 72 MB of max RSS;
# the tests, the golden corpus and the benchmark ask for at most 1,000.
MAX_RICH_N = 256
MAX_SAMPLES = 10 ** 7
MAX_TRIALS = 10 ** 4
MAX_SEMIGROUP_CAP = 10 ** 4


def _at_most(count, flag, cap):
    if count > cap:
        raise CliError(f"{flag} {count} exceeds the cap of {cap}")


def _cmd_semigroup_rich(args, inputs):
    _at_most(args.n, "-N", MAX_RICH_N)
    _at_most(args.cap, "--cap", MAX_SEMIGROUP_CAP)
    sigma = transform.parse_transformation(args.sigma)
    pi = transform.parse_transformation(args.pi)
    ambient = None
    if args.ambient:
        gens = _parse_gen_list(args.ambient, None)
        ambient = transform.SemigroupSpec(gens, args.cap)
    report = transform.check_strongly_rich(sigma, pi, ambient=ambient,
                                           n_max=args.n)
    return _pass_fail(report.passed, {
        "passed": report.passed,
        "supports": [list(s) if s is not None else None
                     for s in report.supports],
        "failures": [_canonical(c) for c in report.failures()],
        "closure_truncated": report.closure_truncated,
    })


def _cmd_semigroup_eval(args, inputs):
    domain = _domain(args)
    t = transform.parse_transformation(args.map, domain)
    info = transform.support(t)
    table = {str(i): t.apply(i)
             for i in (t.domain if domain else range(args.points))}
    return 0, "ok", {
        "normal_form": repr(t),
        "support_finite": info.finite,
        "support_points": sorted(info.points),
        "values": table,
    }


# -- batch ----------------------------------------------------------------


def _cmd_batch(args, inputs):
    commands = _read_json_list(args.manifest, "commands", inputs,
                               json_list_of(is_json_list),
                               "a list of argument lists")
    results = []
    worst = 0
    for argv in commands:
        words = [str(a) for a in argv]
        if [w for w in words if w != "--json"][:1] == ["batch"]:
            # a manifest that runs manifests could run itself forever
            code, report = 2, _error_report(
                "batch", "a batch manifest cannot run batch", {})
        else:
            code, report = dispatch(words)
        results.append({"argv": argv, "exit": code, "report": report})
        worst = max(worst, 0 if code == 0 else 1)
    verdict = "pass" if worst == 0 else "fail"
    return worst, verdict, {"commands": len(commands), "results": results}


# -- the command table ----------------------------------------------------

def _positive(text):
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# Each argument is (flags, add_argument keywords); groups that several
# subcommands share are declared once here.
_REQUIRED = {"required": True}
_CHAIN = (("--chain",), {"type": int})
_TABLE = (("--table",), {})
_FINITE_SOURCE = (_CHAIN, _TABLE)
_SOURCE = (_CHAIN, (("--standard",), {"action": "store_true"}), _TABLE)
_XY = ((("--x",), _REQUIRED), (("--y",), _REQUIRED))
_MEMBERS = (("--members",), _REQUIRED)
_FORMULA = (("--formula",), _REQUIRED)
_MODEL_FORMULA = ((("--model",), _REQUIRED), _FORMULA)
_GAMMA = (("--gamma",), {})
_MAX_DOMAIN = (("--max-domain",), {"type": _positive, "default": 2})
_SEED = (("--seed",), {"type": int, "default": 0})
_SPEC = (("--spec",), _REQUIRED)
_ALGEBRA = (("--algebra",), _REQUIRED)
_ELEMENT = (("--element",), _REQUIRED)
_DOMAIN = (("--domain",), {"type": _positive})

# (verb, action, handler, arguments); `action` is None for a bare verb
COMMANDS = (
    ("mv", "audit", _cmd_mv_audit, _SOURCE + (
        (("--mode",), {"default": "exhaustive",
                       "choices": ["exhaustive", "sampled"]}),
        (("--samples",), {"type": _positive, "default": 100000}),
        _SEED)),
    ("mv", "eval", _cmd_mv_eval, _SOURCE + (
        (("--op",), _REQUIRED), (("--args",), _REQUIRED))),
    ("mv", "residuum", _cmd_mv_residuum, _FINITE_SOURCE + _XY),
    ("mv", "tnorm", _cmd_mv_tnorm, ((("--kind",), _REQUIRED),) + _XY),
    ("mv", "filter", _cmd_mv_filter,
     _FINITE_SOURCE + ((("--elements",), {"default": ""}),)),
    ("mv", "extend", _cmd_mv_extend, _FINITE_SOURCE + (_MEMBERS,)),
    ("mv", "quotient", _cmd_mv_quotient, _FINITE_SOURCE + (_MEMBERS,)),
    ("logic", "eval", _cmd_logic_eval,
     _MODEL_FORMULA + ((("--assign",), {}),)),
    ("logic", "valid", _cmd_logic_valid, _MODEL_FORMULA),
    ("logic", "degree", _cmd_logic_degree, _MODEL_FORMULA),
    ("logic", "entails", _cmd_logic_entails, (
        (("--language",), _REQUIRED), _GAMMA, _FORMULA, _MAX_DOMAIN,
        (("--chain",), {"type": int, "default": 3}),
        (("--cap",), {"type": int, "default": 500000}))),
    ("proof", "check", _cmd_proof_check,
     ((("--proof",), _REQUIRED), _GAMMA)),
    ("proof", "audit", _cmd_proof_audit, (
        (("--target",), _REQUIRED),
        (("--trials",), {"type": _positive, "default": 50}),
        _MAX_DOMAIN,
        (("--chain",), {"type": int, "default": 3}),
        _SEED,
        (("--mode",), {"default": "printed",
                       "choices": ["printed", "strict"]}))),
    ("poly", "build", _cmd_poly_build, (_SPEC, (("--out",), {}))),
    ("poly", "audit", _cmd_poly_audit, (_SPEC,)),
    ("poly", "neat", _cmd_poly_neat, (
        _SPEC, (("--alpha",), _REQUIRED),
        (("--flavor",), {"default": "FiniteT",
                         "choices": ["FiniteT", "FullT"]}))),
    ("poly", "dims", _cmd_poly_dims,
     (_SPEC, (("--element",), {"type": int, "required": True}))),
    ("interp", "search", _cmd_interp_search, (
        (("--a",), _REQUIRED), (("--b",), _REQUIRED),
        (("--common",), _REQUIRED),
        (("--chain",), {"type": int, "default": 2}),
        (("--depth",), {"type": _positive, "default": 6}))),
    ("henkin", "demo", _cmd_henkin_demo, (_ALGEBRA, _ELEMENT)),
    ("pavelka", "degree", _cmd_pavelka_degree,
     (_ALGEBRA, (("--filter",), _REQUIRED), _ELEMENT)),
    ("pavelka", "check", _cmd_pavelka_check,
     ((("--chain",), {"type": int, "default": 5}),)),
    ("semigroup", "closure", _cmd_semigroup_closure, (
        (("--generators",), {
            "required": True,
            "help": "semicolon-separated literals, e.g. '[0|1];[0,1]'"}),
        (("--cap",), {"type": int, "default": 1000}),
        _DOMAIN)),
    ("semigroup", "rich", _cmd_semigroup_rich, (
        (("--sigma",), {"default": "suc"}),
        (("--pi",), {"default": "pred"}),
        (("-N", "--n"), {"type": _positive, "default": 64}),
        (("--ambient",), {}),
        (("--cap",), {"type": int, "default": 200}))),
    ("semigroup", "eval", _cmd_semigroup_eval, (
        (("--map",), _REQUIRED), _DOMAIN,
        (("--points",), {"type": _positive, "default": 8}))),
    ("batch", None, _cmd_batch, ((("manifest",), {}),)),
)


@functools.cache
def _parser():
    """(tree, leaves): the argparse tree of COMMANDS and its leaf parsers
    by (verb, action), ("batch",) for the bare verb; built on first use and
    then shared: parsing changes neither. Help is 78 columns wide on any
    terminal, so that a help report is as reproducible as any other."""
    fixed = {"formatter_class": functools.partial(argparse.HelpFormatter,
                                                  width=78)}
    parser = argparse.ArgumentParser(
        prog="mvlogic", **fixed,
        description="Many-valued logic and MV-polyadic algebra toolkit")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable canonical report")
    verbs = parser.add_subparsers(dest="verb")
    actions, leaves = {}, {}
    for verb, action, handler, arguments in COMMANDS:
        if action is None:
            p = leaves[verb,] = verbs.add_parser(verb, **fixed)
        else:
            if verb not in actions:
                actions[verb] = verbs.add_parser(
                    verb, **fixed).add_subparsers(dest="action")
            p = leaves[verb, action] = actions[verb].add_parser(
                action, **fixed)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(handler=handler)
    return parser, leaves


def _error_report(verb, reason, inputs):
    """The report of a command that ends in exit 2."""
    return {"verb": verb, "verdict": "error", "reason": reason,
            "inputs": inputs}


def dispatch(argv):
    """Run one command line; returns (exit_code, report).

    The report never embeds wall-clock time, so machine-readable output is
    byte-identical across runs with the same inputs and seed; the human
    front end prints timing separately.
    """
    argv = [a for a in argv if a != "--json"]
    tree, leaves = _parser()
    # the leaf of the first words, given the verb and action that the tree
    # would set, parses the rest; any other argv goes through the tree
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1]))
                  if w in leaves), ())
    preset = argparse.Namespace(**dict(zip(("verb", "action"), words)))
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            args = leaves.get(words, tree).parse_args(argv[len(words):],
                                                      preset)
    except SystemExit as exc:
        if exc.code == 0:  # -h/--help: the report, not stdout, keeps the text
            return 0, {"verdict": "help", "argv": argv, "help": out.getvalue()}
        args = None
    if getattr(args, "handler", None) is None:
        return 2, {"verdict": "usage-error", "argv": list(argv)}
    inputs = {}
    try:
        code, verdict, data = args.handler(args, inputs)
    except (CliError, ValueError) as exc:
        # the library's own input errors (CarrierError, ParseError,
        # SearchTooLarge, ...) are ValueErrors
        return 2, _error_report(args.verb, str(exc), inputs)
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
    elif "help" in report:
        print(report["help"], end="")
    else:
        data = report.get("data", {})
        if isinstance(data, dict) and set(data) == {"value"}:
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
