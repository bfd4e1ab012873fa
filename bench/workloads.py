"""The three benchmark workloads: inputs, job lists and job outcomes.

Every input comes from a finite pool whose members are fixed by the code
below, so the committed expectations in `expected/` can name the outcome
of every job any seed may pick. The workload seed chooses pool members,
the parameters of each query and the job order; the library sees only the
generated inputs.

A job list is a fixed number of cycles. Each cycle runs one job of every
class in the same order, so a slow stretch of the shared host lands on
every class. Within a class the picks are stratified by the recorded cost
of the pool members, so every seed gets the same spread of small and
large jobs and seeds differ in inputs, not in total work.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import random

from mvlogic import calculus, cli, interlab, mv_core, pavelka, polyadic
from mvlogic import semantics, syntax
from mvlogic.mv_core import Chain

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
POOL = 48


class Outcome(tuple):
    """(exit code, verdict, digest of the verdict's details)."""

    def __new__(cls, code, verdict, detail=""):
        return super().__new__(cls, (code, verdict, digest(detail)))


def digest(text):
    if not isinstance(text, str):
        text = json.dumps(text, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stratified(keys_by_cost, count, rng):
    """`count` picks, one from each of `count` cost strata, in random order.

    The keys are sorted by cost; stratum i spans positions
    [i*P/count, (i+1)*P/count). When the pool is smaller than `count`,
    strata repeat keys.
    """
    size = len(keys_by_cost)
    picks = []
    for i in range(count):
        lo = i * size // count
        hi = max(lo + 1, (i + 1) * size // count)
        picks.append(keys_by_cost[rng.randrange(lo, hi)])
    rng.shuffle(picks)
    return picks


def load_expected(workload):
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def _by_cost(keys, expected):
    return sorted(keys, key=lambda k: (expected[k]["cost_ms"], k))


def _round_robin(spec, seed, cycles, expected):
    """`cycles` cycles of one job per class; stratified picks per class."""
    rng = random.Random(f"{spec.name}:{seed}")
    picks = {c: stratified(_by_cost(spec.pool(c), expected), cycles, rng)
             for c in spec.classes}
    return [picks[c][k] for k in range(cycles) for c in spec.classes]


# -- logic ----------------------------------------------------------------

LANGUAGE = syntax.LanguageSpec(num_vars=5, reserve=1,
                               predicates=(("p", 1), ("q", 1), ("r", 0)))
AUDIT_TARGETS = (("MV-PROP", "printed"), ("A2", "printed"),
                 ("A3", "printed"), ("A4", "printed"), ("A4", "strict"),
                 ("A5", "printed"), ("A6", "printed"), ("MP", "printed"),
                 ("Gen", "printed"), ("FreeSubInv", "printed"),
                 ("SubInv", "printed"))
AUDIT_TRIALS = 3


def _fill(pattern, binding):
    if isinstance(pattern, calculus.Meta):
        return binding[pattern.name]
    if isinstance(pattern, (syntax.Top, syntax.Bottom, syntax.Atom)):
        return pattern
    if isinstance(pattern, syntax.Neg):
        return syntax.Neg(_fill(pattern.body, binding))
    return type(pattern)(_fill(pattern.left, binding),
                         _fill(pattern.right, binding))


def schema_formula(i):
    """A valid propositional schema instance; entailment finds no model."""
    rng = random.Random(f"entails-schema:{i}")
    names = ("L1", "L2", "L3", "L4")
    pattern = calculus.MV_PROP_SCHEMAS[names[i % len(names)]]
    binding = {m: syntax.random_formula(rng, LANGUAGE, 1)
               for m in ("A", "B", "C")}
    return LANGUAGE.admit(_fill(pattern, binding))


def random_entailment(i):
    rng = random.Random(f"entails-random:{i}")
    gamma = [syntax.random_formula(rng, LANGUAGE, 1)]
    return gamma, syntax.random_formula(rng, LANGUAGE, 2)


def boolean_pairs():
    """The 16 x 16 pairs of criterion 07: every boolean function of p,q
    against every one of q,r, as sums of strong-conjunction minterms."""

    def representatives(atoms):
        points = list(itertools.product((0, 1), repeat=2))
        reps = []
        for mask in itertools.product((0, 1), repeat=len(points)):
            terms = []
            for bit, point in zip(mask, points):
                if bit:
                    lits = [syntax.Atom(a, ()) if v else
                            syntax.Neg(syntax.Atom(a, ()))
                            for a, v in zip(atoms, point)]
                    terms.append(syntax.Odot(lits[0], lits[1]))
            formula = terms[0] if terms else syntax.BOTTOM
            for term in terms[1:]:
                formula = syntax.Oplus(formula, term)
            reps.append(formula)
        return reps

    left, right = representatives(("p", "q")), representatives(("q", "r"))
    return [(a, b) for a in left for b in right]


INTERP_SPLIT = interlab.VocabSplit(frozenset({"p", "q"}),
                                   frozenset({"q", "r"}))


def make_proof(i):
    """A small Hilbert proof: MP, an MV-PROP axiom, Gen, an A5 instance.

    Every third proof has its second MP premises swapped and is rejected.
    """
    rng = random.Random(f"proof:{i}")
    usable = LANGUAGE.variables[:LANGUAGE.num_vars - LANGUAGE.reserve]
    a, b, c = (syntax.random_formula(rng, LANGUAGE, 1) for _ in range(3))
    S = calculus.ProofStep
    imp = syntax.Implies
    body = imp(c, b)
    v = rng.choice(usable)
    block = frozenset({v})
    free_images = [w for w in usable if w not in syntax.bound_vars(body)]
    tau = {v: rng.choice(free_images)}
    inst = syntax.substitute_free(tau, body)
    steps = [
        S("Hyp", a, (0,)),
        S("Hyp", imp(a, b), (1,)),
        S("MP", b, (0, 1)),
        S("Ax", imp(b, imp(c, b)), schema="MV-PROP"),
        S("MP", imp(c, b), (3, 2) if i % 3 == 0 else (2, 3)),
        S("Gen", syntax.Forall(block, body), (4,), block=block),
        S("Ax", imp(syntax.Forall(block, body), inst), schema="A5",
          tau=tuple(sorted(tau.items()))),
        S("MP", inst, (5, 6)),
    ]
    return calculus.Proof((a, imp(a, b)), tuple(steps))


def _audit_job(target, mode, seed):
    def run():
        report = calculus.soundness_audit(
            target, AUDIT_TRIALS, max_domain=2, chain_n=3, seed=seed,
            language=LANGUAGE, mode=mode)
        return Outcome(0 if report.passed else 1,
                       "pass" if report.passed else "fail",
                       [report.trials, len(report.violations)])
    return run


def _entails_outcome(verdict):
    if verdict.refuted:
        return Outcome(1, "refuted", verdict.model.to_json())
    return Outcome(0, "no-counterexample", [verdict.max_domain,
                                            verdict.chain_n])


def _entails_job(gamma, phi):
    def run():
        return _entails_outcome(
            semantics.entails(gamma, phi, LANGUAGE, 2, 3))
    return run


def _interp_job(a, b):
    def run():
        try:
            out = interlab.interpolant_search(a, b, INTERP_SPLIT, depth=9,
                                              chain_n=2)
        except interlab.PremiseNotEntailed:
            return Outcome(1, "premise-not-entailed")
        if out.found:
            return Outcome(0, "found", syntax.render(out.interpolant))
        return Outcome(1, "not-found-within", str(out.depth))
    return run


def _proof_job(proof):
    def run():
        verdict = calculus.check_proof(proof, LANGUAGE)
        if verdict.accepted:
            return Outcome(0, "accept", str(len(proof.steps)))
        return Outcome(1, "reject", f"{verdict.step}:{verdict.reason}")
    return run


class Logic:
    name = "logic"
    classes = tuple(f"audit/{t}/{m}" for t, m in AUDIT_TARGETS) + (
        "entails-schema", "entails-random", "interp", "proof")

    @staticmethod
    def pool(cls):
        size = 256 if cls == "interp" else POOL
        return [f"{cls}/{i}" for i in range(size)]

    def job_list(self, seed, cycles, expected):
        return _round_robin(self, seed, cycles, expected)

    def setup(self, keys):
        pairs = None
        jobs = {}
        for key in dict.fromkeys(keys):
            cls, index = key.rsplit("/", 1)
            i = int(index)
            if cls.startswith("audit/"):
                _, target, mode = cls.split("/")
                jobs[key] = _audit_job(target, mode, i)
            elif cls == "entails-schema":
                jobs[key] = _entails_job([], schema_formula(i))
            elif cls == "entails-random":
                jobs[key] = _entails_job(*random_entailment(i))
            elif cls == "interp":
                pairs = pairs or boolean_pairs()
                jobs[key] = _interp_job(*pairs[i])
            else:
                jobs[key] = _proof_job(make_proof(i))
        return jobs

    def teardown(self):
        pass


# -- algebra --------------------------------------------------------------

FAMILIES = ("i3p", "i2l3", "i2l2")
ALGEBRA_CLASSES = ("audit", "henkin", "pavelka", "quotient", "dims", "neat")
# Generator pools, as level indices into the chain; i3p values are per
# equality-pattern class of an assignment in 2^3. Every member generates
# the full carrier of its family (81, 81 and 16 elements). The members of
# a family cost about the same to build and to query (within a few
# percent, by the costs in expected/), so the seed changes the algebras
# but not the work of a run.
GENERATOR_POOLS = {
    "i3p": ((0, 2, 1, 2), (2, 2, 2, 1), (2, 2, 0, 1), (0, 2, 1, 1)),
    "i2l3": ((1, 2, 2, 2), (0, 1, 2, 2), (0, 1, 2, 1), (0, 1, 1, 1)),
    "i2l2": ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
}
FAMILY_POOL = 4


def _pattern_class(x):
    if x[0] == x[1] == x[2]:
        return 0
    if x[0] == x[1]:
        return 1
    if x[0] == x[2]:
        return 2
    return 3


def algebra_spec(name):
    """(index_set, base, chain, generators, cap) of a pooled algebra.

    i3p: |I|=3 over L3 with a generator constant on the four
    equality-pattern classes (an 81-element subuniverse). i2l3 / i2l2:
    |I|=2 with one generator over L3 / L2. l5c: the L5 constants algebra.
    """
    family, index = name[:-1], int(name[-1])
    if family == "l5c":
        chain = Chain(5)
        return (0, 1), 2, chain, [tuple(r for _ in range(4))
                                  for r in chain.carrier], 60
    levels = GENERATOR_POOLS[family][index]
    if family == "i3p":
        chain = Chain(3)
        points = itertools.product(range(2), repeat=3)
        gen = tuple(chain.carrier[levels[_pattern_class(x)]] for x in points)
        return (0, 1, 2), 2, chain, [gen], 200
    chain = Chain(3 if family == "i2l3" else 2)
    return (0, 1), 2, chain, [tuple(chain.carrier[v] for v in levels)], 300


def build_algebra(name):
    index_set, base, chain, gens, cap = algebra_spec(name)
    return polyadic.build_generated(index_set, base, chain, gens, "full",
                                    "powerset", cap=cap)


def algebra_params(cls, name):
    """Parameter variants of a query class on one pooled algebra."""
    index_size = 3 if name.startswith("i3p") else 2
    if cls in ("audit", "pavelka"):
        return [0]
    if cls == "henkin":
        return list(range(1, 5 if name.startswith("l5c") else 9))
    if cls in ("quotient", "dims"):
        return [0, 1, 2, 3]
    return list(range(2 * (2 ** index_size - 2)))   # neat: alpha x flavor


def _alpha(index_set, param):
    subsets = [frozenset(c) for size in range(1, len(index_set))
               for c in itertools.combinations(index_set, size)]
    return subsets[param // 2], ("FiniteT", "FullT")[param % 2]


def _algebra_job(cls, alg, param):
    if cls == "audit":
        def run():
            report = polyadic.audit_axioms(alg)
            return Outcome(0 if report.passed else 1,
                           "pass" if report.passed else "fail",
                           [[r.name, r.holds, r.checked]
                            for r in report.results])
    elif cls == "henkin":
        def run():
            element = alg.carrier[param]
            hf = interlab.henkin_filter_build(alg, element)
            if isinstance(hf, interlab.Exhausted):
                return Outcome(1, "exhausted", str(hf.examined))
            _, audit = interlab.representation_map(alg, hf)
            return Outcome(0 if audit.passed else 1,
                           "pass" if audit.passed else "fail",
                           [len(hf.members), len(hf.witnesses),
                            [c.clause for c in audit.results if c.holds]])
    elif cls == "pavelka":
        def run():
            pav = pavelka.functional_pavelka(alg, require_full=False)
            hf = interlab.henkin_filter_build(alg, alg.one)
            if isinstance(hf, interlab.Exhausted):
                return Outcome(1, "exhausted", str(hf.examined))
            _, audit = pavelka.pavelka_representation(alg, pav, hf)
            return Outcome(0 if audit.passed else 1,
                           "pass" if audit.passed else "fail",
                           [c.clause for c in audit.results if c.holds])
    elif cls == "quotient":
        def run():
            view = alg.mv_view()
            filters = mv_core.maximal_filters(view)
            flt = filters[param % len(filters)]
            chain, projection = mv_core.quotient(view, flt)
            return Outcome(0, "ok", [len(filters), chain.n,
                                     sorted(str(v) for v in
                                            set(projection.values()))])
    elif cls == "dims":
        def run():
            rows = []
            for p in alg.carrier[param::4]:
                rows.append([sorted(polyadic.dimension_set(alg, p)),
                             sorted(polyadic.minimal_support(alg, p))])
            return Outcome(0, "ok", rows)
    else:
        def run():
            alpha, flavor = _alpha(alg.index_set, param)
            try:
                reduct = polyadic.neat_reduct(alg, alpha, flavor=flavor)
            except polyadic.NotASubuniverse as exc:
                return Outcome(1, "not-a-subuniverse", str(exc))
            return Outcome(0, "ok", [len(reduct.elements),
                                     len(reduct.scopes),
                                     len(reduct.transformations)])
    return run


class Algebra:
    name = "algebra"
    classes = ALGEBRA_CLASSES

    @staticmethod
    def pool_algebras():
        return [f"{f}{i}" for f in FAMILIES for i in range(FAMILY_POOL)] \
            + ["l5c0"]

    def pool(self, cls):
        return [f"{cls}/{name}/{p}" for name in self.pool_algebras()
                for p in algebra_params(cls, name)]

    def slots(self, rng):
        """The six algebras of a run: one i3p, two each of i2l3 and i2l2,
        and l5c. One 81-element |I|=3 algebra already makes up about half
        of the work of a cycle."""
        i3p = rng.randrange(FAMILY_POOL)
        i2l3, i2l2 = (rng.sample(range(FAMILY_POOL), 2) for _ in range(2))
        return [f"i3p{i3p}", f"i2l3{i2l3[0]}", f"i2l2{i2l2[0]}", "l5c0",
                f"i2l3{i2l3[1]}", f"i2l2{i2l2[1]}"]

    def job_list(self, seed, cycles, expected):
        rng = random.Random(f"algebra:{seed}")
        slots = self.slots(rng)
        # class c of cycle k queries slot (k + c) mod 6, so one cycle
        # spreads its classes over different algebras
        hits = collections.Counter(
            (cls, slots[(k + c) % len(slots)])
            for k in range(cycles) for c, cls in enumerate(self.classes))
        chosen = {}
        for (cls, name), count in hits.items():
            keys = [f"{cls}/{name}/{p}" for p in algebra_params(cls, name)]
            if cls == "henkin":
                # elements whose build succeeds: an exhausted search costs
                # a tenth as much, and a seed-dependent mix of the two
                # would make the run's work depend on the seed
                keys = [k for k in keys
                        if expected[k]["verdict"] != "exhausted"]
            chosen[(cls, name)] = iter(stratified(
                _by_cost(keys, expected), count, rng))
        return [next(chosen[(cls, slots[(k + c) % len(slots)])])
                for k in range(cycles)
                for c, cls in enumerate(self.classes)]

    def setup(self, keys):
        algebras = {}
        jobs = {}
        for key in dict.fromkeys(keys):
            cls, name, param = key.split("/")
            if name not in algebras:
                algebras[name] = build_algebra(name)
            jobs[key] = _algebra_job(cls, algebras[name], int(param))
        return jobs

    def teardown(self):
        pass


# -- batch ----------------------------------------------------------------

WORK_ROOT = ".bench_work"
CLI_LANGUAGE = syntax.LanguageSpec(num_vars=4, reserve=1,
                                   predicates=(("p", 1), ("q", 1), ("r", 0)))
# Malformed input that the CLI does not turn into exit 2 today: each
# raises out of `dispatch`, so these jobs count as failed until fixed.
KNOWN_DEFECTS = {
    "crash-pavelka-overcap": "TruncationError escapes `pavelka degree` "
                             "on a spec whose closure exceeds its cap",
    "crash-dims-index": "IndexError escapes `poly dims` for an element "
                        "index past the carrier",
    "crash-henkin-generator": "IndexError escapes `henkin demo` for a "
                              "generator reference past the list",
    "crash-entails-language": "KeyError escapes `logic entails` for a "
                              "language file without `variables`",
}


def _element_table(values, size):
    points = itertools.product(range(2), repeat=size)
    return {"(" + ",".join(map(str, x)) + ")": str(v)
            for x, v in zip(points, values)}


def batch_files():
    """Every input file of the batch workload: name -> JSON value or text."""
    files = {"lang.json": CLI_LANGUAGE.to_json()}
    files["lang-novars.json"] = {
        k: v for k, v in CLI_LANGUAGE.to_json().items() if k != "variables"}
    files["bad.json"] = "{\"chain\": 3, \"generators\": ["
    model_language = syntax.LanguageSpec(
        num_vars=4, reserve=1, predicates=(("p", 1), ("q", 1), ("r", 0)))
    for i in range(4):
        rng = random.Random(f"batch-model:{i}")
        chain = Chain(5)
        tables = {name: {point: chain.carrier[rng.randrange(chain.n)]
                         for point in itertools.product(range(2),
                                                        repeat=arity)}
                  for name, arity in model_language.predicates}
        files[f"model{i}.json"] = semantics.Model(
            model_language, 2, chain, tables).to_json()
    for i in range(4):
        proof = make_proof(i)
        record = calculus.proof_to_json(proof)
        record["language"] = LANGUAGE.to_json()
        files[f"proof{i}.json"] = record
    for i in range(4):
        _, _, chain, gens, _ = algebra_spec(f"i2l2{i}")
        files[f"spec{i}.json"] = {
            "index_set": 2, "base": 2, "chain": 2,
            "generators": [_element_table(g, 2) for g in gens],
            "semigroup": "full", "scopes": "powerset", "cap": 60}
    consts = {"index_set": 2, "base": 2, "chain": 5, "cap": 60,
              "generators": [_element_table([r] * 4, 2)
                             for r in Chain(5).carrier]}
    files["l5.json"] = consts
    files["l5-constants.json"] = dict(consts, constants={
        "0": 0, "1/4": 2, "1/2": 3, "3/4": 4, "1": 1})
    files["filter-top.json"] = {"members": [1]}
    _, _, _, gens, _ = algebra_spec("i3p0")
    files["overcap.json"] = {
        "index_set": 3, "base": 2, "chain": 3, "cap": 20,
        "generators": [_element_table(g, 3) for g in gens]}
    pairs = boolean_pairs()
    for i, j in enumerate((17, 85, 153, 255)):
        a, b = pairs[j]
        files[f"a{i}.txt"] = syntax.render(a) + "\n"
        files[f"b{i}.txt"] = syntax.render(b) + "\n"
    files["manifest.json"] = {"commands": [
        ["mv", "residuum", "--chain", "5", "--x", "3/4", "--y", "1/4"],
        ["semigroup", "rich", "--sigma", "suc", "--pi", "pred", "-N", "8"],
        ["pavelka", "check", "--chain", "3"]]}
    return files


def _formulas(tag, count, depth):
    rng = random.Random(f"batch-formula:{tag}")
    return [syntax.render(syntax.random_formula(rng, CLI_LANGUAGE, depth))
            for _ in range(count)]


def batch_templates():
    """Command templates: name -> list of argv variants (paths relative to
    the work directory, marked with a leading '@')."""
    chains = ("3", "4", "5", "6")
    values5 = ("0", "1/4", "1/2", "3/4", "1")
    f_eval = _formulas("eval", 8, 2)
    f_entails = _formulas("entails", 8, 2)
    return {
        "mv-audit": [["mv", "audit", "--chain", n] for n in chains],
        "mv-audit-sampled": [["mv", "audit", "--standard", "--mode",
                              "sampled", "--samples", "300", "--seed", str(s)]
                             for s in range(4)],
        "mv-eval": [["mv", "eval", "--chain", "5", "--op", op, "--args", a]
                    for op in ("oplus", "odot", "implies", "weak-or")
                    for a in ("1/4,1/2", "3/4,1/2")],
        "mv-residuum": [["mv", "residuum", "--chain", "5", "--x", x, "--y", y]
                        for x, y in (("3/4", "1/4"), ("1/2", "1/2"),
                                     ("1", "1/4"), ("1/4", "3/4"))],
        "mv-tnorm": [["mv", "tnorm", "--kind", k, "--x", "2/3", "--y", y]
                     for k in ("lukasiewicz", "godel", "product")
                     for y in ("1/2", "5/6")],
        "mv-filter": [["mv", "filter", "--chain", n, "--elements", "1"]
                      for n in chains],
        "mv-extend": [["mv", "extend", "--chain", n, "--members", "1"]
                      for n in chains],
        "mv-quotient": [["mv", "quotient", "--chain", n, "--members", "1"]
                        for n in chains],
        "logic-eval": [["logic", "eval", "--model", f"@model{i % 4}.json",
                        "--formula", f, "--assign", "v0=1,v1=0"]
                       for i, f in enumerate(f_eval)],
        "logic-valid": [["logic", "valid", "--model", f"@model{i % 4}.json",
                         "--formula", f] for i, f in enumerate(f_eval)],
        "logic-degree": [["logic", "degree", "--model", f"@model{i % 4}.json",
                          "--formula", f] for i, f in enumerate(f_eval)],
        "logic-entails": [["logic", "entails", "--language", "@lang.json",
                           "--formula", f, "--max-domain", "2",
                           "--chain", "3"] for f in f_entails],
        "proof-check": [["proof", "check", "--proof", f"@proof{i}.json"]
                        for i in range(4)],
        "proof-audit": [["proof", "audit", "--target", target, "--mode", mode,
                         "--trials", "2", "--seed", str(s)]
                        for target, mode in (("A3", "printed"),
                                             ("A4", "strict"),
                                             ("MP", "printed"),
                                             ("SubInv", "printed"))
                        for s in range(2)],
        "poly-build": [["poly", "build", "--spec", f"@spec{i}.json"]
                       for i in range(4)],
        "poly-audit": [["poly", "audit", "--spec", f"@spec{i}.json"]
                       for i in range(4)],
        "poly-neat": [["poly", "neat", "--spec", f"@spec{i}.json",
                       "--alpha", a] for i in range(4) for a in ("0", "1")],
        "poly-dims": [["poly", "dims", "--spec", f"@spec{i}.json",
                       "--element", str(e)] for i in range(4)
                      for e in (2, 5)],
        "interp-search": [["interp", "search", "--a", f"@a{i}.txt",
                           "--b", f"@b{i}.txt", "--common", "q",
                           "--depth", "6"] for i in range(4)],
        "henkin-demo": [["henkin", "demo", "--algebra", f"@spec{i}.json",
                         "--element", e] for i in range(4)
                        for e in ("g0", "1")],
        "pavelka-check": [["pavelka", "check", "--chain", n] for n in chains],
        "pavelka-degree": [["pavelka", "degree", "--algebra", f"@{spec}",
                            "--filter", "@filter-top.json", "--element", e]
                           for spec in ("l5.json", "l5-constants.json")
                           for e in ("2", "3", "4")],
        "semigroup-closure": [["semigroup", "closure", "--generators", g,
                               "--domain", d, "--cap", "100"]
                              for g in ("[0|1];[0,1]", "[0|1];[1,2]")
                              for d in ("3", "4")],
        "semigroup-rich": [["semigroup", "rich", "--sigma", "suc", "--pi",
                            "pred", "-N", n] for n in ("8", "16", "24", "32")],
        "semigroup-eval": [["semigroup", "eval", "--map", m, "--domain", "4"]
                           for m in ("[0|1]", "[1,2]", "{0->2,1->2}",
                                     "[0|1].[1,2]")],
        "batch": [["batch", "@manifest.json"]],
        "bad-missing-file": [["logic", "eval", "--model", f"@missing{i}.json",
                              "--formula", "T"] for i in range(2)],
        "bad-json": [["poly", "audit", "--spec", "@bad.json"],
                     ["logic", "entails", "--language", "@bad.json",
                      "--formula", "T"]],
        "bad-verb": [["nonsense"], ["mv", "audit", "--chain"]],
        "bad-formula": [["logic", "entails", "--language", "@lang.json",
                         "--formula", f] for f in ("p(v0", "p(v0) ->")],
        "bad-overcap-audit": [["poly", "audit", "--spec", "@overcap.json"]],
        "crash-pavelka-overcap": [["pavelka", "degree", "--algebra",
                                   "@overcap.json", "--filter",
                                   "@filter-top.json", "--element", "1"]],
        "crash-dims-index": [["poly", "dims", "--spec", f"@spec{i}.json",
                              "--element", e] for i in range(2)
                             for e in ("999", "64")],
        "crash-henkin-generator": [["henkin", "demo", "--algebra",
                                    f"@spec{i}.json", "--element", "g3"]
                                   for i in range(4)],
        "crash-entails-language": [["logic", "entails", "--language",
                                    "@lang-novars.json", "--formula", f]
                                   for f in f_entails[:4]],
    }


def _canonical_report(report, workdir):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return text.replace(workdir, "$WORK")


def _batch_job(argv, workdir):
    argv = [workdir + "/" + a[1:] if a.startswith("@") else a for a in argv]
    argv.append("--json")

    def run():
        code, report = cli.dispatch(argv)
        return Outcome(code, report.get("verdict"),
                       _canonical_report(report, workdir))
    return run


class Batch:
    name = "batch"

    def __init__(self):
        self.templates = batch_templates()
        self.classes = tuple(self.templates)
        self.workdir = None

    def pool(self, cls):
        return [f"{cls}/{i}" for i in range(len(self.templates[cls]))]

    def job_list(self, seed, cycles, expected):
        return _round_robin(self, seed, cycles, expected)

    def setup(self, keys):
        self.workdir = f"{WORK_ROOT}/batch-{os.getpid()}"
        os.makedirs(self.workdir, exist_ok=True)
        for name, payload in batch_files().items():
            with open(os.path.join(self.workdir, name), "w",
                      encoding="utf-8") as fh:
                if isinstance(payload, str):
                    fh.write(payload)
                else:
                    json.dump(payload, fh, sort_keys=True)
        jobs = {}
        for key in dict.fromkeys(keys):
            cls, index = key.rsplit("/", 1)
            jobs[key] = _batch_job(self.templates[cls][int(index)],
                                   self.workdir)
        return jobs

    def teardown(self):
        if self.workdir:
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
            os.rmdir(self.workdir)
            self.workdir = None


WORKLOADS = {"logic": Logic, "algebra": Algebra, "batch": Batch}


# Cycles per second of a run on the reference host, measured once and
# fixed, so that the job list depends only on the seed and --seconds.
CYCLES_PER_SECOND = {"logic": 1.55, "algebra": 0.48, "batch": 2.1}


def cycles_for(workload, seconds):
    """Job-list length, in cycles, for a run of about `seconds`."""
    return max(1, round(seconds * CYCLES_PER_SECOND[workload]))
