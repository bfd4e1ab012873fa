import functools
import json
import operator
import pathlib
import re
import time

import pytest

from builders import to_table
from mvlogic import calculus, cli, interlab, mv_core, transform
from mvlogic.cli import MAX_RICH_N, dispatch, main
from mvlogic.polyadic import FunctionalSetAlgebra, algebra_from_json
from test_golden import GOLDEN, load_manifest

MODEL = {
    "domain": 2, "chain": 11,
    "predicates": {"p": {"arity": 1,
                         "table": {"(0)": "3/10", "(1)": "8/10"}}},
}

ALGEBRA_SPEC = {
    "index_set": 2, "base": 2, "chain": 2,
    "generators": [{"(0,0)": "1", "(0,1)": "1", "(1,0)": "0", "(1,1)": "0"}],
    "semigroup": "full", "scopes": "powerset", "cap": 60,
}

PROOF = {
    "language": {"variables": 4, "reserve": 1,
                 "predicates": [{"name": "p", "arity": 1},
                                {"name": "q", "arity": 1}]},
    "hypotheses": ["p(v0)", "p(v0) -> q(v0)"],
    "steps": [
        {"rule": "Hyp", "refs": [0], "formula": "p(v0)"},
        {"rule": "Hyp", "refs": [1], "formula": "p(v0) -> q(v0)"},
        {"rule": "MP", "refs": [0, 1], "formula": "q(v0)"},
    ],
}

BAD_PROOF = {
    "language": PROOF["language"],
    "hypotheses": ["p(v0)"],
    "steps": [
        {"rule": "Hyp", "refs": [0], "formula": "p(v0)"},
        {"rule": "MP", "refs": [0, 0], "formula": "q(v0)"},
    ],
}


HUGE = str(10 ** 30)

# the inputs of commands on a chain of HUGE values, by file name
HUGE_INPUTS = {
    "lang.json": {"variables": 2, "reserve": 1,
                  "predicates": [{"name": "r", "arity": 0}]},
    "spec.json": {**ALGEBRA_SPEC, "chain": int(HUGE)},
    "model.json": {"domain": 1, "chain": int(HUGE), "predicates": {
        "r": {"arity": 0, "table": {"()": "1"}}}},
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (("model", MODEL), ("algebra", ALGEBRA_SPEC),
                          ("proof", PROOF), ("badproof", BAD_PROOF)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    a = tmp_path / "a.txt"
    a.write_text("p (*) q\n")
    b = tmp_path / "b.txt"
    b.write_text("p (+) r\n")
    paths["a"], paths["b"] = str(a), str(b)
    return paths


class TestExitCodes:
    def test_mv_audit_passes(self):
        code, report = dispatch(["mv", "audit", "--chain", "5"])
        assert code == 0 and report["verdict"] == "pass"

    def test_proof_reject_is_one(self, files):
        code, report = dispatch(["proof", "check", "--proof",
                                 files["badproof"]])
        assert code == 1
        assert report["data"]["step"] == 1

    def test_proof_accept(self, files):
        code, report = dispatch(["proof", "check", "--proof", files["proof"]])
        assert code == 0 and report["verdict"] == "accept"

    def test_missing_file_is_two(self):
        code, report = dispatch(["logic", "eval", "--model", "/nope.json",
                                 "--formula", "T"])
        assert code == 2

    def test_unknown_verb_is_two(self):
        code, _ = dispatch(["nonsense"])
        assert code == 2

    def test_chain_too_short_reports_why(self):
        code, report = dispatch(["mv", "audit", "--chain", "0"])
        assert code == 2
        assert report["reason"] == "a chain needs at least the two constants"

    def test_chain_over_view_cap_reports_why(self):
        code, report = dispatch(["mv", "filter", "--chain", "100000",
                                 "--elements", "1"])
        assert code == 2
        assert report["reason"] == \
            "Chain(100000) exceeds the indexed-view cap of 1500 elements"

    def test_audit_over_model_cap_reports_why(self):
        # the first A2 instance mentions a unary predicate: 5^9 models at
        # |M| = 9 alone
        code, report = dispatch(["proof", "audit", "--target", "A2",
                                 "--trials", "1", "--max-domain", "9",
                                 "--chain", "5"])
        assert code == 2
        assert report["reason"] == "2441405 models exceed the cap of 500000"

    @pytest.mark.parametrize("arity, max_domain, total", [
        # 3 + 9 + ... + 3^12 passes the cap at |M| = 12; 3^10000 alone
        # has more digits than int-to-string conversion allows
        (1, 10000, 797160),
        # 3 + 3^4 + 3^9 + 3^16; |M| = 40 alone would be 3^1600
        (2, 40, 43066488)])
    def test_entails_over_model_cap_stops_counting(self, tmp_path, arity,
                                                   max_domain, total):
        lang = tmp_path / "lang.json"
        lang.write_text(json.dumps(
            {"variables": 3, "reserve": 1,
             "predicates": [{"name": "p", "arity": arity}]}))
        args = ", ".join(["v0"] * arity)
        code, report = dispatch(["logic", "entails", "--language", str(lang),
                                 "--formula", f"p({args})", "--max-domain",
                                 str(max_domain), "--chain", "3"])
        assert code == 2
        assert report["reason"] == \
            f"{total} models exceed the cap of 500000"

    def test_entails_stops_before_a_power_over_the_cap(self, tmp_path):
        # at |M| = 2 a 14-ary predicate alone has 3^16384 models, a number
        # with more digits than int-to-string conversion allows
        lang = tmp_path / "lang.json"
        lang.write_text(json.dumps(
            {"variables": 15, "reserve": 1,
             "predicates": [{"name": "p", "arity": 14}]}))
        code, report = dispatch(["logic", "entails", "--language", str(lang),
                                 "--formula", f"p({', '.join(['v0'] * 14)})",
                                 "--max-domain", "2", "--chain", "3"])
        assert code == 2
        assert report["reason"] == \
            "3^16384 models of p at |M| = 2 alone exceed the cap of 500000"

    def test_mv_audit_over_cap_reports_why(self, monkeypatch):
        from mvlogic.mv_core import Chain

        def walked(*args):
            raise AssertionError("the audit read a triple")

        monkeypatch.setattr(Chain, "oplus", walked)
        code, report = dispatch(["mv", "audit", "--chain", "100000"])
        assert code == 2
        assert report["reason"] == \
            "Chain(100000) exceeds the exhaustive audit cap of 100 elements"

    @pytest.mark.parametrize("argv, cap, work", [
        # the report of rich grows as N^2
        (["semigroup", "rich", "-N"], MAX_RICH_N,
         [(transform, "parse_transformation"),
          (transform, "check_strongly_rich")]),
        (["mv", "audit", "--standard", "--mode", "sampled", "--samples"],
         cli.MAX_SAMPLES, [(mv_core, "check_mv_axioms")]),
        (["proof", "audit", "--target", "A2", "--trials"], cli.MAX_TRIALS,
         [(calculus, "soundness_audit")]),
        # a closure holds up to --cap maps
        (["semigroup", "closure", "--generators", "suc;pred", "--cap"],
         cli.MAX_SEMIGROUP_CAP, [(transform, "parse_transformation"),
                                 (transform, "semigroup_closure")]),
        (["semigroup", "rich", "--ambient", "suc;pred", "--cap"],
         cli.MAX_SEMIGROUP_CAP, [(transform, "parse_transformation"),
                                 (transform, "check_strongly_rich")]),
    ], ids=["rich", "samples", "trials", "closure-cap", "rich-cap"])
    def test_a_count_past_its_cap_is_refused_before_any_work(
            self, argv, cap, work, monkeypatch):
        # the cap is read before any work starts, and admits the cap itself
        def worked(*args, **kwargs):
            raise AssertionError("the command started its work")

        for module, name in work:
            monkeypatch.setattr(module, name, worked)
        for n in (cap + 1, 10 ** 9):
            started = time.perf_counter()
            code, report = dispatch(argv + [str(n)])
            assert code == 2 and report["verdict"] == "error"
            assert report["reason"] == \
                f"{argv[-1]} {n} exceeds the cap of {cap}"
            assert time.perf_counter() - started < 1
        with pytest.raises(AssertionError, match="started its work"):
            dispatch(argv + [str(cap)])

    def test_rich_at_its_cap_reports_every_n(self):
        code, report = dispatch(["semigroup", "rich", "-N", str(MAX_RICH_N)])
        assert code == 0 and len(report["data"]["supports"]) == MAX_RICH_N

    @pytest.mark.parametrize("argv", [
        ["mv", "audit"], ["mv", "quotient", "--members", "1"],
        ["mv", "filter"], ["pavelka", "check"]])
    def test_huge_chain_is_refused_before_its_carrier(self, argv):
        # Chain(10**9) would hold 10**9 Fractions; the caps look at n only
        started = time.perf_counter()
        code, report = dispatch(argv + ["--chain", "1000000000"])
        assert code == 2 and report["verdict"] == "error"
        assert "Chain(1000000000) exceeds" in report["reason"]
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("argv", [
        ["logic", "entails", "--language", "lang.json", "--formula", "r",
         "--chain", HUGE],
        ["proof", "audit", "--target", "A4", "--chain", HUGE],
        ["poly", "build", "--spec", "spec.json"],
        ["poly", "audit", "--spec", "spec.json"],
        ["henkin", "demo", "--algebra", "spec.json", "--element", "0"],
        ["interp", "search", "--a", "a.txt", "--b", "b.txt", "--common", ",",
         "--chain", HUGE],
        ["logic", "degree", "--model", "model.json", "--formula", "r"],
        ["semigroup", "closure", "--generators", "[0|1]", "--domain", HUGE],
        ["semigroup", "eval", "--map", "[0|1]", "--domain", HUGE],
    ], ids=" ".join)
    def test_a_chain_or_domain_past_its_cap_is_an_error(self, argv, tmp_path,
                                                        monkeypatch):
        # 10^30 levels or points are more than a list can hold
        monkeypatch.chdir(tmp_path)
        for name, payload in HUGE_INPUTS.items():
            (tmp_path / name).write_text(json.dumps(payload))
        for name in ("a.txt", "b.txt"):
            (tmp_path / name).write_text("T\n")
        code, report = dispatch(argv)
        assert code == 2 and report["verdict"] == "error"
        assert f"{HUGE}) exceeds the level-table cap" in report["reason"] \
            or f"--domain {HUGE} exceeds the cap" in report["reason"]

    def test_valid_over_the_row_cap_reports_why(self, tmp_path):
        # 80^3 = 512,000 assignments of v0, v1, v2 in one model
        model = tmp_path / "model80.json"
        model.write_text(json.dumps({
            "domain": 80, "chain": 3,
            "predicates": {"p": {"arity": 1, "table": {
                f"({x})": "1" for x in range(80)}}}}))
        code, report = dispatch(["logic", "valid", "--model", str(model),
                                 "--formula", "p(v0) (+) p(v1) (+) p(v2)"])
        assert code == 2 and report["verdict"] == "error"
        assert report["reason"] == "80^3 assignments of a subformula's " \
            "variables exceed the cap of 500000"

    def test_malformed_json_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = dispatch(["logic", "eval", "--model", str(bad),
                            "--formula", "T"])
        assert code == 2

    def test_json_nested_past_the_recursion_limit_is_two(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, report = dispatch(["mv", "audit", "--table", str(deep)])
        assert code == 2
        assert report["reason"].startswith(f"{deep} is not valid JSON")

    @pytest.mark.parametrize("formula", [
        "(" * 200 + "p(v0)" + ")" * 200,
        "~" * 3000 + "p(v0)",
        " (+) ".join(["p(v0)"] * 3000),
        " -> ".join(["p(v0)"] * 1000),
    ], ids=["parentheses", "negations", "oplus-chain", "implications"])
    def test_formula_nested_too_deep_is_two(self, files, formula):
        code, report = dispatch(["logic", "valid", "--model", files["model"],
                                 "--formula", formula])
        assert code == 2
        assert "formula nests deeper than 100 levels" in report["reason"]

    def test_unknown_rule_is_rejected_before_its_references(self, tmp_path):
        data = json.loads((GOLDEN_INPUTS / "proof0.json").read_text())
        data["steps"][0]["rule"] = "x"
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps(data))
        code, report = dispatch(["proof", "check", "--proof", str(proof)])
        assert code == 1
        assert report["data"] == {"step": 0, "reason": "unknown rule 'x'"}

    def test_interp_search_over_candidate_cap(self, monkeypatch):
        # no formula over q and s sits between a2 and b2 on L3, so the
        # search runs into the cap: 4 + 4 + 52 + 148 candidates to size 4
        monkeypatch.setattr(interlab, "MAX_CANDIDATES", 100)
        code, report = dispatch([
            "interp", "search", "--a", str(GOLDEN_INPUTS / "a2.txt"),
            "--b", str(GOLDEN_INPUTS / "b2.txt"), "--common", "q,s",
            "--chain", "3", "--depth", "11"])
        assert code == 2
        assert report["reason"] == \
            "208 candidates up to size 4 exceed the cap of 100"

    def test_interp_search_found_under_candidate_cap(self, monkeypatch):
        # the strata are counted as they are reached, so an interpolant
        # at size 1 is found at any depth
        monkeypatch.setattr(interlab, "MAX_CANDIDATES", 5)
        code, report = dispatch([
            "interp", "search", "--a", str(GOLDEN_INPUTS / "a1.txt"),
            "--b", str(GOLDEN_INPUTS / "b1.txt"), "--common", "q",
            "--depth", "11"])
        assert code == 0 and report["data"] == {"interpolant": "q"}

    def test_refuted_entailment_is_one(self, tmp_path):
        lang = tmp_path / "lang.json"
        lang.write_text(json.dumps(
            {"variables": 3, "reserve": 1,
             "predicates": [{"name": "p", "arity": 1}]}))
        code, report = dispatch(["logic", "entails", "--language", str(lang),
                                 "--formula", "p(v0)", "--max-domain", "1",
                                 "--chain", "2"])
        assert code == 1 and report["verdict"] == "refuted"


TABLE_L3 = {"carrier": ["0", "1/2", "1"], "neg": [2, 1, 0], "one": 2,
            "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]], "zero": 0}

OVERCAP_SPEC = {
    "index_set": 3, "base": 2, "chain": 3, "cap": 20,
    "generators": [{"(0,0,0)": "0", "(0,0,1)": "1", "(0,1,0)": "1/2",
                    "(0,1,1)": "1", "(1,0,0)": "1", "(1,0,1)": "1/2",
                    "(1,1,0)": "1", "(1,1,1)": "0"}],
}


# A spec with no generator tables: nothing bounds |X|^|I| or |I|^|I| but
# the caps
GENERATOR_FREE = {"base": 2, "chain": 2, "generators": [], "cap": 5}


@pytest.mark.parametrize("argv", [
    ["pavelka", "degree", "--algebra", "{overcap}", "--filter", "{filter}",
     "--element", "1"],
    ["poly", "dims", "--spec", "{algebra}", "--element", "999"],
    ["henkin", "demo", "--algebra", "{algebra}", "--element", "g3"],
    ["logic", "entails", "--language", "{novars}", "--formula", "p(v0)"],
    ["logic", "eval", "--model", "{model}", "--formula", "p(v0)",
     "--assign", "v0=7"],
    ["logic", "entails", "--language", "{lang}", "--formula", "p(v0)",
     "--gamma", "{empty}"],
    ["proof", "check", "--proof", "{proof}", "--gamma", "{empty}"],
    ["pavelka", "degree", "--algebra", "{algebra}", "--filter", "{empty}",
     "--element", "1"],
    ["poly", "build", "--spec", "{algebra}", "--out", "{unwritable}"],
    ["batch", "{manifest_list}"],
    ["batch", "{manifest_number}"],
    ["batch", "{manifest_item}"],
    ["batch", "{empty}"],
    ["poly", "build", "--spec", "{hugebase}"],
    ["mv", "audit", "--table", "{table}", "--mode", "sampled"],
    ["mv", "audit", "--chain", "3", "--mode", "sampled"],
    ["mv", "quotient", "--chain", "100000", "--members", "1"],
    ["pavelka", "check", "--chain", "100000"],
    ["pavelka", "degree", "--algebra", "{const_negative}", "--filter",
     "{filter}", "--element", "3"],
    ["pavelka", "degree", "--algebra", "{const_off_chain}", "--filter",
     "{filter}", "--element", "3"],
    ["pavelka", "degree", "--algebra", "{const_above_one}", "--filter",
     "{filter}", "--element", "3"],
    ["proof", "check", "--proof", "{toplist}"],
    ["poly", "audit", "--spec", "{toplist}"],
    ["henkin", "demo", "--algebra", "{toplist}", "--element", "g0"],
    ["poly", "build", "--spec", "{full7}"],
    ["poly", "audit", "--spec", "{full5}"],
    ["poly", "build", "--spec", "{wide}"],
    # the strong-richness conditions are stated for maps of the naturals
    ["semigroup", "rich", "--sigma", "{{0->1}}", "--pi", "pred"],
    ["semigroup", "rich", "--sigma", "{{0->1}}", "--pi", "{{1->0}}"],
], ids=["overcap-spec", "element-index", "generator-index",
        "language-without-variables", "assignment-outside-domain",
        "gamma-without-formulas", "proof-gamma-without-formulas",
        "filter-without-members", "build-out-unwritable",
        "manifest-top-level-list", "manifest-commands-not-list",
        "manifest-command-not-list", "manifest-without-commands",
        "generator-short-of-huge-base", "sampled-table", "sampled-chain",
        "quotient-chain-over-view-cap", "pavelka-chain-over-view-cap",
        "constant-negative", "constant-off-the-chain", "constant-above-one",
        "proof-top-level-list", "spec-top-level-list",
        "algebra-top-level-list", "full-semigroup-over-cap",
        "full-semigroup-over-cap-audit", "assignments-over-cap",
        "rich-finite-sigma", "rich-finite-sigma-and-pi"])
def test_bad_input_is_an_error_report(argv, files, tmp_path):
    l5 = json.loads((GOLDEN_INPUTS / "l5-constants.json").read_text())
    for name, payload in (("overcap", OVERCAP_SPEC),
                          ("hugebase", {**ALGEBRA_SPEC, "base": 1000000}),
                          ("filter", {"members": [1]}),
                          ("novars", {"reserve": 1, "predicates": [
                              {"name": "p", "arity": 1}]}),
                          ("lang", PROOF["language"]),
                          ("empty", {}),
                          ("manifest_list", [["mv", "audit", "--chain", "3"]]),
                          ("manifest_number", {"commands": 5}),
                          ("manifest_item", {"commands": [5]}),
                          ("table", TABLE_L3),
                          ("toplist", [1, 2]),
                          ("full7", {**GENERATOR_FREE, "index_set": 7}),
                          ("full5", {**GENERATOR_FREE, "index_set": 5}),
                          ("wide", {**GENERATOR_FREE, "index_set": 19,
                                    "semigroup": {"generators": []},
                                    "scopes": "singletons"}),
                          # constant keys that are not values of L5
                          ("const_negative", {**l5, "constants": {"-1/4": 1}}),
                          ("const_off_chain", {**l5, "constants": {"1/3": 1}}),
                          ("const_above_one", {**l5, "constants": {"2": 1}})):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    files["unwritable"] = str(tmp_path / "no-such-dir" / "out.json")
    code, report = dispatch([a.format(**files) for a in argv])
    assert code == 2 and report["verdict"] == "error"


@pytest.mark.parametrize("argv", [
    ["mv", "eval", "--chain", "5", "--op", "oplus", "--args", "1/3,1/2"],
    ["mv", "residuum", "--chain", "5", "--x", "1/3", "--y", "1/2"],
    ["pavelka", "degree", "--algebra", "{const_off_chain}", "--filter",
     "{filter}", "--element", "3"],
], ids=["mv-eval", "mv-residuum", "pavelka-degree"])
def test_off_chain_value_is_reported_as_written(argv, tmp_path):
    # the reason writes the value as every value of a report is written
    # (format_value), not as its Python repr
    l5 = json.loads((GOLDEN_INPUTS / "l5-constants.json").read_text())
    files = {}
    for name, payload in (("const_off_chain", {**l5, "constants": {"1/3": 1}}),
                          ("filter", {"members": [1]})):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    code, report = dispatch([a.format(**files) for a in argv])
    assert (code, report["reason"]) \
        == (2, "1/3 is not in the carrier of Chain(5)")


GOLDEN_INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"

# Ł3 as a table, once with the string labels of table-l3.json and once
# with integer labels, the middle one labelled 5
L3_TABLE = json.loads((GOLDEN_INPUTS / "table-l3.json").read_text())
L3_LABELS = {"strings": L3_TABLE["carrier"], "integers": [0, 5, 9]}


@pytest.mark.parametrize("labels", sorted(L3_LABELS))
@pytest.mark.parametrize("action, flags, data", [
    ("eval", ["--op", "neg", "--args", "{half}"], {"value": "{half}"}),
    ("eval", ["--op", "oplus", "--args", "{half},{half}"],
     {"value": "{one}"}),
    ("residuum", ["--x", "{half}", "--y", "{zero}"],
     {"max_scan": "{half}", "closed_form": "{half}"}),
    ("filter", ["--elements", "{half}"],
     {"members": ["{zero}", "{half}", "{one}"], "proper": False}),
    ("extend", ["--members", "{one}"], {"members": ["{one}"]}),
    ("quotient", ["--members", "{one}"],
     {"chain": 3, "projection": {"{zero}": "0", "{half}": "1/2",
                                 "{one}": "1"}}),
], ids=["eval-neg", "eval-oplus", "residuum", "filter", "extend",
        "quotient"])
def test_table_commands_name_carrier_labels(labels, action, flags, data,
                                            tmp_path):
    # every mv command that names carrier values reads a table's words as
    # the labels they print as, string or integer
    path = tmp_path / "table.json"
    path.write_text(json.dumps({**L3_TABLE, "carrier": L3_LABELS[labels]}))
    zero, half, one = map(str, L3_LABELS[labels])

    def fill(value):
        if isinstance(value, str):
            return value.format(zero=zero, half=half, one=one)
        if isinstance(value, dict):
            return {fill(k): fill(v) for k, v in value.items()}
        if isinstance(value, list):
            return sorted(map(fill, value))
        return value

    code, report = dispatch(["mv", action, "--table", str(path),
                             *map(fill, flags)])
    assert (code, report["data"]) == (0, fill(data))


def test_a_word_naming_no_label_is_outside_the_carrier():
    code, report = dispatch(["mv", "eval", "--table",
                             str(GOLDEN_INPUTS / "table-l3.json"),
                             "--op", "neg", "--args", "2/3"])
    assert (code, report["reason"]) \
        == (2, "2/3 is not in the carrier of TableAlgebra(|carrier|=3)")


def test_labels_written_alike_are_refused(tmp_path, capsys):
    # the integer 0 and the string "0" would both be written "0", and the
    # word 0 could name only the first of them
    path = tmp_path / "table.json"
    path.write_text(json.dumps({**L3_TABLE, "carrier": [0, "0", 1]}))
    assert main(["mv", "filter", "--table", str(path), "--elements", "1",
                 "--json"]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["verdict"], report["reason"]) \
        == ("error", "bad table algebra: carrier labels must be written "
                     "distinctly")
    assert "Traceback" not in captured.err


# The carrier-form spec that `poly build --out` writes for spec1.json.
DUMP = "spec1-dump.json"

# Each JSON-object file of the golden inputs, and DUMP, with the command
# reading it; the mutated file's path is appended.
MUTATED_COMMANDS = {
    "filter-top.json": ["pavelka", "degree", "--algebra",
                        str(GOLDEN_INPUTS / "l5.json"), "--element", "3",
                        "--filter"],
    "l5.json": ["pavelka", "degree", "--filter",
                str(GOLDEN_INPUTS / "filter-top.json"), "--element", "3",
                "--algebra"],
    "l5-constants.json": ["pavelka", "degree", "--filter",
                          str(GOLDEN_INPUTS / "filter-top.json"),
                          "--element", "4", "--algebra"],
    "chain6.json": ["poly", "build", "--spec"],
    "chain6-model.json": ["logic", "degree", "--formula",
                          "A{v0} p(v0) (+) q", "--model"],
    "diag4.json": ["poly", "build", "--spec"],
    "full7.json": ["poly", "build", "--spec"],
    "lang.json": ["logic", "entails", "--formula", "p(v0) -> q(v0)",
                  "--max-domain", "2", "--chain", "3", "--language"],
    "manifest.json": ["batch"],
    "model0.json": ["logic", "eval", "--formula", "E{v0} p(v0)", "--model"],
    "model1.json": ["logic", "valid", "--formula", "A{v0} p(v0) -> p(v1)",
                    "--model"],
    "model200.json": ["logic", "degree", "--formula",
                      "E{v1} (p(v0) (+) q(v1)) (*) ~r", "--model"],
    "overcap.json": ["poly", "audit", "--spec"],
    "proof0.json": ["proof", "check", "--proof"],
    "proof1.json": ["proof", "check", "--proof"],
    "self.json": ["batch"],
    "spec-i3.json": ["poly", "dims", "--element", "7", "--spec"],
    "spec-i3-no-singletons.json": ["poly", "dims", "--element", "5",
                                   "--spec"],
    "spec-i3-singletons.json": ["poly", "dims", "--element", "2", "--spec"],
    "spec-l3.json": ["henkin", "demo", "--element", "g0", "--algebra"],
    "spec0.json": ["poly", "build", "--spec"],
    "spec1.json": ["poly", "audit", "--spec"],
    "table-l3.json": ["mv", "audit", "--table"],
    "table-l3-broken.json": ["mv", "audit", "--table"],
    "table-l2xl2.json": ["mv", "audit", "--table"],
    "x17.json": ["poly", "build", "--spec"],
    DUMP: ["poly", "audit", "--spec"],
}
DELETED = object()
MUTANT_VALUES = {"deleted": DELETED, "null": None, "-1": -1, "x": "x",
                 "[]": [], "{}": {}, "0": 0}
POINTS = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
SPECS = ("spec0", "spec1", "spec-l3", "spec-i3", "spec-i3-singletons",
         "spec-i3-no-singletons")
# The mutations that leave a well-formed file, with their exit code; every
# other one is an input error.
WELL_FORMED = {
    "table-l3-zero-0": 0, "table-l3-one-0": 1, "table-l3-broken-zero-0": 1,
    "table-l3-broken-one-0": 1, "table-l2xl2-zero-0": 0,
    "table-l2xl2-one-0": 1, "lang-reserve-deleted": 1,
    **{f"{proof}-{change}": 1 for proof in ("proof0", "proof1")
       for change in ("hypotheses-deleted", "hypotheses-[]", "steps-[]",
                      "steps.0.refs-deleted", "steps.0.refs-[]",
                      "steps.0.rule-x")},
    # a key with a default deleted, an empty list, or an entry of an element
    # table or a map set to 0, which is a chain value and an index
    **dict.fromkeys([
        *(f"{spec}-{key}-deleted" for spec in SPECS
          for key in ("cap", "scopes", "semigroup")),
        *(f"{spec}-cap-deleted" for spec in ("l5", "l5-constants", "overcap")),
        "l5-constants-constants-deleted", "l5-constants-constants-{}",
        *(f"{spec}-scopes-[]" for spec in SPECS),
        *(f"{spec}-generators-[]" for spec in ("spec0", "spec1", "overcap")),
        *(f"{spec}-generators.0.{x}-0"
          for spec in ("spec0", "spec1", "spec-l3", "l5", "l5-constants")
          for x in POINTS),
        *(f"{spec}-generators.0.{x}-0"
          for spec in ("spec-i3", "spec-i3-singletons",
                       "spec-i3-no-singletons")
          for x in ("(0,0,0)", "(1,1,1)")),
        "manifest-commands-[]", "self-commands-[]",
        # a generator entry set to the 0 it holds
        *(f"{spec}-generators.0.{x}-0" for spec in ("diag4", "x17")
          for x, v in json.loads((GOLDEN_INPUTS / f"{spec}.json").read_text(
              ))["generators"][0].items() if v == 0),
        # no generator, a key's default, or an empty index set or base:
        # the spec still builds
        "diag4-generators-[]", "diag4-semigroup-deleted",
        "x17-generators-[]", "x17-cap-deleted", "chain6-cap-deleted",
        "chain6-generators-[]", "full7-index_set-[]", "full7-index_set-0",
        *(f"chain6-{key}-{change}" for key in ("index_set", "base")
          for change in ("[]", "0")),
        "spec1-dump-scopes-deleted",
        *(f"spec1-dump-carrier.0.{x}-0" for x in POINTS),
        *(f"spec1-dump-transformations.0.{i}-{change}" for i in "01"
          for change in ("deleted", "0"))], 0),
}


def _golden_objects():
    for path in sorted(GOLDEN_INPUTS.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict):
            yield path.name


def test_every_golden_object_is_mutated():
    assert set(_golden_objects()) | {DUMP} == set(MUTATED_COMMANDS)


def test_poly_build_dumps_the_algebra_only_under_out(tmp_path,
                                                      monkeypatch):
    # without --out the carrier is never formatted, and the report is the
    # same either way
    formatted = []
    to_json = FunctionalSetAlgebra.to_json
    monkeypatch.setattr(FunctionalSetAlgebra, "to_json", lambda self: (
        formatted.append(self) or to_json(self)))
    argv = ["poly", "build", "--spec", str(GOLDEN_INPUTS / "spec1.json")]
    code, report = dispatch(argv)
    assert code == 0 and formatted == []
    dump = tmp_path / "dump.json"
    assert dispatch(argv + ["--out", str(dump)]) == (0, report)
    algebra, = formatted
    assert json.loads(dump.read_text()) == json.loads(json.dumps(
        to_json(algebra)))


def _source(name):
    """The object that is mutated; DUMP built in process for its keys."""
    if name == DUMP:
        spec = json.loads((GOLDEN_INPUTS / "spec1.json").read_text())
        return json.loads(json.dumps(algebra_from_json(spec).to_json()))
    return json.loads((GOLDEN_INPUTS / name).read_text())


def _key_paths(data):
    """The keys of a JSON object, and those of the first object of a list
    entry, as paths."""
    for key, value in data.items():
        yield (key,)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield from ((key, 0, k) for k in value[0])


def _mutations():
    for name in MUTATED_COMMANDS:
        for path in _key_paths(_source(name)):
            for label, value in MUTANT_VALUES.items():
                ident = "-".join([name[:-len(".json")],
                                  ".".join(map(str, path)), label])
                yield pytest.param(name, path, value,
                                   WELL_FORMED.get(ident, 2), id=ident)


def test_well_formed_names_mutations():
    assert set(WELL_FORMED) <= {param.id for param in _mutations()}


@pytest.mark.parametrize("name, path, value, exit_code", list(_mutations()))
def test_mutated_input_ends_in_a_report(name, path, value, exit_code,
                                        tmp_path):
    if name == DUMP:
        dump = tmp_path / "dump.json"
        code, _ = dispatch(["poly", "build", "--spec",
                            str(GOLDEN_INPUTS / "spec1.json"), "--out",
                            str(dump)])
        assert code == 0
        data = json.loads(dump.read_text())
    else:
        data = _source(name)
    *parents, key = path
    entry = functools.reduce(operator.getitem, parents, data)
    if value is DELETED:
        del entry[key]
    else:
        entry[key] = value
    mutant = tmp_path / name
    mutant.write_text(json.dumps(data))
    code, report = dispatch(MUTATED_COMMANDS[name] + [str(mutant)])
    assert code == exit_code
    if code == 2:
        assert report["verdict"] == "error" and report["reason"]


@pytest.mark.parametrize("argv", [
    ["semigroup", "eval", "--map", "[0|1]", "--points", "0"],
    ["semigroup", "eval", "--map", "[0|1]", "--domain", "0"],
    ["semigroup", "closure", "--generators", "[1|0]", "--domain", "0"],
    ["mv", "audit", "--standard", "--mode", "sampled", "--samples", "0"],
    ["mv", "audit", "--standard", "--mode", "sampled", "--samples", "-3"],
    ["interp", "search", "--a", "a.txt", "--b", "b.txt", "--common", "q",
     "--depth", "0"],
    # below 1, these would let the command pass having checked nothing
    ["proof", "audit", "--target", "A2", "--trials", "0"],
    ["proof", "audit", "--target", "A2", "--trials", "-1"],
    ["proof", "audit", "--target", "A2", "--max-domain", "0"],
    ["logic", "entails", "--language", "lang.json", "--formula", "T",
     "--max-domain", "0"],
    ["semigroup", "rich", "-N", "0"],
    ["semigroup", "rich", "-N", "-3"],
], ids=["eval-zero-points", "eval-zero-domain", "closure-zero-domain",
        "audit-zero-samples", "audit-negative-samples", "interp-zero-depth",
        "proof-audit-zero-trials", "proof-audit-negative-trials",
        "proof-audit-zero-domain", "entails-zero-domain", "rich-zero-n",
        "rich-negative-n"])
def test_count_below_one_is_a_usage_error(argv):
    code, report = dispatch(argv)
    assert code == 2 and report["verdict"] == "usage-error"


@pytest.mark.parametrize("argv, code, lines", [
    (["poly", "build", "--spec", "inputs/spec0.json"], 0,
     ["[poly] ok", "  carrier: 16", "  scopes: 4", "  transformations: 4"]),
    # a list in the data is left out
    (["poly", "audit", "--spec", "inputs/spec1.json"], 0,
     ["[poly] pass", "  carrier: 16"]),
    (["proof", "check", "--proof", "inputs/proof0.json"], 1,
     ["[proof] reject", "  reason: shape mismatch: second premise is not "
      "(first premise -> conclusion)", "  step: 4"]),
    (["mv", "eval", "--chain", "5", "--op", "oplus", "--args", "1/3,1/2"], 2,
     ["[mv] error", "  reason: 1/3 is not in the carrier of Chain(5)"]),
    (["mv", "audit", "--chain"], 2, ["[mvlogic] usage-error"]),
    (["mv", "audit", "--chain", "3", "--bogus"], 2,
     ["[mvlogic] usage-error"]),
], ids=["ok", "pass", "reject", "error", "usage-error", "unknown-flag"])
def test_human_output(argv, code, lines, monkeypatch, capsys):
    # without --json: the verdict line, the scalar data as key: value lines
    # in key order, the reason of an error, and the time taken
    monkeypatch.chdir(pathlib.Path(__file__).parent / "golden")
    assert main(argv) == code
    *got, time_line = capsys.readouterr().out.splitlines()
    assert got == lines
    assert re.fullmatch(r"  time: \d+ ms", time_line)


@pytest.mark.parametrize("argv", [["--help"], ["mv", "--help"],
                                  ["--json", "mv", "audit", "-h"]],
                         ids=["top", "verb", "action-json"])
def test_help_exits_0_with_a_report(argv, capsys):
    # the help on stdout, as the report's help or, with --json, in it
    assert main(argv) == 0
    out = capsys.readouterr().out
    prog = " ".join(["mvlogic", *[a for a in argv if a != "--json"][:-1]])
    if "--json" in argv:
        report = json.loads(out)
        assert report["verdict"] == "help"
        out = report["help"]
    assert out.startswith(f"usage: {prog} [-h]")
    assert "usage-error" not in out
    assert max(map(len, out.splitlines())) <= 78


def test_help_in_a_batch_stays_in_its_report(tmp_path, capsys):
    # stdout holds the batch's JSON document and nothing else; a real
    # usage error beside the help still exits 2
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"commands": [
        ["--help"], ["mv", "audit", "--chain"]]}))
    assert main(["batch", str(manifest), "--json"]) == 1
    helped, usage = json.loads(capsys.readouterr().out)["data"]["results"]
    assert helped["exit"] == 0 and helped["report"]["verdict"] == "help"
    assert helped["report"]["help"].startswith("usage: mvlogic [-h]")
    assert usage["exit"] == 2
    assert usage["report"]["verdict"] == "usage-error"


# command lines that the leaf table routes to the tree (help, an unknown
# verb or action, an option before the action) or to a leaf that refuses
# them (a missing value, an unknown flag, a stray positional), and one
# abbreviated flag that the leaf accepts
EDGE_ARGVS = {
    "empty": [], "help": ["--help"], "verb": ["mv"],
    "verb-help": ["mv", "--help"], "action-help": ["mv", "audit", "-h"],
    "unknown-verb": ["nonsense"], "unknown-action": ["mv", "nonsense"],
    "option-before-action": ["mv", "--chain", "3", "audit"],
    "missing-value": ["mv", "audit", "--chain"],
    "abbreviated-flag": ["mv", "audit", "--cha", "5"],
    "unknown-flag": ["mv", "audit", "--chain", "3", "--bogus"],
    "batch-bare": ["batch"], "batch-extra": ["batch", "m.json", "extra"],
}
# the golden entries too, but for the timed ones: those are the corpus's
# long runs, and an untimed entry routes each of their commands
ROUTED = {**{e["name"]: e["argv"] for e in load_manifest()
             if "timeout" not in e}, **EDGE_ARGVS}


def through_the_tree(argv, monkeypatch):
    """dispatch(argv) with the leaf table emptied, so that every command
    line is parsed from the root of the tree."""
    tree, _ = cli._parser()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", lambda: (tree, {}))
        return dispatch(argv)


@pytest.mark.parametrize("argv", ROUTED.values(), ids=ROUTED)
def test_leaf_routing_gives_the_reports_of_the_tree(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert dispatch(argv) == through_the_tree(argv, monkeypatch)


def test_every_leaf_is_reached_without_the_tree(monkeypatch):
    tree, leaves = cli._parser()
    assert set(leaves) == {(verb,) if action is None else (verb, action)
                           for verb, action, _, _ in cli.COMMANDS}

    def refuse(*args, **kwargs):
        raise AssertionError("parsed from the root of the tree")

    monkeypatch.setattr(tree, "parse_args", refuse)
    for words in leaves:
        code, report = dispatch([*words, "--help"])
        assert (code, report["verdict"]) == (0, "help")
        assert report["help"].startswith(f"usage: mvlogic {' '.join(words)}")


def test_an_unrecognized_argument_names_the_leaf(monkeypatch, capsys):
    # the one difference of the leaf route: its usage line on stderr
    argv = ["mv", "audit", "--chain", "3", "--bogus"]
    assert dispatch(argv) == (2, {"verdict": "usage-error", "argv": argv})
    assert capsys.readouterr().err.startswith("usage: mvlogic mv audit [-h]")
    through_the_tree(argv, monkeypatch)
    assert capsys.readouterr().err.startswith("usage: mvlogic [-h]")


class TestVerbs:
    @pytest.mark.parametrize("argv, value", [
        (["logic", "eval", "--model", "model", "--formula", "E{v0} p(v0)"],
         "4/5"),
        # a table's values are read and printed as its labels
        (["mv", "eval", "--table", "inputs/table-l3.json", "--op", "neg",
          "--args", "1/2"], "1/2"),
    ], ids=["logic", "mv-table"])
    def test_eval_prints_the_bare_value(self, argv, value, files,
                                        monkeypatch, capsys):
        # a value query without --json prints the value and nothing else
        monkeypatch.chdir(GOLDEN)
        assert main([files.get(a, a) for a in argv]) == 0
        assert capsys.readouterr().out == value + "\n"

    @pytest.mark.parametrize("formula, code, verdict, degree", [
        ("p(v0) -> p(v0)", 0, "valid", "1"),
        ("p(v0)", 1, "not-valid", "3/10"),
        ("E{v0} p(v0)", 1, "not-valid", "4/5"),
    ])
    def test_logic_valid_reads_the_degree(self, files, formula, code,
                                          verdict, degree):
        got, report = dispatch(["logic", "valid", "--model", files["model"],
                                "--formula", formula])
        assert (got, report["verdict"], report["data"]) \
            == (code, verdict, {"degree": degree})

    def test_mv_eval(self):
        code, report = dispatch(["mv", "eval", "--standard", "--op", "oplus",
                                 "--args", "1/2,7/10"])
        assert code == 0 and report["data"]["value"] == "1"

    def test_mv_residuum_routes_agree(self):
        code, report = dispatch(["mv", "residuum", "--chain", "4",
                                 "--x", "2/3", "--y", "1/3"])
        assert code == 0
        assert report["data"]["max_scan"] == report["data"]["closed_form"] \
            == "2/3"

    def test_mv_quotient(self):
        code, report = dispatch(["mv", "quotient", "--chain", "3",
                                 "--members", "1"])
        assert code == 0 and report["data"]["chain"] == 3

    def test_poly_audit(self, files):
        code, report = dispatch(["poly", "audit", "--spec", files["algebra"]])
        assert code == 0
        assert all(row["holds"] for row in report["data"]["identities"])

    def test_poly_neat(self, files):
        code, report = dispatch(["poly", "neat", "--spec", files["algebra"],
                                 "--alpha", "0"])
        assert code == 0 and report["data"]["elements"] == 4

    def test_interp_search(self, files):
        code, report = dispatch(["interp", "search", "--a", files["a"],
                                 "--b", files["b"], "--common", "p",
                                 "--chain", "2", "--depth", "4"])
        assert code == 0 and report["data"]["interpolant"] == "p"

    def test_henkin_demo(self, files):
        code, report = dispatch(["henkin", "demo", "--algebra",
                                 files["algebra"], "--element", "g0"])
        assert code == 0
        assert all(c["holds"] for c in report["data"]["clauses"])

    def test_pavelka_check(self):
        code, report = dispatch(["pavelka", "check", "--chain", "5"])
        assert code == 0

    def test_pavelka_check_of_a_long_chain_is_fast(self):
        # the laws read the chain's indexed view, with constants and filter
        # members as carrier indices, so each law is O(N^2) table lookups
        # and no Fraction arithmetic
        started = time.perf_counter()
        code, report = dispatch(["pavelka", "check", "--chain", "400"])
        assert code == 0 and report["verdict"] == "pass"
        assert time.perf_counter() - started < 5

    def test_pavelka_degree(self, files, tmp_path):
        # build the algebra once to learn the carrier layout
        from mvlogic.polyadic import algebra_from_json
        algebra = algebra_from_json(ALGEBRA_SPEC)
        members = [i for i, p in enumerate(algebra.carrier)
                   if p == algebra.one]
        flt = tmp_path / "filter.json"
        flt.write_text(json.dumps({"members": members}))
        code, report = dispatch(["pavelka", "degree", "--algebra",
                                 files["algebra"], "--filter", str(flt),
                                 "--element", "g0"])
        assert code == 0
        assert report["data"]["degree"] == "0"  # g is not above any r > 0

    def test_pavelka_degree_explicit_constants(self, tmp_path):
        from mvlogic.polyadic import algebra_from_json
        spec = dict(ALGEBRA_SPEC)
        algebra = algebra_from_json(spec)
        spec["constants"] = {
            "0": algebra.carrier.index(algebra.zero),
            "1": algebra.carrier.index(algebra.one),
        }
        alg_path = tmp_path / "alg.json"
        alg_path.write_text(json.dumps(spec))
        flt = tmp_path / "filter.json"
        flt.write_text(json.dumps(
            {"members": [algebra.carrier.index(algebra.one)]}))
        code, report = dispatch(["pavelka", "degree", "--algebra",
                                 str(alg_path), "--filter", str(flt),
                                 "--element",
                                 str(algebra.carrier.index(algebra.one))])
        assert code == 0 and report["data"]["degree"] == "1"

    def test_formula_from_stdin(self, files, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("A{v0} p(v0)"))
        code, report = dispatch(["logic", "eval", "--model", files["model"],
                                 "--formula", "-"])
        assert code == 0 and report["data"]["value"] == "3/10"

    def test_semigroup_rich(self):
        code, report = dispatch(["semigroup", "rich", "--sigma", "suc",
                                 "--pi", "pred", "-N", "8"])
        assert code == 0
        assert report["data"]["supports"][2] == [0, 1, 2]

    def test_semigroup_closure(self):
        code, report = dispatch(["semigroup", "closure", "--generators",
                                 "[0|1];[0,1]", "--domain", "3",
                                 "--cap", "50"])
        assert code == 0 and not report["data"]["truncated"]


class TestDeterminism:
    def test_json_reports_byte_identical(self, files, capsys):
        argv = ["mv", "audit", "--chain", "4", "--seed", "3", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_input_hash_recorded(self, files):
        _, report = dispatch(["logic", "eval", "--model", files["model"],
                              "--formula", "T"])
        digest = next(iter(report["inputs"].values()))
        assert len(digest) == 64


class TestBatch:
    def test_aggregate_pass(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"commands": [
            ["mv", "audit", "--chain", "3"],
            ["mv", "tnorm", "--kind", "goedel", "--x", "1/3", "--y", "2/3"],
        ]}))
        code, report = dispatch(["batch", str(manifest)])
        assert code == 0 and report["data"]["commands"] == 2

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"commands": []}))
        code, report = dispatch(["batch", str(manifest)])
        assert code == 0 and report["data"]["commands"] == 0

    def test_failing_member_fails_batch(self, tmp_path):
        # a corrupted table algebra audit must drag the batch down
        from mvlogic.mv_core import Chain
        table = to_table(Chain(3)).to_json()
        table["oplus"][0][1] = 2
        bad = tmp_path / "bad_table.json"
        bad.write_text(json.dumps(table))
        code, report = dispatch(["mv", "audit", "--table", str(bad)])
        assert code == 1 and report["verdict"] == "fail"
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"commands": [
            ["mv", "audit", "--chain", "3"],
            ["mv", "audit", "--table", str(bad)],
        ]}))
        code, report = dispatch(["batch", str(manifest)])
        assert code == 1 and report["verdict"] == "fail"

    def test_manifest_that_lists_itself(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"commands": [
            ["batch", str(manifest)],
            ["mv", "audit", "--chain", "3"],
        ]}))
        code, report = dispatch(["batch", str(manifest)])
        assert code == 1 and report["verdict"] == "fail"
        nested, audit = report["data"]["results"]
        assert nested["exit"] == 2
        assert nested["report"]["reason"] == \
            "a batch manifest cannot run batch"
        assert audit["exit"] == 0

    def test_manifest_parse_error(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("][")
        code, _ = dispatch(["batch", str(manifest)])
        assert code == 2
