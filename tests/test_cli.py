import json

import pytest

from mvlogic.cli import dispatch, main

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

    def test_malformed_json_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = dispatch(["logic", "eval", "--model", str(bad),
                            "--formula", "T"])
        assert code == 2

    def test_refuted_entailment_is_one(self, tmp_path):
        lang = tmp_path / "lang.json"
        lang.write_text(json.dumps(
            {"variables": 3, "reserve": 1,
             "predicates": [{"name": "p", "arity": 1}]}))
        code, report = dispatch(["logic", "entails", "--language", str(lang),
                                 "--formula", "p(v0)", "--max-domain", "1",
                                 "--chain", "2"])
        assert code == 1 and report["verdict"] == "refuted"


OVERCAP_SPEC = {
    "index_set": 3, "base": 2, "chain": 3, "cap": 20,
    "generators": [{"(0,0,0)": "0", "(0,0,1)": "1", "(0,1,0)": "1/2",
                    "(0,1,1)": "1", "(1,0,0)": "1", "(1,0,1)": "1/2",
                    "(1,1,0)": "1", "(1,1,1)": "0"}],
}


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
], ids=["overcap-spec", "element-index", "generator-index",
        "language-without-variables", "assignment-outside-domain",
        "gamma-without-formulas", "proof-gamma-without-formulas",
        "filter-without-members", "build-out-unwritable",
        "manifest-top-level-list", "manifest-commands-not-list",
        "manifest-command-not-list", "manifest-without-commands",
        "generator-short-of-huge-base"])
def test_bad_input_is_an_error_report(argv, files, tmp_path):
    for name, payload in (("overcap", OVERCAP_SPEC),
                          ("hugebase", {**ALGEBRA_SPEC, "base": 1000000}),
                          ("filter", {"members": [1]}),
                          ("novars", {"reserve": 1, "predicates": [
                              {"name": "p", "arity": 1}]}),
                          ("lang", PROOF["language"]),
                          ("empty", {}),
                          ("manifest_list", [["mv", "audit", "--chain", "3"]]),
                          ("manifest_number", {"commands": 5}),
                          ("manifest_item", {"commands": [5]})):
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    files["unwritable"] = str(tmp_path / "no-such-dir" / "out.json")
    code, report = dispatch([a.format(**files) for a in argv])
    assert code == 2 and report["verdict"] == "error"


@pytest.mark.parametrize("argv", [
    ["semigroup", "eval", "--map", "[0|1]", "--points", "0"],
    ["semigroup", "eval", "--map", "[0|1]", "--domain", "0"],
    ["semigroup", "closure", "--generators", "[1|0]", "--domain", "0"],
], ids=["eval-zero-points", "eval-zero-domain", "closure-zero-domain"])
def test_count_below_one_is_a_usage_error(argv):
    code, report = dispatch(argv)
    assert code == 2 and report["verdict"] == "usage-error"


class TestVerbs:
    def test_logic_eval_prints_value(self, files, capsys):
        code = main(["logic", "eval", "--model", files["model"],
                     "--formula", "E{v0} p(v0)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "4/5"

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
        from mvlogic.mv_core import Chain, to_table
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

    def test_manifest_parse_error(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("][")
        code, _ = dispatch(["batch", str(manifest)])
        assert code == 2
