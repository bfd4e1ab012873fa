"""Golden corpus: the `--json` report of a fixed command manifest.

Every command in `golden/manifest.json` runs from inside `golden/` (so
input paths, and the input digests keyed by them, are stable) and its
canonical JSON output must match `golden/outputs/<name>.json` byte for
byte, with the recorded exit code. A refactor must leave all of them
unchanged. Each command runs twice in the same process, through the one
parser the CLI builds per process, and both runs must agree. When an
output is meant to change, regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from mvlogic import cli
from mvlogic.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def load_manifest():
    with open(GOLDEN / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def run(argv):
    """(exit code, stdout) of `mvlogic --json argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


@pytest.mark.parametrize("entry", load_manifest(), ids=lambda e: e["name"])
def test_golden_output(entry, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, text = run(entry["argv"])
    # nothing argparse keeps may leak from one call into the next
    assert run(entry["argv"]) == (code, text)
    expected = (GOLDEN / "outputs" / f"{entry['name']}.json").read_text(
        encoding="utf-8")
    assert text == expected
    assert code == entry["exit"]


def test_every_command_has_a_golden_entry():
    argvs = [entry["argv"] for entry in load_manifest()]
    missing = []
    for verb, action, _, _ in cli.COMMANDS:
        prefix = [verb] if action is None else [verb, action]
        if not any(argv[:len(prefix)] == prefix for argv in argvs):
            missing.append(" ".join(prefix))
    assert not missing


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def regenerate():
    os.chdir(GOLDEN)
    entries = load_manifest()
    os.makedirs("outputs", exist_ok=True)
    for entry in entries:
        entry["exit"], text = run(entry["argv"])
        with open(f"outputs/{entry['name']}.json", "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    lines = [json.dumps(e, sort_keys=True) for e in entries]
    with open("manifest.json", "w", encoding="utf-8") as fh:
        fh.write('{"commands": [\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    regenerate()
