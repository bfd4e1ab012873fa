"""Golden corpus: the `--json` report of a fixed command manifest.

Every command in `golden/manifest.json` runs from inside `golden/` (so
input paths, and the input digests keyed by them, are stable) and its
canonical JSON output must match `golden/outputs/<name>.json` byte for
byte, with the recorded exit code. An entry may also give a `timeout` in
seconds, within which its first run must end. A refactor must leave all
of them unchanged. Each command runs twice in the same process, through
the one parser the CLI builds per process, and both runs must agree.
CI runs the same manifest through the installed `mvlogic` script.

To add an entry, append its line to the manifest and write its output
(and record its exit code) with

    PYTHONPATH=src python tests/test_golden.py

which writes only the outputs that are missing. When an output is meant
to change, delete it and run the same command.
"""

import contextlib
import io
import json
import os
import pathlib
import time

import pytest

from mvlogic import cli
from mvlogic.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def load_manifest():
    with open(GOLDEN / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def expected_output(entry):
    return (GOLDEN / "outputs" / f"{entry['name']}.json").read_text(
        encoding="utf-8")


def run(argv):
    """(exit code, stdout) of `mvlogic --json argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


def misses(entry, expected):
    """What the entry's two runs from the working directory get wrong, as
    {kind: (wanted, got)}: the exit code, the stdout against `expected`, a
    second run in the same process unlike the first, and a first run that
    outlasts the entry's timeout, if it has one."""
    started = time.perf_counter()
    code, text = run(entry["argv"])
    seconds = time.perf_counter() - started
    found = {}
    if code != entry["exit"]:
        found["exit"] = (entry["exit"], code)
    if text != expected:
        found["stdout"] = (expected, text)
    # nothing argparse keeps may leak from one call into the next
    again = run(entry["argv"])
    if again != (code, text):
        found["rerun"] = ((code, text), again)
    if seconds > entry.get("timeout", seconds):
        found["timeout"] = (entry["timeout"], seconds)
    return found


@pytest.mark.parametrize("entry", load_manifest(), ids=lambda e: e["name"])
def test_golden_output(entry, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert misses(entry, expected_output(entry)) == {}


@pytest.mark.parametrize("wrong", [None, "exit", "stdout", "timeout"])
def test_one_wrong_expectation_is_missed(wrong, monkeypatch):
    # a copy of a real timed entry, with at most one expectation wrong
    monkeypatch.chdir(GOLDEN)
    entry = dict(next(e for e in load_manifest()
                      if e["name"] == "semigroup-rich-n-past-cap"))
    expected = expected_output(entry)
    if wrong == "exit":
        entry["exit"] += 1
    elif wrong == "stdout":
        at = len(expected) // 2
        expected = expected[:at] + chr(ord(expected[at]) ^ 1) \
            + expected[at + 1:]
    elif wrong == "timeout":
        entry["timeout"] = 1e-6
    assert set(misses(entry, expected)) == ({wrong} - {None})


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
    """Write the output and record the exit code of each entry whose
    output is missing; leave the others as they are."""
    os.chdir(GOLDEN)
    entries = load_manifest()
    os.makedirs("outputs", exist_ok=True)
    for entry in entries:
        path = f"outputs/{entry['name']}.json"
        if not os.path.exists(path):
            entry["exit"], text = run(entry["argv"])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    lines = [json.dumps(e, sort_keys=True) for e in entries]
    with open("manifest.json", "w", encoding="utf-8") as fh:
        fh.write('{"commands": [\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    regenerate()
