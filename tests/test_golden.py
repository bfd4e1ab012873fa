"""Golden corpus: the `--json` report of a fixed command manifest.

Every command in `golden/manifest.json` runs from inside `golden/` (so
input paths, and the input digests keyed by them, are stable) and its
canonical JSON output must match `golden/outputs/<name>.json` byte for
byte, with the recorded exit code. A refactor must leave all of them
unchanged. When an output is meant to change, regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

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
    expected = (GOLDEN / "outputs" / f"{entry['name']}.json").read_text(
        encoding="utf-8")
    assert text == expected
    assert code == entry["exit"]


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
