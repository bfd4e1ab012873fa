"""The README's table of limits against the package: every module-level
`MAX_*` constant of every mvlogic module is one row of it, under a module
that defines it, with its value; and every row, the default caps of
`semantics.entails` and `SemigroupSpec` among them, reads the value that
the package holds."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import mvlogic

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# | `module.NAME` | 1,000 | ... or | `module.function(param=…)` | 1,000 | ...
ROW = re.compile(r"^\| `(\w+)\.([\w.]+?)(?:\((\w+)=…\))?` \| ([\d,]+) \|",
                 re.MULTILINE)


def modules():
    """{short name: module} of every module of the package, imported."""
    return {info.name: importlib.import_module(f"mvlogic.{info.name}")
            for info in pkgutil.iter_modules(mvlogic.__path__)}


def held(module, path, param):
    """The value the package holds at a row's path: an attribute, or the
    default of a function's parameter."""
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    if param is not None:
        return inspect.signature(obj).parameters[param].default
    return obj


def mismatches(text):
    """What the table in text gets wrong, as (row, wanted, written): a
    MAX_* constant without exactly one row, or a row under a module that
    does not hold it, and a row whose value is not the package's."""
    mods = modules()
    rows = [(module, path, param or None, int(value.replace(",", "")))
            for module, path, param, value in ROW.findall(text)]
    found = []
    for module, path, param, value in rows:
        wanted = held(mods[module], path, param) \
            if hasattr(mods.get(module), path.split(".")[0]) else None
        if wanted != value:
            found.append((f"{module}.{path}", wanted, value))
    constants = {}
    for module_name, module in mods.items():
        for name, value in vars(module).items():
            if name.startswith("MAX_"):
                constants.setdefault(name, {})[module_name] = value
    for name, owners in constants.items():
        named = [(module, value) for module, path, param, value in rows
                 if path == name and param is None]
        if len(named) != 1 or named[0][0] not in owners:
            found.append((name, owners, named))
    return found


def test_every_limit_is_in_the_readme_table():
    text = README.read_text(encoding="utf-8")
    assert len(ROW.findall(text)) >= 13
    assert mismatches(text) == []


def test_a_table_with_one_value_changed_fails():
    text = README.read_text(encoding="utf-8")
    for row, wrong in [("| `cli.MAX_TRIALS` | 10,000 |",
                        "| `cli.MAX_TRIALS` | 10,001 |"),
                       ("| `transform.SemigroupSpec.cap` | 1,000 |",
                        "| `transform.SemigroupSpec.cap` | 999 |"),
                       ("| `semantics.entails(cap=…)` | 500,000 |",
                        "| `semantics.entails(cap=…)` | 50,000 |"),
                       ("| `mv_core.MAX_DEPTH` |", None)]:
        if wrong is None:
            # a constant under a module that does not define it
            changed = text.replace("| `syntax.MAX_DEPTH` |", row)
        else:
            assert row in text
            changed = text.replace(row, wrong)
        assert changed != text
        assert len(mismatches(changed)) >= 1


def test_a_table_without_a_row_fails():
    text = README.read_text(encoding="utf-8")
    line = next(line for line in text.splitlines()
                if line.startswith("| `cli.MAX_SEMIGROUP_CAP` |"))
    assert [name for name, _, _ in mismatches(text.replace(line, ""))] \
        == ["MAX_SEMIGROUP_CAP"]
