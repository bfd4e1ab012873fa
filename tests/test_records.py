"""The package's frozen records (`mv_core.record`) against frozen dataclasses.

Every record class of the package is compared with a twin: its class
statement, read from the module's source, run again under
`dataclasses.dataclass(frozen=True)` in place of `record`, on the twins
of its record bases.
Both must have the same fields and defaults, construct alike by position
and by name, and agree on repr, ==, hash and the TypeError of a missing,
surplus or unknown argument. A fresh interpreter that imports the command
line must not load `dataclasses` or `inspect`.
"""

import __future__
import ast
import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvlogic
from mvlogic import (
    calculus, interlab, mv_core, pavelka, polyadic, syntax, transform,
)
from mvlogic.mv_core import ONE, Chain, Filter
from mvlogic.pavelka import PavelkaAlgebra

MODULES = (calculus, interlab, mv_core, pavelka, polyadic, syntax, transform)

RECORDS = [obj for module in MODULES for obj in vars(module).values()
           if isinstance(obj, type) and "__record_fields__" in vars(obj)
           and obj.__module__ == module.__name__]

@functools.lru_cache(maxsize=None)
def _classes(module):
    """The class statements of a module's source, by name."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.ClassDef)}


@functools.lru_cache(maxsize=None)
def twin(cls):
    """The class statement of cls run again, under the frozen dataclass
    decorator, in its module's namespace and on its record bases' twins."""
    module = sys.modules[cls.__module__]
    node = _classes(module)[cls.__name__]
    node.decorator_list = [ast.parse("dataclasses.dataclass(frozen=True)",
                                     mode="eval").body]
    namespace = {**vars(module), "dataclasses": dataclasses}
    namespace.update((base.__name__, twin(base)) for base in cls.__bases__
                     if "__record_fields__" in vars(base))
    exec(compile(ast.Module([node], []), module.__file__, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True),
         namespace)
    return namespace[cls.__name__]


def _pavelka(n):
    chain = Chain(n)
    return PavelkaAlgebra(chain, chain, tuple((r, r) for r in chain.carrier))


# two argument tuples of each class whose __post_init__ checks them
VALID = {
    "LanguageSpec": lambda: [(3, 1, (("p", 2),)), (4, 2, ())],
    "FinTransformation": lambda: [((0, 1, 2), (1, 1, 2)), ((0, 1), (1, 0))],
    # not suc, pred or id: the repr of those compares with module constants
    "OmegaMap": lambda: [(2, ()), (0, ((0, 3),))],
    "Filter": lambda: [(Chain(3), frozenset({ONE})),
                       (Chain(3), frozenset(Chain(3).carrier))],
    "PavelkaAlgebra": lambda: [
        tuple(getattr(_pavelka(n), f) for f in ("base", "chain", "constants"))
        for n in (3, 2)],
    "GradedContext": lambda: [
        (_pavelka(n), Filter(Chain(n), frozenset({ONE}))) for n in (3, 2)],
}


def samples(cls):
    """Two argument tuples of cls, equal in all fields but the last."""
    if cls.__name__ in VALID:
        return VALID[cls.__name__]()
    first = tuple(f"{name}-0" for name in cls.__record_fields__)
    return [first, first[:-1] + tuple(f"{name}-1"
                                      for name in cls.__record_fields__[-1:])]


def outcome(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except TypeError as exc:
        return str(exc)
    return None


def test_every_record_is_found():
    assert len(RECORDS) == 48
    assert {mv_core.AuditReport, transform.RichnessReport,
            syntax.Oplus} <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_against_its_dataclass_twin(cls):
    model = twin(cls)
    fields = cls.__record_fields__
    assert fields == tuple(f.name for f in dataclasses.fields(model))
    required = [f for f in dataclasses.fields(model)
                if f.default is dataclasses.MISSING]
    args = samples(cls)[0]
    # the defaults: both built from the required fields alone
    got, want = cls(*args[:len(required)]), model(*args[:len(required)])
    assert [getattr(got, f) for f in fields] \
        == [getattr(want, f) for f in fields]
    assert repr(got) == repr(want)
    pairs = [(cls(*sample), model(*sample)) for sample in samples(cls)]
    for sample, (got, want) in zip(samples(cls), pairs):
        assert cls(**dict(zip(fields, sample))) == got
        assert repr(got) == repr(want)
        assert hash(got) == hash(want) == hash(tuple(
            getattr(got, f) for f in fields))
        assert got != want and not got == want
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(got, name, None)
            with pytest.raises(AttributeError):
                delattr(got, name)
    (a, twin_a), (b, twin_b) = pairs
    assert (a == b, a != b) == (twin_a == twin_b, twin_a != twin_b)
    # an instance of a subclass is never equal
    sub, twin_sub = (type(cls.__name__, (c,), {}) for c in (cls, model))
    assert (a == sub(*args), a != sub(*args)) \
        == (twin_a == twin_sub(*args), twin_a != twin_sub(*args)) \
        == (False, True)
    assert repr(sub(*args)) == repr(twin_sub(*args))
    assert a == cls(*args)
    calls = [lambda c: c(*args, "surplus"), lambda c: c(*args, bogus=1)]
    if required:
        calls.append(lambda c: c(*args[:len(required) - 1]))
    for call in calls:
        got = outcome(call, cls)
        assert got is not None and got == outcome(call, model)


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(mvlogic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, mvlogic.cli; print(sorted("
         "{'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert result.stdout == "[]\n"
