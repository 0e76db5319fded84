"""The README names module attributes as `module.NAME`, some with their
value (`solver.LS_MAX` = 8, `solver.BORDERED_RTOL` (1e-10)); each must
exist in slipflow, and each quoted value must be the attribute's.  The
docstrings and comments of slipflow's own modules name attributes as
`module.NAME` or `Class.attr`; each of those must exist too."""

import ast
import dataclasses
import importlib
import inspect
import io
import re
import textwrap
import tokenize
from pathlib import Path

import pytest

import slipflow

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(slipflow.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
NAMED = re.compile(r"`(\w+)\.([\w.]+)`(?:\s*(?:=|\()\s*([-+]?\d[\d.]*(?:[eE][-+]?\d+)?))?")
DOTTED = re.compile(r"`([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)`")


def test_readme_names_only_attributes_that_exist_with_their_values():
    named = [m for m in NAMED.finditer(README.read_text()) if m[1] in MODULES]
    assert len(named) >= 5
    for m in named:
        value = importlib.import_module(f"slipflow.{m[1]}")
        for attr in m[2].split("."):
            assert hasattr(value, attr), f"README names {m[1]}.{m[2]}"
            value = getattr(value, attr)
        if m[3] is not None:
            assert value == float(m[3].rstrip(".")), f"README quotes {m[0]}"


def has_attribute(obj, attr) -> bool:
    """obj.attr exists: as an attribute, or for a class as a dataclass
    field or an attribute its methods set on self."""
    if hasattr(obj, attr):
        return True
    if not inspect.isclass(obj):
        return False
    if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
        return True
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    return any(isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               and node.attr == attr for node in ast.walk(tree))


def docs_and_comments(path: Path):
    """(line, text) of every docstring and comment in the file."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


def defined_names() -> dict:
    """The classes and functions defined in slipflow's modules, by name."""
    names = {}
    for name in MODULES:
        module = importlib.import_module(f"slipflow.{name}")
        names.update((k, v) for k, v in vars(module).items()
                     if getattr(v, "__module__", None) == module.__name__)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_source_docs_name_only_attributes_that_exist(name):
    # the first part is a slipflow module, a name in the file's module or
    # a class or function of another; anything else (`f.time_degree`) is
    # a local and not checked
    module, defined = importlib.import_module(f"slipflow.{name}"), defined_names()
    for line, text in docs_and_comments(SRC / f"{name}.py"):
        for m in DOTTED.finditer(text):
            if m[1] in MODULES:
                value = importlib.import_module(f"slipflow.{m[1]}")
            elif m[1] in vars(module) or m[1] in defined:
                value = vars(module).get(m[1], defined.get(m[1]))
            else:
                continue
            for attr in m[2].split(".")[1:]:
                at = line + text.count("\n", 0, m.start())
                assert has_attribute(value, attr), f"{name}.py:{at} names {m[0]}"
                if not hasattr(value, attr):
                    break   # an instance attribute: nothing to follow
                value = getattr(value, attr)


def test_source_docs_name_attributes():
    # the scan above sees the names it should check
    named = [m[0] for name in MODULES for _, text in docs_and_comments(SRC / f"{name}.py")
             for m in DOTTED.finditer(text)]
    assert {"`_Factor.refresh`", "`FormCache.pattern`", "`forms.slip_block`"} <= set(named)
