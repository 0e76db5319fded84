"""The README names module attributes as `module.NAME`, some with their
value (`solver.LS_MAX` = 8, `solver.BORDERED_RTOL` (1e-10)); each must
exist in slipflow, and each quoted value must be the attribute's."""

import importlib
import re
from pathlib import Path

import slipflow

README = Path(__file__).resolve().parents[1] / "README.md"
NAMED = re.compile(r"`(\w+)\.([\w.]+)`(?:\s*(?:=|\()\s*([-+]?\d[\d.]*(?:[eE][-+]?\d+)?))?")


def test_readme_names_only_attributes_that_exist_with_their_values():
    modules = {p.stem for p in Path(slipflow.__file__).parent.glob("*.py")}
    named = [m for m in NAMED.finditer(README.read_text()) if m[1] in modules]
    assert len(named) >= 5
    for m in named:
        value = importlib.import_module(f"slipflow.{m[1]}")
        for attr in m[2].split("."):
            assert hasattr(value, attr), f"README names {m[1]}.{m[2]}"
            value = getattr(value, attr)
        if m[3] is not None:
            assert value == float(m[3].rstrip(".")), f"README quotes {m[0]}"
