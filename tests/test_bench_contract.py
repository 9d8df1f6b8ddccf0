"""The benchmark's traced run wraps names crtperm's modules must keep.

``perfbench/spans.py`` replaces each (module, attribute) pair in its
``WRAPPED`` list with a span-recording wrapper.  A refactor that drops
one of those imports leaves the untraced benchmark working and breaks
only the traced run, so the list is checked here.  It is read with
``ast``, without importing the benchmark package.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped() -> list[tuple[str, str, str]]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [tuple(entry) for entry in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED list in {SPANS}")


WRAPPED = _wrapped()


def test_wrapped_list_is_not_empty():
    assert WRAPPED


@pytest.mark.parametrize(
    "module, attr, span", WRAPPED, ids=[f"{m}.{a}" for m, a, _ in WRAPPED]
)
def test_wrapped_name_resolves(module, attr, span):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} (span {span!r}) is gone"
