"""The benchmark's traced run wraps names crtperm's modules must keep.

``perfbench/spans.py`` replaces each (module, attribute) pair in its
``WRAPPED`` list with a span-recording wrapper.  A refactor that drops
one of those imports leaves the untraced benchmark working and breaks
only the traced run, so the list is checked here.  The traced run also
counts the search's fallback warnings by their ``FALLBACK_MESSAGE``
text, so a reworded warning would read as zero fallbacks; that text is
checked against a search that falls back.  Both are read with ``ast``,
without importing the benchmark package.
"""

import ast
import importlib
import warnings
from pathlib import Path

import pytest

from crtperm.search import search_all_methods

from conftest import make_mixed_dataset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _constant(name: str):
    """The literal value of the module-level ``name = ...`` in spans.py."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {SPANS}")


WRAPPED = [tuple(entry) for entry in _constant("WRAPPED")]
FALLBACK_MESSAGE = _constant("FALLBACK_MESSAGE")


def test_wrapped_list_is_not_empty():
    assert WRAPPED


@pytest.mark.parametrize(
    "module, attr, span", WRAPPED, ids=[f"{m}.{a}" for m, a, _ in WRAPPED]
)
def test_wrapped_name_resolves(module, attr, span):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} (span {span!r}) is gone"


def test_fallback_warnings_carry_the_counted_message():
    # this trial's log and logit chains overflow at far-out candidates
    ds = make_mixed_dataset(baseline=True, seed=41)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        search_all_methods([ds], ["none", "bonferroni", "holm", "romano_wolf"], Q=400, seeds=[17])
    messages = [str(w.message) for w in caught]
    assert messages, "the search did not fall back"
    for message in messages:
        assert FALLBACK_MESSAGE in message
    sides = [message.split()[0] for message in messages]
    assert all(sides.count(side) <= 1 for side in ("upper", "lower")), messages
