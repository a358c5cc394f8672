"""Tier-1 face of tools/check_docs.py: docs and code may never drift.

CI runs ``python tools/check_docs.py`` as its own job; this module runs
the same five checks inside the test suite so a plain ``pytest tests/``
catches a broken link, a drifted ``file.py:line`` anchor, or an
undocumented metric/span before CI does.
"""

import importlib.util
import os
import sys

import pytest

_TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(_TOOLS, "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_links_resolve(check_docs):
    assert check_docs.check_links() == []


def test_code_anchors_accurate(check_docs):
    assert check_docs.check_anchors() == []


def test_observability_catalogue_documented(check_docs):
    assert check_docs.check_observability_catalogue() == []


def test_registry_matches_catalogue(check_docs):
    assert check_docs.check_registry_matches_catalogue() == []


def test_every_span_instrumented(check_docs):
    assert check_docs.check_spans_instrumented() == []


def test_run_all_clean(check_docs):
    assert check_docs.run_all() == []


def test_catalogue_label_column_is_checked(check_docs, tmp_path, monkeypatch):
    """A catalogue row whose Labels column disagrees with the live
    family's label names is reported."""
    with open(os.path.join(check_docs.REPO_ROOT, "docs", "observability.md"),
              encoding="utf-8") as handle:
        text = handle.read()
    row = "| `repro_serve_queries_total` | counter | `result` |"
    assert row in text
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(
        text.replace(row, "| `repro_serve_queries_total` | counter | `epoch`, `result` |"),
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", str(tmp_path))
    errors = check_docs.check_registry_matches_catalogue()
    assert len(errors) == 1 and "repro_serve_queries_total" in errors[0]
