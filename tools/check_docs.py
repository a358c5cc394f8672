#!/usr/bin/env python
"""Documentation checker: links, anchors, and the observability catalogue.

Run from the repository root (CI does: ``PYTHONPATH=src python
tools/check_docs.py``).  Five checks, each returning a list of error
strings:

1. **Links** — every relative markdown link in README.md,
   EXPERIMENTS.md, DESIGN.md and docs/*.md points at a file that exists.
2. **Anchors** — every ``src/<file>.py:<line>`` anchor in those same
   files names an existing file, a line inside it, and
   (when a symbol is given as ``(`symbol`)``) a ``def``/``class`` of
   that name within ±10 lines of the cited line.
3. **References** — in those same files, every backticked dotted
   ``repro.…`` name resolves (a module, then attributes of it), and
   every bare backticked ``src/…/<file>.py`` path exists.
4. **Observability catalogue** — every metric/span name documented in
   docs/observability.md exists in ``repro.obs.names`` and vice versa;
   a live ``DistanceServer`` registers exactly the catalogued metrics,
   each with the label names its catalogue row lists;
   every catalogued span constant is referenced by instrumentation
   outside ``repro.obs`` itself.

``tests/test_docs.py`` runs the same functions inside the tier-1
suite, so CI and local pytest agree.
"""

from __future__ import annotations

import importlib
import os
import re
import sys
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_ANCHOR_RE = re.compile(
    r"`(src/[A-Za-z0-9_/.]+\.py):(\d+)`(?:\s*\(`([A-Za-z0-9_.]+)`\))?"
)
_METRIC_TOKEN_RE = re.compile(r"`(repro_[a-z0-9_]+)`")
_SPAN_TOKEN_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")
#: A metric catalogue row: ``| `name` | type | labels | meaning |``; the
#: labels column is backticked names, or ``—`` for none.
_CATALOGUE_ROW_RE = re.compile(
    r"^\| `(repro_[a-z0-9_]+)` \| [a-z]+ \| ([^|]*) \|", re.MULTILINE
)
_LABEL_TOKEN_RE = re.compile(r"`([a-zA-Z_][a-zA-Z0-9_]*)`")

#: A backticked dotted name rooted at the package, e.g. `repro.ch.dch`.
_DOTTED_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
#: A bare backticked source path, e.g. `src/repro/ch/dch.py`.
_SOURCE_PATH_RE = re.compile(r"`(src/[A-Za-z0-9_/.-]+\.py)`")

#: Documentation files whose links, anchors and references are checked.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

#: Pages the docs suite must always contain (each one is load-bearing:
#: other pages and module docstrings link to them by name).
REQUIRED_DOCS = (
    "docs/architecture.md",
    "docs/boundedness.md",
    "docs/degraded-mode.md",
    "docs/observability.md",
    "docs/performance.md",
    "docs/slo.md",
)


def _doc_paths() -> List[str]:
    paths = [os.path.join(REPO_ROOT, name) for name in DOC_FILES]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs_dir):
        paths += [
            os.path.join(docs_dir, name)
            for name in sorted(os.listdir(docs_dir))
            if name.endswith(".md")
        ]
    return [p for p in paths if os.path.isfile(p)]


def check_required_docs() -> List[str]:
    """Every load-bearing docs page exists and is non-empty."""
    errors: List[str] = []
    for rel in REQUIRED_DOCS:
        path = os.path.join(REPO_ROOT, rel)
        if not os.path.isfile(path):
            errors.append(f"required doc {rel} is missing")
        elif os.path.getsize(path) == 0:
            errors.append(f"required doc {rel} is empty")
    return errors


def check_links() -> List[str]:
    """Every relative markdown link resolves to an existing file."""
    errors: List[str] = []
    for path in _doc_paths():
        base = os.path.dirname(path)
        rel_name = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            if not os.path.exists(os.path.join(base, target)):
                errors.append(f"{rel_name}: broken link -> {match.group(1)}")
    return errors


def check_anchors() -> List[str]:
    """Every src/<file>.py:<line> anchor in the docs is accurate."""
    errors: List[str] = []
    for path in _doc_paths():
        rel_name = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for match in _ANCHOR_RE.finditer(text):
            file_rel, line_text, symbol = match.groups()
            line_no = int(line_text)
            file_abs = os.path.join(REPO_ROOT, file_rel)
            if not os.path.isfile(file_abs):
                errors.append(f"{rel_name}: anchor to missing file {file_rel}")
                continue
            with open(file_abs, encoding="utf-8") as handle:
                lines = handle.readlines()
            if not 1 <= line_no <= len(lines):
                errors.append(
                    f"{rel_name}: anchor {file_rel}:{line_no} beyond EOF "
                    f"({len(lines)} lines)"
                )
                continue
            if symbol is None:
                continue
            name = symbol.split(".")[-1]
            pattern = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
            lo = max(0, line_no - 1 - 10)
            hi = min(len(lines), line_no + 10)
            if not any(pattern.match(lines[i]) for i in range(lo, hi)):
                errors.append(
                    f"{rel_name}: anchor {file_rel}:{line_no} — no "
                    f"def/class {name} within ±10 lines"
                )
    return errors


def _resolves(dotted: str) -> bool:
    """Whether *dotted* names a module, or an attribute chain under the
    longest importable module prefix of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def check_references() -> List[str]:
    """Every backticked ``repro.…`` name resolves and every bare
    backticked ``src/…/<file>.py`` path exists."""
    errors: List[str] = []
    for path in _doc_paths():
        rel_name = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for dotted in sorted(set(_DOTTED_RE.findall(text))):
            if not _resolves(dotted):
                errors.append(f"{rel_name}: reference {dotted} does not resolve")
        for file_rel in sorted(set(_SOURCE_PATH_RE.findall(text))):
            if not os.path.isfile(os.path.join(REPO_ROOT, file_rel)):
                errors.append(f"{rel_name}: path {file_rel} does not exist")
    return errors


def check_observability_catalogue() -> List[str]:
    """docs/observability.md and repro.obs.names agree, both ways."""
    from repro.obs import names

    errors: List[str] = []
    doc_path = os.path.join(REPO_ROOT, "docs", "observability.md")
    if not os.path.isfile(doc_path):
        return ["docs/observability.md is missing"]
    with open(doc_path, encoding="utf-8") as handle:
        text = handle.read()

    doc_metrics = set(_METRIC_TOKEN_RE.findall(text))
    for metric in sorted(doc_metrics - names.METRICS):
        errors.append(
            f"docs/observability.md documents unknown metric {metric!r}"
        )
    for metric in sorted(names.METRICS - doc_metrics):
        errors.append(f"metric {metric!r} is not documented")

    # A backticked dotted token counts as a span reference when its
    # first segment matches a catalogued span family (dch, serve, ...).
    span_prefixes = {name.split(".")[0] for name in names.SPANS}
    doc_spans = {
        token
        for token in _SPAN_TOKEN_RE.findall(text)
        if token.split(".")[0] in span_prefixes
    }
    for span_name in sorted(doc_spans - names.SPANS):
        errors.append(
            f"docs/observability.md documents unknown span {span_name!r}"
        )
    for span_name in sorted(names.SPANS - doc_spans):
        errors.append(f"span {span_name!r} is not documented")
    return errors


def check_registry_matches_catalogue() -> List[str]:
    """A fully-wired serving stack registers exactly the catalogued
    metrics: the server's own families plus the SLO engine, flight
    recorder and boundedness sentinel sharing its registry."""
    from repro.core.dynamic import DynamicCH
    from repro.graph.generators import grid_network
    from repro.obs import names
    from repro.obs.flight import FlightRecorder
    from repro.obs.sentinel import BoundednessSentinel, Envelope
    from repro.obs.slo import SLOEngine, default_rules
    from repro.serve.server import DistanceServer

    server = DistanceServer(DynamicCH(grid_network(3, 3, seed=0)), workers=1)
    SLOEngine(server.metrics, default_rules())
    sentinel = BoundednessSentinel(
        Envelope(c_aff=1.0, c_diff=1.0), registry=server.metrics
    )
    FlightRecorder(sentinel=sentinel, registry=server.metrics)
    registered = set(server.metrics.names())
    errors = []
    for metric in sorted(names.METRICS - registered):
        errors.append(f"catalogued metric {metric!r} never registered")
    for metric in sorted(registered - names.METRICS):
        errors.append(f"registered metric {metric!r} not in catalogue")
    with open(os.path.join(REPO_ROOT, "docs", "observability.md"),
              encoding="utf-8") as handle:
        rows = _CATALOGUE_ROW_RE.findall(handle.read())
    for metric, column in rows:
        family = server.metrics.get(metric)
        if family is None:
            continue
        documented = tuple(_LABEL_TOKEN_RE.findall(column))
        if documented != family.label_names:
            errors.append(
                f"docs/observability.md lists labels {documented} for "
                f"{metric!r}, the registry has {family.label_names}"
            )
    return errors


def check_spans_instrumented() -> List[str]:
    """Every span constant is used by instrumentation outside repro.obs."""
    from repro.obs import names as names_module

    constants = {
        attr: value
        for attr, value in vars(names_module).items()
        if attr.startswith("SPAN_") and isinstance(value, str)
    }
    errors: List[str] = []
    if set(constants.values()) != set(names_module.SPANS):
        errors.append("names.SPANS and the SPAN_* constants disagree")

    src_root = os.path.join(REPO_ROOT, "src", "repro")
    used = set()
    for dirpath, _dirs, files in os.walk(src_root):
        if os.path.basename(dirpath) == "obs":
            continue
        for file_name in files:
            if not file_name.endswith(".py"):
                continue
            with open(os.path.join(dirpath, file_name), encoding="utf-8") as handle:
                content = handle.read()
            for attr in constants:
                if f"names.{attr}" in content:
                    used.add(attr)
    for attr in sorted(set(constants) - used):
        errors.append(f"span constant names.{attr} is never opened by any hot path")
    return errors


def run_all() -> List[str]:
    """Run every check; return the combined error list."""
    errors: List[str] = []
    errors += check_required_docs()
    errors += check_links()
    errors += check_anchors()
    errors += check_references()
    errors += check_observability_catalogue()
    errors += check_registry_matches_catalogue()
    errors += check_spans_instrumented()
    return errors


def main() -> int:
    errors = run_all()
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print(
        "docs OK: links, anchors, references and observability catalogue "
        "all consistent"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
