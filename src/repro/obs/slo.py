"""Declarative SLO rules evaluated from a :class:`MetricsRegistry`.

The serving layer's health contract, written down as data: each
:class:`SLORule` names a metric, an objective and how to judge it, and
the :class:`SLOEngine` evaluates the whole rule set against a live (or
restored) registry — surfacing the verdicts as ``repro_slo_*`` gauges,
keeping a transition history, and powering ``repro obs slo`` (exit 3
while any rule fires).  See ``docs/slo.md`` for the rule syntax.

Three rule kinds:

* ``quantile_max`` — a histogram quantile must stay at or below
  *objective* (e.g. p99 query latency ≤ 50 ms);
* ``gauge_max`` — a gauge must stay at or below *objective* (e.g.
  snapshot staleness age, ε, deferral depth, ingress backlog);
* ``burn_rate`` — multi-window burn-rate alerting over counters: the
  bad-event fraction ``Δbad / Δtotal``, expressed as a multiple of the
  error *budget*, must stay at or below *factor* in **both** a short
  and a long sliding window (the classic fast-burn pager rule: the
  long window proves it is real, the short window proves it is still
  happening — which is also what makes the alert *clear* quickly after
  a catch-up).

Burn-rate windows need history: call :meth:`SLOEngine.tick`
periodically (the overload bench does, once per pump) so the engine
can sample counters into its sliding window.  ``quantile_max`` /
``gauge_max`` rules are instantaneous and work on a single restored
snapshot — which is how the CLI judges a ``serve-bench --metrics``
file after the fact.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from time import monotonic
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs import names
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "SLORule",
    "SLOStatus",
    "SLOEngine",
    "default_rules",
    "rules_from_json",
    "load_rules",
]

_KINDS = ("quantile_max", "gauge_max", "burn_rate")


@dataclass(frozen=True)
class SLORule:
    """One declarative SLO rule (docs/slo.md)."""

    name: str
    kind: str
    metric: str
    objective: float
    description: str = ""
    #: quantile_max only: which quantile of the histogram to judge.
    quantile: float = 0.99
    #: Child selector for the metric (empty = sum/merge across children).
    labels: Tuple[Tuple[str, str], ...] = ()
    # burn_rate only ----------------------------------------------------
    #: Denominator counter (the traffic the budget is a fraction of).
    total_metric: str = ""
    total_labels: Tuple[Tuple[str, str], ...] = ()
    #: Allowed bad-event fraction (0.01 = 1% error budget).
    budget: float = 0.01
    short_window_s: float = 60.0
    long_window_s: float = 600.0
    #: Burn-rate multiple that fires (both windows must exceed it).
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ReproError(
                f"SLO rule {self.name!r}: unknown kind {self.kind!r} "
                f"(pick one of {_KINDS})"
            )
        if not self.name:
            raise ReproError("SLO rule needs a non-empty name")
        if self.kind == "quantile_max" and not 0.0 <= self.quantile <= 1.0:
            raise ReproError(
                f"SLO rule {self.name!r}: quantile must be in [0, 1]"
            )
        if self.kind == "burn_rate":
            if not self.total_metric:
                raise ReproError(
                    f"SLO rule {self.name!r}: burn_rate needs total_metric"
                )
            if self.budget <= 0:
                raise ReproError(
                    f"SLO rule {self.name!r}: budget must be positive"
                )
            if self.short_window_s >= self.long_window_s:
                raise ReproError(
                    f"SLO rule {self.name!r}: short window must be shorter "
                    "than the long window"
                )

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "objective": self.objective,
            "description": self.description,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        if self.kind == "quantile_max":
            out["quantile"] = self.quantile
        if self.kind == "burn_rate":
            out.update(
                total_metric=self.total_metric,
                total_labels=dict(self.total_labels),
                budget=self.budget,
                short_window_s=self.short_window_s,
                long_window_s=self.long_window_s,
                factor=self.factor,
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SLORule":
        if not isinstance(data, dict):
            raise ReproError(f"SLO rule must be an object, got {data!r}")
        known = {
            "name", "kind", "metric", "objective", "description",
            "quantile", "labels", "total_metric", "total_labels",
            "budget", "short_window_s", "long_window_s", "factor",
        }
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"SLO rule {data.get('name', '?')!r}: unknown keys "
                f"{sorted(unknown)}"
            )
        for required in ("name", "kind", "metric", "objective"):
            if required not in data:
                raise ReproError(
                    f"SLO rule {data.get('name', '?')!r}: missing {required!r}"
                )
        kwargs = dict(data)
        kwargs["labels"] = tuple(sorted(dict(data.get("labels", {})).items()))
        kwargs["total_labels"] = tuple(
            sorted(dict(data.get("total_labels", {})).items())
        )
        kwargs["objective"] = float(data["objective"])
        return cls(**kwargs)


@dataclass
class SLOStatus:
    """One rule's verdict at one evaluation instant."""

    rule: SLORule
    value: float  #: measured quantity (quantile / gauge / gating burn rate)
    firing: bool
    reason: str = ""
    #: burn_rate only: per-window burn-rate multiples.
    windows: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "kind": self.rule.kind,
            "value": self.value,
            "objective": self.rule.objective,
            "firing": self.firing,
            "reason": self.reason,
            "windows": dict(self.windows),
        }


def default_rules() -> List[SLORule]:
    """The built-in serving SLOs (docs/slo.md documents each)."""
    return [
        SLORule(
            name="query-latency-p99",
            kind="quantile_max",
            metric=names.SERVE_QUERY_LATENCY,
            quantile=0.99,
            objective=0.05,
            description="p99 served query latency stays under 50 ms",
        ),
        SLORule(
            name="snapshot-staleness",
            kind="gauge_max",
            metric=names.SERVE_PENDING_AGE,
            objective=30.0,
            description="no offered batch waits more than 30 s unapplied",
        ),
        SLORule(
            name="epsilon-exact",
            kind="gauge_max",
            metric=names.SERVE_EPSILON,
            objective=0.0,
            description="served answers are exact (stretch bound ε == 0)",
        ),
        SLORule(
            name="deferred-journal-empty",
            kind="gauge_max",
            metric=names.SERVE_DEFERRED_EDGES,
            objective=0.0,
            description="no deltas parked in the deferral journal",
        ),
        SLORule(
            name="ingress-backlog",
            kind="gauge_max",
            metric=names.SERVE_PENDING_BATCHES,
            objective=8.0,
            description="admission backlog stays under 8 batches",
        ),
    ]


def rules_from_json(data: object) -> List[SLORule]:
    """Parse a JSON rule list (see docs/slo.md for the syntax)."""
    if not isinstance(data, list):
        raise ReproError("SLO rules file must hold a JSON array of rules")
    rules = [SLORule.from_dict(entry) for entry in data]
    seen = set()
    for rule in rules:
        if rule.name in seen:
            raise ReproError(f"duplicate SLO rule name {rule.name!r}")
        seen.add(rule.name)
    return rules


def load_rules(path: str) -> List[SLORule]:
    """Load SLO rules from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        return rules_from_json(json.load(handle))


class SLOEngine:
    """Evaluates a rule set against a registry; keeps burn-rate history.

    The engine registers its own verdict gauges in the same registry it
    watches — ``repro_slo_ok{rule}``, ``repro_slo_value{rule}`` and
    ``repro_slo_burn_rate{rule,window}`` — so one metrics snapshot
    carries both the raw signals and the judged SLO state.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: Optional[List[SLORule]] = None,
    ) -> None:
        self.registry = registry
        self.rules = list(rules) if rules is not None else default_rules()
        self._m_ok = registry.gauge(
            names.SLO_OK,
            "1 while the SLO rule holds, 0 while it fires.",
            ("rule",),
        )
        self._m_value = registry.gauge(
            names.SLO_VALUE,
            "The measured quantity each SLO rule judges.",
            ("rule",),
        )
        self._m_burn = registry.gauge(
            names.SLO_BURN_RATE,
            "Burn-rate multiple of the error budget, per rule and window.",
            ("rule", "window"),
        )
        #: (ts, {rule.name: (bad, total)}) samples for burn-rate windows.
        self._samples: Deque[Tuple[float, Dict[str, Tuple[float, float]]]] = (
            deque()
        )
        self._firing: Dict[str, bool] = {}
        #: Transition log: dicts with ts / rule / event ("fire"|"clear") / value.
        self.transitions: List[dict] = []
        for rule in self.rules:
            self._m_ok.set(1, rule=rule.name)
            self._m_value.set(0.0, rule=rule.name)

    # -- metric access ---------------------------------------------------
    def _counter_value(
        self, metric: str, labels: Tuple[Tuple[str, str], ...]
    ) -> float:
        """A counter/gauge child (or the family total without *labels*);
        0.0 for a family the registry does not hold.

        A selector must name exactly the family's labels: a selector
        that can never match is a broken rule, not a quiet zero.
        """
        family = self.registry.get(metric)
        if not isinstance(family, (Counter, Gauge)):
            return 0.0
        if not labels:
            return family.total()
        selected = dict(labels)
        if set(selected) != set(family.label_names):
            raise ReproError(
                f"SLO selector {selected} does not match {metric}, "
                f"whose labels are {family.label_names}"
            )
        return family.value(**selected)

    # -- sampling --------------------------------------------------------
    def tick(self, now: Optional[float] = None) -> List[SLOStatus]:
        """Sample counters for the burn-rate windows, then evaluate.

        Call this periodically (per pump / per scrape).  *now* is
        injectable for deterministic tests; it must be monotone across
        calls.
        """
        now = monotonic() if now is None else now
        burn_rules = [r for r in self.rules if r.kind == "burn_rate"]
        if burn_rules:
            sample = {
                rule.name: (
                    self._counter_value(rule.metric, rule.labels),
                    self._counter_value(rule.total_metric, rule.total_labels),
                )
                for rule in burn_rules
            }
            self._samples.append((now, sample))
            horizon = now - max(r.long_window_s for r in burn_rules)
            while len(self._samples) > 1 and self._samples[1][0] <= horizon:
                self._samples.popleft()
        return self.evaluate(now)

    # -- evaluation ------------------------------------------------------
    def evaluate(self, now: Optional[float] = None) -> List[SLOStatus]:
        """Judge every rule right now; updates gauges and transitions."""
        now = monotonic() if now is None else now
        statuses = [self._evaluate_rule(rule, now) for rule in self.rules]
        for status in statuses:
            rule = status.rule
            self._m_ok.set(0 if status.firing else 1, rule=rule.name)
            self._m_value.set(status.value, rule=rule.name)
            for window, burn in status.windows.items():
                self._m_burn.set(burn, rule=rule.name, window=window)
            was_firing = self._firing.get(rule.name, False)
            if status.firing != was_firing:
                self._firing[rule.name] = status.firing
                self.transitions.append(
                    {
                        "ts": now,
                        "rule": rule.name,
                        "event": "fire" if status.firing else "clear",
                        "value": status.value,
                        "reason": status.reason,
                    }
                )
        return statuses

    def _evaluate_rule(self, rule: SLORule, now: float) -> SLOStatus:
        if rule.kind == "quantile_max":
            family = self.registry.get(rule.metric)
            value = (
                family.quantile(rule.quantile)
                if isinstance(family, Histogram)
                else float("nan")
            )
            if value != value:
                # Missing family or empty histogram (NaN quantile): no
                # data is not a violation.
                return SLOStatus(rule, 0.0, False, reason="no data")
            firing = value > rule.objective
            return SLOStatus(
                rule,
                value,
                firing,
                reason=(
                    f"p{rule.quantile * 100:g} = {value:.6g} "
                    f"{'>' if firing else '<='} {rule.objective:.6g}"
                ),
            )
        if rule.kind == "gauge_max":
            family = self.registry.get(rule.metric)
            if not isinstance(family, (Gauge, Counter)):
                return SLOStatus(rule, 0.0, False, reason="no data")
            value = self._counter_value(rule.metric, rule.labels)
            firing = value > rule.objective
            return SLOStatus(
                rule,
                value,
                firing,
                reason=(
                    f"value {value:.6g} "
                    f"{'>' if firing else '<='} {rule.objective:.6g}"
                ),
            )
        return self._evaluate_burn(rule, now)

    def _burn_in_window(
        self, rule: SLORule, now: float, window_s: float
    ) -> float:
        """Burn-rate multiple over the trailing *window_s* seconds.

        The baseline is the newest sample at or before the window
        start; with no sample that old (engine younger than the
        window), counters are assumed to have started at zero — which
        makes a fresh engine judge the lifetime fraction, the right
        degenerate behaviour for one-shot snapshot evaluation.
        """
        if not self._samples:
            return 0.0
        cur_bad, cur_total = self._samples[-1][1].get(rule.name, (0.0, 0.0))
        base_bad = base_total = 0.0
        start = now - window_s
        for ts, sample in self._samples:
            if ts > start:
                break
            base_bad, base_total = sample.get(rule.name, (0.0, 0.0))
        delta_bad = max(0.0, cur_bad - base_bad)
        delta_total = max(0.0, cur_total - base_total)
        if delta_total <= 0:
            return 0.0
        return (delta_bad / delta_total) / rule.budget

    def _evaluate_burn(self, rule: SLORule, now: float) -> SLOStatus:
        short = self._burn_in_window(rule, now, rule.short_window_s)
        long_ = self._burn_in_window(rule, now, rule.long_window_s)
        gating = min(short, long_)  # both windows must exceed the factor
        firing = short > rule.factor and long_ > rule.factor
        return SLOStatus(
            rule,
            gating,
            firing,
            reason=(
                f"burn short={short:.3g}x long={long_:.3g}x "
                f"{'>' if firing else '<='} {rule.factor:g}x budget"
            ),
            windows={"short": short, "long": long_},
        )

    # -- rollups ---------------------------------------------------------
    def firing(self) -> List[SLOStatus]:
        """The currently firing rules (evaluates first)."""
        return [s for s in self.evaluate() if s.firing]

    def report(self) -> dict:
        """A JSON-able rollup: rules, current verdicts, transitions."""
        statuses = self.evaluate()
        return {
            "rules": [rule.as_dict() for rule in self.rules],
            "status": [status.as_dict() for status in statuses],
            "firing": [s.rule.name for s in statuses if s.firing],
            "transitions": list(self.transitions),
        }
