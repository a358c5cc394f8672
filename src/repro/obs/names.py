"""The canonical catalogue of metric and span names.

Every metric the library registers and every span the hot paths open is
named here, once — the instrumentation imports these constants instead
of repeating string literals, and the docs checker
(``tools/check_docs.py``) verifies that every name documented in
``docs/observability.md`` resolves to an entry of this catalogue (and
vice versa).  Adding a metric or span therefore means: add the constant
here, use it in code, document it — or CI fails.

Naming conventions
------------------
* Metrics follow Prometheus style: ``repro_<layer>_<noun>[_<unit>]``
  with ``_total`` for counters, ``_seconds`` for latency histograms.
* Spans are dotted lowercase paths ``<algorithm>.<direction>[.<phase>]``
  mirroring the paper's algorithm structure (e.g. ``dch.increase.seed``
  is lines 2-6 of Algorithm 2, ``dch.increase.propagate`` lines 7-13).
"""

from __future__ import annotations

__all__ = [
    "METRICS",
    "SERVER_METRICS",
    "SLO_METRICS",
    "OBS_METRICS",
    "SPANS",
]

# ----------------------------------------------------------------------
# Serving-layer metrics (registered by repro.serve.server.DistanceServer)
# ----------------------------------------------------------------------
SERVE_QUERIES = "repro_serve_queries_total"
SERVE_QUERY_LATENCY = "repro_serve_query_latency_seconds"
SERVE_PUBLISHES = "repro_serve_publishes_total"
SERVE_PUBLISH_DURATION = "repro_serve_publish_duration_seconds"
SERVE_EPOCH = "repro_serve_epoch"
SERVE_CACHE_ENTRIES = "repro_serve_cache_entries"
SERVE_CACHE_CAPACITY = "repro_serve_cache_capacity"
SERVE_CACHE_EVICTED = "repro_serve_cache_evicted_total"
SERVE_CACHE_CARRIED = "repro_serve_cache_carried_total"
SERVE_SNAPSHOT_PINS = "repro_serve_snapshot_pins_total"
SERVE_AFFECTED_VERTICES = "repro_serve_affected_vertices"

# Degraded-tier metrics (docs/degraded-mode.md): the admission-control
# state machine, the deferral journal and the coalescer's per-apply
# counters, all registered by DistanceServer.
SERVE_STATE = "repro_serve_state"
SERVE_EPSILON = "repro_serve_epsilon"
SERVE_DEFERRED_EDGES = "repro_serve_deferred_edges"
SERVE_DEFERRAL_ACTIONS = "repro_serve_deferral_actions_total"
SERVE_PENDING_BATCHES = "repro_serve_pending_batches"
SERVE_PENDING_AGE = "repro_serve_pending_age_seconds"
SERVE_COALESCE_SUPERSEDED = "repro_serve_coalesce_superseded_total"
SERVE_COALESCE_DROPPED = "repro_serve_coalesce_dropped_total"

#: Metrics registered by :class:`repro.serve.server.DistanceServer`.
SERVER_METRICS = frozenset(
    {
        SERVE_QUERIES,
        SERVE_QUERY_LATENCY,
        SERVE_PUBLISHES,
        SERVE_PUBLISH_DURATION,
        SERVE_EPOCH,
        SERVE_CACHE_ENTRIES,
        SERVE_CACHE_CAPACITY,
        SERVE_CACHE_EVICTED,
        SERVE_CACHE_CARRIED,
        SERVE_SNAPSHOT_PINS,
        SERVE_AFFECTED_VERTICES,
        SERVE_STATE,
        SERVE_EPSILON,
        SERVE_DEFERRED_EDGES,
        SERVE_DEFERRAL_ACTIONS,
        SERVE_PENDING_BATCHES,
        SERVE_PENDING_AGE,
        SERVE_COALESCE_SUPERSEDED,
        SERVE_COALESCE_DROPPED,
    }
)

# ----------------------------------------------------------------------
# SLO-engine metrics (registered by repro.obs.slo.SLOEngine, docs/slo.md)
# ----------------------------------------------------------------------
SLO_OK = "repro_slo_ok"
SLO_VALUE = "repro_slo_value"
SLO_BURN_RATE = "repro_slo_burn_rate"

#: Metrics registered by :class:`repro.obs.slo.SLOEngine`.
SLO_METRICS = frozenset({SLO_OK, SLO_VALUE, SLO_BURN_RATE})

# ----------------------------------------------------------------------
# Self-watching obs metrics (flight recorder + boundedness sentinel)
# ----------------------------------------------------------------------
OBS_FLIGHT_DUMPS = "repro_obs_flight_dumps_total"
OBS_SENTINEL_CHECKS = "repro_obs_sentinel_checks_total"
OBS_SENTINEL_VIOLATIONS = "repro_obs_sentinel_violations_total"
OBS_SENTINEL_WORST_RATIO = "repro_obs_sentinel_worst_ratio"

#: Metrics registered by FlightRecorder / BoundednessSentinel when given
#: a registry.
OBS_METRICS = frozenset(
    {
        OBS_FLIGHT_DUMPS,
        OBS_SENTINEL_CHECKS,
        OBS_SENTINEL_VIOLATIONS,
        OBS_SENTINEL_WORST_RATIO,
    }
)

#: Every metric name the library itself registers.
METRICS = SERVER_METRICS | SLO_METRICS | OBS_METRICS

# ----------------------------------------------------------------------
# Maintenance spans (one per algorithm/direction, plus per-phase spans)
# ----------------------------------------------------------------------
SPAN_DCH_INCREASE = "dch.increase"
SPAN_DCH_INCREASE_SEED = "dch.increase.seed"
SPAN_DCH_INCREASE_PROPAGATE = "dch.increase.propagate"
SPAN_DCH_DECREASE = "dch.decrease"
SPAN_DCH_DECREASE_SEED = "dch.decrease.seed"
SPAN_DCH_DECREASE_PROPAGATE = "dch.decrease.propagate"

SPAN_INCH2H_INCREASE = "inch2h.increase"
SPAN_INCH2H_INCREASE_SEED = "inch2h.increase.seed"
SPAN_INCH2H_INCREASE_PROPAGATE = "inch2h.increase.propagate"
SPAN_INCH2H_DECREASE = "inch2h.decrease"
SPAN_INCH2H_DECREASE_SEED = "inch2h.decrease.seed"
SPAN_INCH2H_DECREASE_PROPAGATE = "inch2h.decrease.propagate"

SPAN_PARINCH2H_SIMULATE = "parinch2h.simulate"

SPAN_DIRECTED_DCH_INCREASE = "directed.dch.increase"
SPAN_DIRECTED_DCH_DECREASE = "directed.dch.decrease"
SPAN_DIRECTED_INCH2H_INCREASE = "directed.inch2h.increase"
SPAN_DIRECTED_INCH2H_DECREASE = "directed.inch2h.decrease"

SPAN_SERVE_QUERY = "serve.query"
SPAN_SERVE_QUERY_MANY = "serve.query_many"
SPAN_SERVE_APPLY = "serve.apply"
SPAN_SERVE_COALESCE = "serve.coalesce"
SPAN_SERVE_PUBLISH = "serve.publish"
SPAN_SERVE_CATCHUP = "serve.catchup"

SPAN_DEGRADE_CLASSIFY = "degrade.classify"

SPAN_RESILIENT_FALLBACK = "resilient.fallback"

#: Every span name the library itself opens.
SPANS = frozenset(
    {
        SPAN_DCH_INCREASE,
        SPAN_DCH_INCREASE_SEED,
        SPAN_DCH_INCREASE_PROPAGATE,
        SPAN_DCH_DECREASE,
        SPAN_DCH_DECREASE_SEED,
        SPAN_DCH_DECREASE_PROPAGATE,
        SPAN_INCH2H_INCREASE,
        SPAN_INCH2H_INCREASE_SEED,
        SPAN_INCH2H_INCREASE_PROPAGATE,
        SPAN_INCH2H_DECREASE,
        SPAN_INCH2H_DECREASE_SEED,
        SPAN_INCH2H_DECREASE_PROPAGATE,
        SPAN_PARINCH2H_SIMULATE,
        SPAN_DIRECTED_DCH_INCREASE,
        SPAN_DIRECTED_DCH_DECREASE,
        SPAN_DIRECTED_INCH2H_INCREASE,
        SPAN_DIRECTED_INCH2H_DECREASE,
        SPAN_SERVE_QUERY,
        SPAN_SERVE_QUERY_MANY,
        SPAN_SERVE_APPLY,
        SPAN_SERVE_COALESCE,
        SPAN_SERVE_PUBLISH,
        SPAN_SERVE_CATCHUP,
        SPAN_DEGRADE_CLASSIFY,
        SPAN_RESILIENT_FALLBACK,
    }
)
