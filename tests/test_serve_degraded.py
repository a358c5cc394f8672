"""Overload-aware admission control on the serving layer.

Drives :class:`DistanceServer` with a :class:`DegradePolicy` through
the full degraded → catch-up → healthy cycle (docs/degraded-mode.md):
watermark hysteresis on the offer/pump ingress queue, bounded-stretch
answers while deltas are parked, the new obs metrics, the per-apply
coalesce counters, and a small :func:`overload_bench` end-to-end run.
"""

from __future__ import annotations

import pytest

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.core.oracle import DijkstraOracle
from repro.obs import names
from repro.reliability import DegradePolicy, OracleState, check_stretch
from repro.serve.bench import BenchConfig, overload_bench
from repro.serve.server import DistanceServer

from conftest import random_pairs


def policy(**kwargs):
    defaults = dict(
        threshold_c=1.5,
        high_watermark=3,
        low_watermark=1,
        max_batch_age_s=3600.0,
    )
    defaults.update(kwargs)
    return DegradePolicy(**defaults)


def minor_batches(graph, count, per_batch, factor=1.2):
    """Batches on distinct edges so deviations never compound."""
    edges = list(graph.edges())
    assert len(edges) >= count * per_batch
    batches = []
    for i in range(count):
        chunk = edges[i * per_batch : (i + 1) * per_batch]
        batches.append([((u, v), w * factor) for u, v, w in chunk])
    return batches


class TestAdmissionControl:
    def test_offer_pump_require_policy(self, small_grid):
        with DistanceServer(DynamicCH(small_grid), workers=1) as server:
            with pytest.raises(RuntimeError):
                server.offer([])
            with pytest.raises(RuntimeError):
                server.pump()

    @pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
    def test_watermark_hysteresis_cycle(self, small_grid, oracle_cls):
        truth = small_grid.copy()
        batches = minor_batches(truth, 5, 2)
        for batch in batches:
            truth.apply_batch(batch)
        ground = DijkstraOracle(truth)
        pairs = random_pairs(truth.n, 15, seed=3)

        with DistanceServer(
            oracle_cls(small_grid.copy()), workers=1, degrade=policy()
        ) as server:
            assert server.state is OracleState.HEALTHY
            for batch in batches:
                server.offer(batch)
            epoch_before = server.epoch

            # Depth 5 >= high watermark 3: degraded pumps park everything.
            degraded = [server.pump() for _ in range(3)]
            assert all(
                r.state == OracleState.DEGRADED_BOUNDED.value for r in degraded
            )
            assert sum(r.deferred for r in degraded) == 6
            assert server.epoch == epoch_before  # nothing published
            assert server.overloaded
            assert 0.0 < server.epsilon <= 0.5

            # Stamped answers stay inside their own envelope meanwhile.
            for s, t in pairs:
                stamped = server.distance_bounded(s, t)
                assert check_stretch(
                    stamped.distance, ground.distance(s, t), stamped.max_stretch
                )

            # Depth falls to the low watermark: this pump is the catch-up.
            caught = server.pump()
            assert caught.caught_up == 6
            assert caught.state == OracleState.HEALTHY.value
            assert not server.overloaded
            assert server.epsilon == 0.0
            assert server.epoch > epoch_before

            # The last batch goes through the normal exact publish.
            final = server.pump()
            assert final.state == OracleState.HEALTHY.value
            assert final.caught_up == 0 and final.deferred == 0
            assert server.pump() is None

            for s, t in pairs:
                assert check_stretch(
                    server.distance(s, t), ground.distance(s, t), 0.0
                )

    def test_drain_folds_trailing_journal(self, small_grid):
        truth = small_grid.copy()
        batches = minor_batches(truth, 4, 2)
        for batch in batches:
            truth.apply_batch(batch)
        with DistanceServer(
            DynamicCH(small_grid.copy()),
            workers=1,
            degrade=policy(high_watermark=2, low_watermark=0),
        ) as server:
            for batch in batches:
                server.offer(batch)
            reports = server.drain()
            # Every offered delta landed: the journal is empty and the
            # final state is healthy and exact.
            assert server.deferral.pending == 0
            assert server.state is OracleState.HEALTHY
            assert any(r.caught_up for r in reports)
            ground = DijkstraOracle(truth)
            for s, t in random_pairs(truth.n, 12, seed=5):
                assert check_stretch(
                    server.distance(s, t), ground.distance(s, t), 0.0
                )

    def test_direct_apply_also_admission_controlled(self, small_grid):
        """apply() on a degrade-enabled server routes through the same
        watermarks — with an empty ingress queue that means exact."""
        truth = small_grid.copy()
        batch = minor_batches(truth, 1, 2)[0]
        truth.apply_batch(batch)
        with DistanceServer(
            DynamicCH(small_grid.copy()), workers=1, degrade=policy()
        ) as server:
            report = server.apply(batch)
            assert report.state == OracleState.HEALTHY.value
            assert server.deferral.pending == 0
            ground = DijkstraOracle(truth)
            for s, t in random_pairs(truth.n, 8, seed=7):
                assert check_stretch(
                    server.distance(s, t), ground.distance(s, t), 0.0
                )


class TestLastWriteWinsAcrossDeferral:
    """Reverts of parked deltas must win over the journal (the raw
    stream's last write), whichever path — degraded apply, catch-up
    fold, or apply() racing an offered backlog — carries them."""

    def test_revert_cancels_while_still_overloaded(self, small_grid):
        """A revert arriving in degraded mode must survive coalescing
        (which runs against the journal's effective weights, not the
        stale served snapshot) and cancel the parked entry."""
        truth = small_grid.copy()
        edges = list(truth.edges())
        (u, v, w) = edges[0]
        (u2, v2, w2) = edges[1]
        with DistanceServer(
            DynamicCH(small_grid.copy()),
            workers=1,
            degrade=policy(high_watermark=2, low_watermark=0),
        ) as server:
            server.offer([((u, v), w * 1.2)])  # parked while overloaded
            server.offer([((u, v), w)])  # revert to the served weight
            server.offer([((u2, v2), w2 * 1.2)])  # keeps the queue deep

            parked = server.pump()
            assert parked.deferred == 1
            assert server.deferral.pending == 1

            reverted = server.pump()
            assert reverted.deferred == 0
            assert server.deferral.pending == 0  # entry cancelled
            assert server.epsilon == 0.0
            actions = server.metrics.get(names.SERVE_DEFERRAL_ACTIONS)
            assert actions.value(action="defer") == 1
            assert actions.value(action="cancel") == 1

            server.drain()
            assert server.snapshot().graph.weight(u, v) == pytest.approx(w)
            truth.apply_batch([((u2, v2), w2 * 1.2)])
            ground = DijkstraOracle(truth)
            for s, t in random_pairs(truth.n, 10, seed=9):
                assert check_stretch(
                    server.distance(s, t), ground.distance(s, t), 0.0
                )

    def test_revert_wins_in_catch_up_fold(self, small_grid):
        """When the revert batch itself triggers the catch-up, the fold
        must end on the reverted (original) weight — not the parked
        target it supersedes."""
        (u, v, w) = next(iter(small_grid.edges()))
        with DistanceServer(
            DynamicCH(small_grid.copy()),
            workers=1,
            degrade=policy(high_watermark=2, low_watermark=0),
        ) as server:
            server.offer([((u, v), w * 1.2)])
            server.offer([((u, v), w)])
            parked = server.pump()
            assert parked.deferred == 1

            caught = server.pump()  # depth hits the low watermark
            assert caught.state == OracleState.HEALTHY.value
            assert server.deferral.pending == 0
            assert server.epsilon == 0.0
            assert server.snapshot().graph.weight(u, v) == pytest.approx(w)
            ground = DijkstraOracle(small_grid)  # truth == original graph
            for s, t in random_pairs(small_grid.n, 10, seed=11):
                assert check_stretch(
                    server.distance(s, t), ground.distance(s, t), 0.0
                )

    def test_apply_drains_offered_backlog_first(self, small_grid):
        """apply() must not jump ahead of batches already offer()ed:
        the queue drains in arrival order, so the apply()'s (newer)
        write to the same edge wins."""
        (u, v, w) = next(iter(small_grid.edges()))
        with DistanceServer(
            DynamicCH(small_grid.copy()), workers=1, degrade=policy()
        ) as server:
            server.offer([((u, v), w * 1.2)])
            report = server.apply([((u, v), w * 1.4)])
            assert report.epoch == server.epoch  # the last batch's report
            assert server.stats()["degraded"]["pending_batches"] == 0
            assert server.snapshot().graph.weight(u, v) == pytest.approx(
                w * 1.4
            )


class TestDegradedObservability:
    def test_metrics_track_the_cycle(self, small_grid):
        batches = minor_batches(small_grid, 5, 2)
        with DistanceServer(
            DynamicCH(small_grid.copy()), workers=1, degrade=policy()
        ) as server:
            metrics = server.metrics
            # Registered (at zero) from construction, not first use.
            for name in (
                names.SERVE_STATE,
                names.SERVE_EPSILON,
                names.SERVE_DEFERRED_EDGES,
                names.SERVE_DEFERRAL_ACTIONS,
                names.SERVE_PENDING_BATCHES,
                names.SERVE_PENDING_AGE,
            ):
                assert metrics.get(name) is not None

            for batch in batches:
                server.offer(batch)
            assert metrics.get(names.SERVE_PENDING_BATCHES).value() == 5

            for _ in range(3):
                server.pump()
            assert metrics.get(names.SERVE_STATE).value() == 1
            assert metrics.get(names.SERVE_EPSILON).value() > 0
            assert metrics.get(names.SERVE_DEFERRED_EDGES).value() == 6
            actions = metrics.get(names.SERVE_DEFERRAL_ACTIONS)
            assert actions.value(action="defer") == 6
            assert actions.value(action="catchup") == 0

            server.drain()
            assert metrics.get(names.SERVE_STATE).value() == 0
            assert metrics.get(names.SERVE_EPSILON).value() == 0
            assert metrics.get(names.SERVE_DEFERRED_EDGES).value() == 0
            assert metrics.get(names.SERVE_PENDING_BATCHES).value() == 0
            assert actions.value(action="catchup") == 6

    def test_stats_degraded_block(self, small_grid):
        with DistanceServer(
            DynamicCH(small_grid.copy()), workers=1, degrade=policy()
        ) as server:
            for batch in minor_batches(small_grid, 4, 2):
                server.offer(batch)
            server.pump()
            block = server.stats()["degraded"]
            assert block["state"] == OracleState.DEGRADED_BOUNDED.value
            assert block["overloaded"] is True
            assert block["pending_batches"] == 3
            assert block["pending"] == 2
            assert block["counters"]["defer"] == 2
            assert 0.0 < block["epsilon"] <= 0.5

    def test_coalesce_counters_surfaced_per_apply(self, small_grid):
        edges = list(small_grid.edges())
        (u1, v1, w1), (u2, v2, w2) = edges[0], edges[1]
        with DistanceServer(DynamicCH(small_grid.copy()), workers=1) as server:
            report = server.apply(
                [((u1, v1), w1 * 2), ((u1, v1), w1 * 3), ((u2, v2), w2)]
            )
            assert report.superseded == 1  # first write to (u1, v1) absorbed
            assert report.dropped == 1  # (u2, v2) was a net no-op
            metrics = server.metrics
            assert metrics.get(names.SERVE_COALESCE_SUPERSEDED).value() == 1
            assert metrics.get(names.SERVE_COALESCE_DROPPED).value() == 1

    def test_bounded_stamp_exact_when_healthy(self, small_grid):
        with DistanceServer(
            DynamicCH(small_grid.copy()), workers=1, degrade=policy()
        ) as server:
            stamped = server.distance_bounded(0, small_grid.n - 1)
            assert stamped.exact
            assert stamped.lower == stamped.upper == stamped.distance

    def test_bounded_stamp_versioned_with_snapshot(self, small_grid):
        """ε rides on the snapshot that served the answer: a catch-up
        publish concurrent with a read must not let a stale-snapshot
        answer be stamped exact (ε read from a zeroed global)."""
        batches = minor_batches(small_grid, 5, 2)
        with DistanceServer(
            DynamicCH(small_grid.copy()), workers=1, degrade=policy()
        ) as server:
            for batch in batches:
                server.offer(batch)
            for _ in range(3):
                server.pump()  # degraded: parks without publishing
            pinned = server.snapshot()
            assert pinned.epsilon == pytest.approx(server.epsilon)
            assert pinned.epsilon > 0.0
            stamped = server.distance_bounded(0, small_grid.n - 1)
            assert stamped.max_stretch == pinned.epsilon

            server.drain()  # catch-up: the new snapshot is exact again
            assert server.snapshot().epsilon == 0.0
            assert server.distance_bounded(0, small_grid.n - 1).exact
            # The retired snapshot keeps the ε it served under, so an
            # answer stamped from it before the publish stays bounded.
            assert pinned.epsilon > 0.0


class TestOverloadBench:
    @pytest.mark.slow
    def test_small_end_to_end_run(self):
        config = BenchConfig(
            oracle="h2h",
            vertices=80,
            seed=5,
            queries=20,
            repeats=2,
            updates=1,
            workers=1,
            overload_batches=8,
            overload_batch=4,
            stretch_queries=45,
            high_watermark=3,
            low_watermark=1,
        )
        result = overload_bench(config)
        assert result.degraded_updates > 0
        assert result.caught_up > 0
        assert result.total_violations == 0
        assert result.max_epsilon <= result.epsilon_budget + 1e-9
        # Degraded admission skipped at least one publish.
        assert result.degraded_publishes < config.overload_batches
        record = result.to_bench_record()
        assert record.name == "serve_degraded"
        assert record.throughput_qps == pytest.approx(
            result.degraded_updates_per_s
        )
        assert record.extra["max_epsilon"] == result.max_epsilon
