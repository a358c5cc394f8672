"""Fault-injection battery: the acceptance scenario of the reliability layer.

With a seeded :class:`FaultInjector` failing update batches, truncating
snapshot files and corrupting archive bytes, the :class:`ResilientOracle`
must never return a distance that disagrees with ground-truth Dijkstra,
and snapshot + WAL recovery must reproduce the exact pre-crash index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.core.oracle import DijkstraOracle, DistanceOracle
from repro.errors import RecoveryError
from repro.persist import load_index, save_index
from repro.reliability import (
    FaultInjector,
    InjectedFault,
    ReliableStore,
    ResilientOracle,
)
from repro.workloads.updates import sample_edges

from conftest import random_pairs


def scaled_batch(graph, count, factor, seed):
    edges = sample_edges(graph, count, seed=seed)
    return [((u, v), w * factor) for u, v, w in edges]


def assert_matches_dijkstra(oracle, pairs):
    ground = DijkstraOracle(oracle.graph)
    for s, t in pairs:
        assert oracle.distance(s, t) == ground.distance(s, t)


class TestResilientOracleProtocol:
    def test_implements_distance_oracle(self, small_grid):
        oracle = ResilientOracle(DynamicCH(small_grid))
        assert isinstance(oracle, DistanceOracle)


class TestDegradeAndHeal:
    @pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
    def test_failed_batch_never_wrong_answer(self, small_grid, oracle_cls):
        injector = FaultInjector(seed=7)
        primary = injector.wrap_oracle(oracle_cls(small_grid))
        oracle = ResilientOracle(primary, max_rebuild_attempts=0)
        pairs = random_pairs(small_grid.n, 12, seed=1)

        for step in range(4):
            batch = scaled_batch(oracle.graph, 3, 1.5 + step, seed=step)
            if step == 2:
                injector.fail_next("apply")
            oracle.apply(batch)
            assert_matches_dijkstra(oracle, pairs)
        assert oracle.degraded  # budget 0: stays on the Dijkstra fallback
        assert ("fail", "apply") in injector.log

    @pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
    def test_self_heals_within_budget(self, small_grid, oracle_cls):
        injector = FaultInjector(seed=7)
        primary = injector.wrap_oracle(oracle_cls(small_grid))
        oracle = ResilientOracle(primary, max_rebuild_attempts=3)
        pairs = random_pairs(small_grid.n, 10, seed=2)

        injector.fail_next("apply")
        injector.fail_next("rebuild")  # first heal attempt dies too
        oracle.apply(scaled_batch(oracle.graph, 4, 2.0, seed=9))
        assert oracle.degraded  # rebuild attempt #1 was the injected failure
        assert_matches_dijkstra(oracle, pairs)

        # The next call's piggybacked attempt succeeds and re-arms the index.
        oracle.apply(scaled_batch(oracle.graph, 2, 0.5, seed=10))
        assert not oracle.degraded
        assert_matches_dijkstra(oracle, pairs)
        assert ("recovered", "rebuild") in oracle.events

    def test_budget_exhaustion_then_manual_rebuild(self, small_grid):
        injector = FaultInjector(seed=3)
        primary = injector.wrap_oracle(DynamicCH(small_grid))
        oracle = ResilientOracle(primary, max_rebuild_attempts=2)
        pairs = random_pairs(small_grid.n, 8, seed=3)

        injector.fail_next("apply")
        injector.fail_next("rebuild", count=5)
        for step in range(4):
            oracle.apply(scaled_batch(oracle.graph, 2, 1.2, seed=20 + step))
            assert_matches_dijkstra(oracle, pairs)
        assert oracle.degraded
        failed = [e for e in oracle.events if e[0] == "rebuild-failed"]
        assert len(failed) == 2  # bounded: budget, not endless retries

        injector._armed.clear()
        oracle.rebuild()
        assert not oracle.degraded
        assert_matches_dijkstra(oracle, pairs)

    def test_query_time_corruption_detected_by_sweep(self, small_grid):
        oracle = ResilientOracle(DynamicCH(small_grid),
                                 max_rebuild_attempts=1)
        pairs = random_pairs(small_grid.n, 10, seed=4)
        # Corrupt the live index behind the oracle's back.
        u, v = next(oracle.primary.index.shortcuts())
        oracle.primary.index.set_weight(
            u, v, oracle.primary.index.weight(u, v) + 3.0
        )
        assert not oracle.check_integrity()  # degrades + heals in one call
        assert_matches_dijkstra(oracle, pairs)
        # The single-attempt budget healed it on the spot.
        assert not oracle.degraded
        oracle.primary.index.validate()


class TestSnapshotDamage:
    def test_truncated_snapshot_raises_recovery_error(
        self, small_grid, tmp_path
    ):
        injector = FaultInjector(seed=11)
        store = ReliableStore(tmp_path / "store")
        store.checkpoint(DynamicCH(small_grid))
        injector.truncate_file(store.snapshot_path, keep_fraction=0.4)
        with pytest.raises(RecoveryError):
            store.recover()
        assert any(kind == "truncate" for kind, _ in injector.log)

    def test_corrupted_archive_detected_on_load(self, small_grid, tmp_path):
        injector = FaultInjector(seed=12)
        path = tmp_path / "ch.npz"
        save_index(DynamicCH(small_grid).index, path)
        injector.corrupt_file(path, nbytes=64)
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            load_index(path)

    def test_corrupted_snapshot_raises_recovery_error(
        self, small_grid, tmp_path
    ):
        injector = FaultInjector(seed=13)
        store = ReliableStore(tmp_path / "store")
        store.checkpoint(DynamicCH(small_grid))
        injector.corrupt_file(store.snapshot_path, nbytes=64)
        with pytest.raises(RecoveryError):
            store.recover()


class TestCrashRecoveryExactness:
    @pytest.mark.parametrize("oracle_cls", [DynamicCH, DynamicH2H])
    def test_recovery_reproduces_pre_crash_index(
        self, small_grid, tmp_path, oracle_cls
    ):
        oracle = oracle_cls(small_grid.copy())
        store = ReliableStore(tmp_path / "store")
        store.checkpoint(oracle)
        for step in range(3):
            batch = scaled_batch(oracle.graph, 3, 1.5 + step, seed=40 + step)
            store.log(batch)
            oracle.apply(batch)

        # "Crash": all in-memory state is dropped; recover from disk.
        result = store.recover()
        recovered = result.oracle
        assert result.replayed_batches == 3
        assert recovered.graph == oracle.graph
        sc_live = oracle.index.sc if oracle_cls is DynamicH2H else oracle.index
        sc_rec = (recovered.index.sc if oracle_cls is DynamicH2H
                  else recovered.index)
        assert sc_rec.weight_snapshot() == sc_live.weight_snapshot()
        assert sc_rec.support_snapshot() == sc_live.support_snapshot()
        assert sc_rec.via_snapshot() == sc_live.via_snapshot()
        assert sc_rec.edge_weights() == sc_live.edge_weights()
        if oracle_cls is DynamicH2H:
            assert np.array_equal(recovered.index.dis, oracle.index.dis)
            assert np.array_equal(recovered.index.sup, oracle.index.sup)
        assert_matches_dijkstra(recovered, random_pairs(small_grid.n, 12,
                                                        seed=5))


class TestEndToEndServingLoop:
    def test_full_gauntlet_no_wrong_answers(self, small_grid, tmp_path):
        """The acceptance scenario in one loop: a failed batch, a
        truncated snapshot, a corrupted archive — and not one query may
        disagree with ground truth."""
        injector = FaultInjector(seed=99)
        store = ReliableStore(tmp_path / "store")
        primary = injector.wrap_oracle(DynamicCH(small_grid))
        oracle = ResilientOracle(primary, store=store,
                                 max_rebuild_attempts=2)
        store.checkpoint(primary.inner)
        pairs = random_pairs(small_grid.n, 10, seed=6)

        for step in range(6):
            if step == 2:
                injector.fail_next("apply")  # fault 1: failed update batch
            oracle.apply(scaled_batch(oracle.graph, 2, 1.3, seed=60 + step))
            assert_matches_dijkstra(oracle, pairs)
        assert not oracle.degraded  # self-healed along the way

        # Fault 2: crash + truncated snapshot is *detected*, not served.
        snapshot_copy = (tmp_path / "backup.npz")
        snapshot_copy.write_bytes(
            open(store.snapshot_path, "rb").read()
        )
        injector.truncate_file(store.snapshot_path, keep_fraction=0.3)
        with pytest.raises(RecoveryError):
            store.recover()

        # Fault 3: corrupted archive bytes likewise.
        snapshot_copy_bytes = snapshot_copy.read_bytes()
        open(store.snapshot_path, "wb").write(snapshot_copy_bytes)
        injector.corrupt_file(store.snapshot_path, nbytes=64)
        with pytest.raises(RecoveryError):
            store.recover()

        # Restore the good snapshot: recovery replays the journal and the
        # recovered oracle again matches ground truth everywhere.
        open(store.snapshot_path, "wb").write(snapshot_copy_bytes)
        result = store.recover()
        assert result.oracle.graph == oracle.graph
        assert_matches_dijkstra(result.oracle, pairs)
        assert (result.oracle.index.weight_snapshot()
                == primary.index.weight_snapshot())
