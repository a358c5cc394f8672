"""Serving-layer regressions for the columnar backend (docs/columnar.md).

The epoch-snapshot machinery's whole reason for the columnar layout is
the zero-copy publish: ``clone()`` must share every backing page with
the published snapshot until the maintenance pass writes one
(copy-on-write), and a retired snapshot must keep answering its own
epoch's distances bit-for-bit however many epochs retire it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.dynamic
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.graph.generators import grid_network
from repro.reliability.transactions import cow_apply
from repro.serve.epoch import (
    EpochManager,
    _index_pages,
    snapshot_pages_shared,
)
from repro.serve.server import DistanceServer
from repro.workloads.updates import increase_batch, sample_edges

from conftest import random_pairs


@pytest.fixture(params=[DynamicCH, DynamicH2H], ids=["ch", "h2h"])
def columnar_oracle(request):
    return request.param(grid_network(5, 5, seed=6), backend="columnar")


def test_clone_shares_pages_until_first_write(columnar_oracle):
    clone = columnar_oracle.clone()
    assert snapshot_pages_shared(columnar_oracle, clone) is True

    batch = increase_batch(
        sample_edges(columnar_oracle.graph, 3, seed=2), factor=2.0
    )
    before = {
        (s, t): columnar_oracle.distance(s, t)
        for s, t in random_pairs(columnar_oracle.graph.n, 20, seed=1)
    }
    clone.apply(batch)
    # The write copied the touched pages: the original still answers
    # exactly as before, from its own (still published) pages.
    assert snapshot_pages_shared(columnar_oracle, clone) is False
    for (s, t), d in before.items():
        assert columnar_oracle.distance(s, t) == d


def test_dict_clone_copies_eagerly():
    oracle = DynamicH2H(grid_network(4, 4, seed=6), backend="dict")
    clone = oracle.clone()
    assert snapshot_pages_shared(oracle, clone) is False


def test_epoch_publish_is_zero_copy(columnar_oracle):
    manager = EpochManager(columnar_oracle)
    current = manager.current
    batch = increase_batch(
        sample_edges(columnar_oracle.graph, 3, seed=4), factor=2.0
    )
    next_oracle, _ = cow_apply(current.oracle, batch)
    snapshot = manager.publish(next_oracle)
    # Pages the maintenance pass never touched are still the published
    # predecessor's pages — publish duplicated only the dirty ones.
    assert snapshot.epoch == current.epoch + 1
    assert snapshot_pages_shared(current, snapshot) is False  # dis changed


def test_retired_snapshots_stay_queryable(columnar_oracle):
    """Three epochs of updates; every retired snapshot keeps answering
    its own epoch's distances while newer epochs diverge."""
    manager = EpochManager(columnar_oracle)
    pairs = random_pairs(columnar_oracle.graph.n, 25, seed=9)
    history = []
    for round_no in range(3):
        current = manager.current
        history.append(
            (current, {(s, t): current.distance(s, t) for s, t in pairs})
        )
        batch = increase_batch(
            sample_edges(current.oracle.graph, 4, seed=20 + round_no),
            factor=2.0,
        )
        next_oracle, _ = cow_apply(current.oracle, batch)
        manager.publish(next_oracle)
    for snapshot, answers in history:
        for (s, t), d in answers.items():
            assert snapshot.distance(s, t) == d
    # And the weight increases actually moved at least one answer.
    latest = manager.current
    assert any(
        latest.distance(s, t) != history[0][1][(s, t)] for s, t in pairs
    )


def test_snapshot_pages_shared_none_for_pageless():
    class Opaque:
        pass

    assert snapshot_pages_shared(Opaque(), Opaque()) is None


def test_server_end_to_end_columnar(columnar_oracle):
    """A DistanceServer over a columnar oracle runs the normal epoch
    cycle: applies publish, caches invalidate by AFF, answers match a
    dict-backed twin."""
    twin = type(columnar_oracle)(grid_network(5, 5, seed=6), backend="dict")
    batch = increase_batch(
        sample_edges(columnar_oracle.graph, 4, seed=11), factor=2.0
    )
    with DistanceServer(columnar_oracle, workers=1) as server:
        epoch0 = server.epoch
        server.apply(batch)
        assert server.epoch == epoch0 + 1
        twin.apply(batch)
        for s, t in random_pairs(columnar_oracle.graph.n, 30, seed=12):
            assert server.distance(s, t) == twin.distance(s, t)


def test_failed_apply_leaves_shared_pages_untouched(
    columnar_oracle, monkeypatch
):
    """A batch that dies mid-maintenance on the zero-copy clone must not
    leak a single write into the pages it shared with the caller: the
    clone privatises each page before its first write, and the failed
    clone is dropped rather than rolled back."""
    pages_before = {
        name: np.array(arr, copy=True)
        for name, arr in _index_pages(columnar_oracle)
    }
    pairs = random_pairs(columnar_oracle.graph.n, 25, seed=40)
    before = {(s, t): columnar_oracle.distance(s, t) for s, t in pairs}
    edges = sample_edges(columnar_oracle.graph, 5, seed=41)
    batch = increase_batch(edges[:4], factor=5.0)
    (u, v, w), = edges[4:]
    batch.append(((u, v), w / 2.0))  # a decrease, so both halves run

    def broken_decrease(index, updates, ops):
        raise RuntimeError("maintenance died mid-batch")

    monkeypatch.setattr(repro.core.dynamic, "dch_decrease", broken_decrease)
    monkeypatch.setattr(
        repro.core.dynamic, "inch2h_decrease", broken_decrease
    )
    with pytest.raises(RuntimeError, match="mid-batch"):
        cow_apply(columnar_oracle, batch)
    for name, arr in _index_pages(columnar_oracle):
        assert np.array_equal(arr, pages_before[name]), name
    for (s, t), d in before.items():
        assert columnar_oracle.distance(s, t) == d
    columnar_oracle.index.validate()


def test_clone_chain_isolation(columnar_oracle):
    """Each epoch's clone COWs independently: writing epoch N+2's pages
    never leaks into N or N+1."""
    gen0 = columnar_oracle
    batch1 = increase_batch(sample_edges(gen0.graph, 3, seed=30), factor=2.0)
    gen1, _ = cow_apply(gen0, batch1)
    batch2 = increase_batch(sample_edges(gen1.graph, 3, seed=31), factor=3.0)
    gen2, _ = cow_apply(gen1, batch2)
    gen1_index = gen1.index
    gen2_index = gen2.index
    dis1 = np.array(gen1_index.dis, copy=True) if hasattr(
        gen1_index, "dis"
    ) else None
    # Mutate gen2 heavily; gen1's matrices must not move.
    batch3 = increase_batch(sample_edges(gen2.graph, 5, seed=32), factor=4.0)
    gen2.apply(batch3)
    if dis1 is not None:
        assert np.array_equal(gen1_index.dis, dis1)
    gen1_index.validate()
    gen2_index.validate()
