"""End-to-end tests for the ``verify`` and ``recover`` CLI commands."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.graph.generators import grid_network
from repro.graph.io import write_dimacs
from repro.persist import load_index, save_index
from repro.reliability import FaultInjector, ReliableStore

from conftest import rewrite_archive


@pytest.fixture
def town(tmp_path):
    graph = grid_network(4, 4, seed=2)
    network_path = tmp_path / "town.gr"
    write_dimacs(graph, network_path)
    index_path = tmp_path / "town.ch.npz"
    save_index(DynamicCH(graph).index, index_path)
    return graph, network_path, index_path


class TestVerifyCommand:
    def test_clean_index_passes(self, town, capsys):
        _, network_path, index_path = town
        assert main(["verify", "--index", str(index_path),
                     "--network", str(network_path)]) == 0
        assert "integrity OK" in capsys.readouterr().out

    def test_sampled_verify(self, town, capsys):
        _, _, index_path = town
        assert main(["verify", "--index", str(index_path),
                     "--sample", "5", "--seed", "1"]) == 0
        assert "sampled" in capsys.readouterr().out

    def test_corrupt_archive_fails(self, town, capsys):
        _, _, index_path = town
        FaultInjector(seed=5).corrupt_file(index_path, nbytes=64)
        assert main(["verify", "--index", str(index_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stale_index_vs_network_fails(self, town, tmp_path, capsys):
        graph, network_path, index_path = town
        graph.set_weight(0, 1, graph.weight(0, 1) + 10.0)
        write_dimacs(graph, network_path)
        assert main(["verify", "--index", str(index_path),
                     "--network", str(network_path)]) == 1
        assert "diverged" in capsys.readouterr().err

    def test_inconsistent_archive_fails_cleanly(self, tmp_path, capsys):
        """Checksum intact, but ``sup_matrix`` is shaped unlike ``dis``:
        a typed ``error:`` line and exit 1, no traceback."""
        index_path = tmp_path / "town.h2h.npz"
        save_index(DynamicH2H(grid_network(4, 4, seed=2)).index, index_path)
        with np.load(index_path) as data:
            sup = np.array(data["sup_matrix"][:, :1])
        rewrite_archive(index_path, sup_matrix=sup)
        assert main(["verify", "--index", str(index_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestRecoverCommand:
    def test_recover_replays_journal(self, tmp_path, capsys):
        graph = grid_network(4, 4, seed=3)
        oracle = DynamicCH(graph)
        store = ReliableStore(tmp_path / "store")
        store.checkpoint(oracle)
        batch = [((0, 1), graph.weight(0, 1) * 2.0)]
        store.log(batch)
        oracle.apply(batch)

        out_path = tmp_path / "recovered.npz"
        assert main(["recover", "--store", str(tmp_path / "store"),
                     "--out", str(out_path)]) == 0
        output = capsys.readouterr().out
        assert "1 journaled batch(es)" in output
        recovered = load_index(out_path)
        assert recovered.weight_snapshot() == oracle.index.weight_snapshot()

    def test_recover_with_checkpoint_clears_journal(self, tmp_path, capsys):
        graph = grid_network(4, 4, seed=3)
        oracle = DynamicCH(graph)
        store = ReliableStore(tmp_path / "store")
        store.checkpoint(oracle)
        store.log([((0, 1), graph.weight(0, 1) * 2.0)])
        assert main(["recover", "--store", str(tmp_path / "store"),
                     "--checkpoint"]) == 0
        assert "checkpointed" in capsys.readouterr().out
        assert ReliableStore(tmp_path / "store").wal.replay() == []

    def test_recover_from_damaged_store_fails(self, tmp_path, capsys):
        graph = grid_network(4, 4, seed=3)
        store = ReliableStore(tmp_path / "store")
        store.checkpoint(DynamicCH(graph))
        FaultInjector(seed=6).truncate_file(store.snapshot_path,
                                            keep_fraction=0.3)
        assert main(["recover", "--store", str(tmp_path / "store")]) == 1
        assert "error:" in capsys.readouterr().err
