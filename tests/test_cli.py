"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.baselines.dijkstra import distance as dijkstra_distance
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.graph.generators import grid_network
from repro.graph.io import read_dimacs
from repro.serve import DistanceServer


@pytest.fixture
def city(tmp_path):
    path = tmp_path / "city.gr"
    code = main(["generate", "--vertices", "150", "--seed", "4",
                 "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_readable_network(self, city):
        graph = read_dimacs(city)
        assert graph.n >= 140
        assert graph.is_connected()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.gr", tmp_path / "b.gr"
        main(["generate", "--vertices", "100", "--seed", "9", "--out", str(a)])
        main(["generate", "--vertices", "100", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestBuildQueryUpdate:
    @pytest.mark.parametrize("oracle", ["ch", "h2h"])
    def test_full_workflow(self, city, tmp_path, capsys, oracle):
        index_path = tmp_path / f"city.{oracle}.npz"
        assert main(["build", "--network", str(city), "--oracle", oracle,
                     "--out", str(index_path)]) == 0

        graph = read_dimacs(city)
        s, t = 0, graph.n - 1
        truth = dijkstra_distance(graph, s, t)

        capsys.readouterr()
        assert main(["query", "--index", str(index_path),
                     "--pairs", f"{s} {t}"]) == 0
        out = capsys.readouterr().out
        assert out.strip().split()[:3] == [str(s), str(t), str(truth)]

        # Double the weight of one edge, query again.
        u, v, w = next(iter(graph.edges()))
        assert main(["update", "--index", str(index_path),
                     "--set", f"{u} {v} {w * 2}"]) == 0
        graph.set_weight(u, v, w * 2)
        truth2 = dijkstra_distance(graph, s, t)
        capsys.readouterr()
        assert main(["query", "--index", str(index_path),
                     "--pairs", f"{s} {t}"]) == 0
        out = capsys.readouterr().out
        assert float(out.strip().split()[2]) == truth2

    def test_query_pairs_file(self, city, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        main(["build", "--network", str(city), "--oracle", "ch",
              "--out", str(index_path)])
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("0 5\n1 7\n")
        capsys.readouterr()
        assert main(["query", "--index", str(index_path),
                     "--pairs-file", str(pairs_file)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_update_from_file(self, city, tmp_path):
        index_path = tmp_path / "idx.npz"
        main(["build", "--network", str(city), "--oracle", "h2h",
              "--out", str(index_path)])
        graph = read_dimacs(city)
        u, v, w = next(iter(graph.edges()))
        updates = tmp_path / "updates.txt"
        updates.write_text(f"# congestion\n{u} {v} {w * 3}\n")
        out_path = tmp_path / "idx2.npz"
        assert main(["update", "--index", str(index_path),
                     "--updates-file", str(updates),
                     "--out", str(out_path)]) == 0
        assert out_path.exists()

    def test_query_without_pairs_errors(self, city, tmp_path):
        index_path = tmp_path / "idx.npz"
        main(["build", "--network", str(city), "--oracle", "ch",
              "--out", str(index_path)])
        assert main(["query", "--index", str(index_path)]) == 2

    def test_update_without_updates_errors(self, city, tmp_path):
        index_path = tmp_path / "idx.npz"
        main(["build", "--network", str(city), "--oracle", "ch",
              "--out", str(index_path)])
        assert main(["update", "--index", str(index_path)]) == 2

    def test_malformed_pair_reports_error(self, city, tmp_path):
        index_path = tmp_path / "idx.npz"
        main(["build", "--network", str(city), "--oracle", "ch",
              "--out", str(index_path)])
        assert main(["query", "--index", str(index_path),
                     "--pairs", "0-5"]) == 1


class TestStats:
    def test_network_stats(self, city, capsys):
        assert main(["stats", "--network", str(city)]) == 0
        assert "connected" in capsys.readouterr().out

    def test_index_stats(self, city, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        main(["build", "--network", str(city), "--oracle", "h2h",
              "--out", str(index_path)])
        capsys.readouterr()
        assert main(["stats", "--index", str(index_path)]) == 0
        assert "super-shortcuts" in capsys.readouterr().out

    def test_no_arguments_errors(self):
        assert main(["stats"]) == 2


class TestCacheStats:
    def test_prints_totals_without_an_epoch_table(self, tmp_path, capsys):
        server = DistanceServer(DynamicCH(grid_network(4, 4, seed=3)), workers=1)
        u, v, w = next(iter(server.snapshot().graph.edges()))
        for epoch in range(3):
            if epoch:
                server.apply([((u, v), w * (1 + epoch))])
            server.distance(0, 15)
            server.distance(0, 15)
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(server.stats()))
        assert main(["cache-stats", "--stats", str(path)]) == 0
        out = capsys.readouterr().out
        hits, misses = server.cache.stats.hits, server.cache.stats.misses
        assert f"  hits {hits}  misses {misses}  hit-rate" in out
        assert out.startswith("epoch 2: ")
        assert "queries" not in out and "mean-lat" not in out
        assert len(out.splitlines()) == 3

    def test_label_oracle_dump_has_no_cache(self, tmp_path, capsys):
        server = DistanceServer(DynamicH2H(grid_network(4, 4, seed=3)), workers=1)
        u, v, w = next(iter(server.snapshot().graph.edges()))
        server.distance(0, 15)
        server.apply([((u, v), w * 2)])
        server.query_many([(0, 15), (3, 12)])
        stats = server.stats()
        assert stats["cache"] is None
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats))
        assert main(["cache-stats", "--stats", str(path)]) == 0
        assert capsys.readouterr().out == "epoch 1: no cache (label oracle)\n"

    def test_serve_bench_text_names_a_label_oracle(self, tmp_path, capsys):
        stats = tmp_path / "serve.json"
        assert main(["serve-bench", "--oracle", "h2h", "--vertices", "60",
                     "--queries", "20", "--repeats", "1", "--updates", "1",
                     "--batch", "2", "--throughput-edges", "0",
                     "--json", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "  speedup             no cache (label oracle)\n" in out
        assert "carried=0 evicted=0" in out
        assert main(["cache-stats", "--stats", str(stats)]) == 0
        assert "no cache (label oracle)" in capsys.readouterr().out
