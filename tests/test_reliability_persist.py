"""Crash-safe persistence: atomic writes, checksums, clear load errors."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ch.indexing import ch_indexing
from repro.errors import IntegrityError, ReproError
from repro.h2h.indexing import h2h_indexing
from repro.persist import load_index, save_index


class TestAtomicSave:
    def test_no_tmp_file_left_behind(self, small_grid, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(small_grid), path)
        assert os.listdir(tmp_path) == ["ch.npz"]

    def test_failed_save_preserves_previous_archive(
        self, small_grid, tmp_path, monkeypatch
    ):
        index = ch_indexing(small_grid)
        path = tmp_path / "ch.npz"
        save_index(index, path)
        good = path.read_bytes()

        def exploding_savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", exploding_savez)
        with pytest.raises(OSError):
            save_index(index, path)
        assert path.read_bytes() == good
        load_index(path).validate()

    def test_save_overwrites_in_one_step(self, small_grid, tmp_path):
        index = ch_indexing(small_grid)
        path = tmp_path / "ch.npz"
        save_index(index, path)
        index.set_edge_weight(0, 1, index.edge_weight(0, 1))  # no-op write
        save_index(index, path)
        assert load_index(path).weight_snapshot() == index.weight_snapshot()


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(IntegrityError):
            load_index(tmp_path / "absent.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(IntegrityError):
            load_index(path)

    def test_truncated_archive(self, small_grid, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(small_grid), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IntegrityError):
            load_index(path)

    def test_truncated_h2h_archive(self, small_grid, tmp_path):
        path = tmp_path / "h2h.npz"
        save_index(h2h_indexing(small_grid), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: int(len(raw) * 0.8)])
        with pytest.raises(IntegrityError):
            load_index(path)

    def test_wrong_kind_still_plain_repro_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez_compressed(path, nothing=np.zeros(3))
        with pytest.raises(ReproError):
            load_index(path)


class TestChecksum:
    def test_archives_embed_checksum(self, small_grid, tmp_path):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(small_grid), path)
        with np.load(path) as data:
            assert "integrity_crc32" in data.files

    def test_tampered_payload_detected(self, small_grid, tmp_path):
        """Rewrite one weight without refreshing the checksum: the zip
        itself stays valid, so only the embedded checksum can catch it."""
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(small_grid), path)
        with np.load(path) as data:
            payload = {key: np.array(data[key]) for key in data.files}
        payload["sc_w"] = payload["sc_w"].copy()
        payload["sc_w"][0] += 1.0
        np.savez_compressed(path, **payload)  # stale integrity_crc32
        with pytest.raises(IntegrityError, match="integrity check"):
            load_index(path)

    def test_checksumless_legacy_archive_still_loads(
        self, small_grid, tmp_path
    ):
        path = tmp_path / "ch.npz"
        save_index(ch_indexing(small_grid), path)
        with np.load(path) as data:
            payload = {key: np.array(data[key]) for key in data.files
                       if key != "integrity_crc32"}
        np.savez_compressed(path, **payload)
        load_index(path).validate()


class TestRoundTripStillExact:
    def test_h2h_round_trip_after_hardening(self, small_grid, tmp_path):
        index = h2h_indexing(small_grid)
        path = tmp_path / "h2h.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert np.array_equal(loaded.dis, index.dis)
        assert np.array_equal(loaded.sup, index.sup)
        assert loaded.sc.weight_snapshot() == index.sc.weight_snapshot()
        assert loaded.sc.via_snapshot() == index.sc.via_snapshot()
        assert loaded.sc.edge_weights() == index.sc.edge_weights()
