"""Index persistence: save/load CH and H2H indexes.

Building H2H on a large network is the expensive step (Fig. 3a);
shipping the built index and maintaining it incrementally is exactly
the deployment story the paper targets.  This module serializes both
index types as one compressed ``.npz`` archive each, loaded eagerly.

The payload is the ordering, the shortcut triples ``(u, v, phi(u,v))``,
the graph's edge weights, the ``sup``/``via`` auxiliaries, and for H2H
the ``dis``/``sup`` matrices (the tree decomposition is weight
independent and is rebuilt deterministically from the shortcut
structure on load).  Round-trips are exact: loading produces an index
that compares equal, entry for entry, to the saved one, and can be
maintained further with DCH / IncH2H.

Reliability (see ``src/repro/reliability/``):

* writes are **crash safe** — archives go to ``path + ".tmp"`` and are
  published with :func:`os.replace`, so a process dying mid-save never
  leaves a truncated payload at the destination;
* every archive embeds a **CRC-32 checksum** over all payload arrays,
  verified in full on load — a truncated, corrupted or non-archive file
  raises :class:`repro.errors.IntegrityError` (a :class:`ReproError`),
  never a raw ``zipfile`` / ``numpy`` exception;
* an archive that passes its checksum but whose columns disagree (one
  shortcut column shorter than another, a ``sup`` matrix shaped unlike
  ``dis``) raises :class:`IntegrityError` too, rather than loading a
  broken index.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Dict, List, Union

import numpy as np

from repro.ch.shortcut_graph import ShortcutGraph
from repro.errors import IntegrityError, ReproError
from repro.h2h.index import H2HIndex
from repro.h2h.tree import TreeDecomposition
from repro.order.ordering import Ordering

__all__ = ["save_ch", "load_ch", "save_h2h", "load_h2h"]

PathLike = Union[str, "os.PathLike[str]"]

_CH_FORMAT = 1
_H2H_FORMAT = 1

#: Archive key holding the embedded payload checksum.
_CHECKSUM_KEY = "integrity_crc32"


# ----------------------------------------------------------------------
# Integrity: embedded checksum + atomic publication
# ----------------------------------------------------------------------
def _payload_checksum(payload: Dict[str, np.ndarray]) -> int:
    """CRC-32 over every payload array (key, dtype, shape and bytes).

    Deterministic: keys are visited in sorted order, arrays are made
    contiguous before hashing, so the same logical payload always hashes
    to the same value regardless of construction order.
    """
    crc = 0
    for key in sorted(payload):
        if key == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(payload[key])
        crc = zlib.crc32(key.encode("utf-8"), crc)
        crc = zlib.crc32(str(arr.dtype).encode("utf-8"), crc)
        crc = zlib.crc32(str(arr.shape).encode("utf-8"), crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc & 0xFFFFFFFF


def _atomic_savez(path: PathLike, payload: Dict[str, np.ndarray]) -> None:
    """Write *payload* as a compressed ``.npz`` atomically.

    The archive is fully written and fsynced at ``path + ".tmp"`` before
    a single :func:`os.replace` publishes it, so readers only ever see
    either the old complete archive or the new complete archive.
    """
    payload = dict(payload)
    payload[_CHECKSUM_KEY] = np.array([_payload_checksum(payload)],
                                      dtype=np.uint32)
    dest = os.fspath(path)
    tmp = dest + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_payload(path: PathLike, kind: str) -> Dict[str, np.ndarray]:
    """Read every array of an archive eagerly, verifying integrity.

    Raises
    ------
    IntegrityError
        If the file is missing, truncated, not a zip/npz archive, or its
        embedded checksum does not match the stored arrays.
    """
    try:
        with np.load(path) as data:
            payload = {key: np.array(data[key]) for key in data.files}
    except FileNotFoundError as exc:
        raise IntegrityError(f"{kind} archive {path} does not exist") from exc
    except (zipfile.BadZipFile, zlib.error, ValueError, EOFError,
            KeyError, OSError) as exc:
        raise IntegrityError(
            f"cannot read {kind} archive {path}: "
            f"file is truncated, corrupted or not an .npz archive ({exc})"
        ) from exc
    stored = payload.pop(_CHECKSUM_KEY, None)
    if stored is not None:
        actual = _payload_checksum(payload)
        if int(stored[0]) != actual:
            raise IntegrityError(
                f"{kind} archive {path} failed its integrity check: "
                f"stored checksum {int(stored[0]):#010x}, "
                f"recomputed {actual:#010x}"
            )
    return payload


# ----------------------------------------------------------------------
# CH
# ----------------------------------------------------------------------
def _ch_payload(index: ShortcutGraph) -> Dict[str, np.ndarray]:
    records = list(index.shortcut_records())
    us = np.array([u for u, _, _, _, _ in records], dtype=np.int64)
    vs = np.array([v for _, v, _, _, _ in records], dtype=np.int64)
    weights = np.array([w for _, _, w, _, _ in records])
    sups = np.array([sup for _, _, _, sup, _ in records], dtype=np.int64)
    vias = np.array([-1 if via is None else via
                     for _, _, _, _, via in records], dtype=np.int64)
    edge_items = sorted(index.edge_weights().items())
    edge_us = np.array([u for (u, _), _ in edge_items], dtype=np.int64)
    edge_vs = np.array([v for (_, v), _ in edge_items], dtype=np.int64)
    edge_ws = np.array([w for _, w in edge_items])
    return {
        "ch_format": np.array([_CH_FORMAT]),
        "order": np.array(index.ordering.order, dtype=np.int64),
        "sc_u": us,
        "sc_v": vs,
        "sc_w": weights,
        "sc_sup": sups,
        "sc_via": vias,
        "edge_u": edge_us,
        "edge_v": edge_vs,
        "edge_w": edge_ws,
    }


def save_ch(index: ShortcutGraph, path: PathLike) -> None:
    """Serialize a CH index as one compressed archive, atomically and
    checksummed."""
    _atomic_savez(path, _ch_payload(index))


def _check_columns(data: Dict[str, np.ndarray], keys: List[str]) -> None:
    """Raise :class:`IntegrityError` unless the columns *keys* of an
    archive are all present and one length: ``zip`` would otherwise
    silently drop the tail."""
    missing = [key for key in keys if key not in data]
    if missing:
        raise IntegrityError(f"archive is missing columns {missing}")
    lengths = {key: len(data[key]) for key in keys}
    if len(set(lengths.values())) > 1:
        raise IntegrityError(f"archive columns disagree in length: {lengths}")


def _ch_from_payload(data: Dict[str, np.ndarray]) -> ShortcutGraph:
    if int(data["ch_format"][0]) != _CH_FORMAT:
        raise ReproError(
            f"unsupported CH archive format {int(data['ch_format'][0])}"
        )
    _check_columns(data, ["sc_u", "sc_v", "sc_w", "sc_sup", "sc_via"])
    _check_columns(data, ["edge_u", "edge_v", "edge_w"])
    ordering = Ordering([int(x) for x in data["order"]])
    n = len(ordering)
    adj: List[Dict[int, float]] = [{} for _ in range(n)]
    for u, v, w in zip(data["sc_u"], data["sc_v"], data["sc_w"]):
        adj[int(u)][int(v)] = float(w)
        adj[int(v)][int(u)] = float(w)
    edge_weights = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(data["edge_u"], data["edge_v"], data["edge_w"])
    }
    index = ShortcutGraph(ordering, adj, edge_weights)
    for u, v, sup, via in zip(
        data["sc_u"], data["sc_v"], data["sc_sup"], data["sc_via"]
    ):
        index.set_support(int(u), int(v), int(sup))
        index.set_via(int(u), int(v), None if int(via) < 0 else int(via))
    return index


def load_ch(path: PathLike) -> ShortcutGraph:
    """Load a CH index saved with :func:`save_ch`.

    Raises
    ------
    IntegrityError
        If the file is missing, truncated, corrupted, fails its
        embedded checksum, or its columns disagree.
    ReproError
        If the archive is readable but not a CH archive (or a newer
        format).
    """
    data = _read_payload(path, "CH")
    if "ch_format" not in data:
        raise ReproError(f"{path} is not a repro CH archive")
    return _ch_from_payload(data)


# ----------------------------------------------------------------------
# H2H
# ----------------------------------------------------------------------
def save_h2h(index: H2HIndex, path: PathLike) -> None:
    """Serialize an H2H index (including its CH) as one compressed
    archive, atomic and checksummed exactly like :func:`save_ch`."""
    payload = _ch_payload(index.sc)
    payload["h2h_format"] = np.array([_H2H_FORMAT])
    payload["dis"] = np.asarray(index.dis)
    payload["sup_matrix"] = np.asarray(index.sup)
    _atomic_savez(path, payload)


def load_h2h(path: PathLike) -> H2HIndex:
    """Load an H2H index saved with :func:`save_h2h`.

    The tree decomposition (ancestor/position arrays, DFS times, LCA
    tables) is rebuilt from the loaded shortcut structure; it is weight
    independent, so the rebuild is deterministic and exact.

    Raises
    ------
    IntegrityError
        If the file is missing, truncated, corrupted, fails its
        embedded checksum, or its columns or matrices disagree.
    ReproError
        If the archive is readable but not an H2H archive.
    """
    return _h2h_from_payload(path, _read_payload(path, "H2H"))


def _h2h_from_payload(path: PathLike, data: Dict[str, np.ndarray]) -> H2HIndex:
    if "h2h_format" not in data:
        raise ReproError(f"{path} is not a repro H2H archive")
    if int(data["h2h_format"][0]) != _H2H_FORMAT:
        raise ReproError(
            f"unsupported H2H archive format {int(data['h2h_format'][0])}"
        )
    sc = _ch_from_payload(data)
    dis = np.array(data["dis"], dtype=np.float64)
    sup = np.array(data["sup_matrix"], dtype=np.int32)
    tree = TreeDecomposition(sc)
    if dis.shape != (tree.n, tree.height):
        raise IntegrityError(
            f"distance matrix shape {dis.shape} does not match the "
            f"decomposition ({tree.n} x {tree.height})"
        )
    if sup.shape != dis.shape:
        raise IntegrityError(
            f"support matrix shape {sup.shape} does not match the "
            f"distance matrix shape {dis.shape}"
        )
    return H2HIndex(sc, tree, dis, sup)
