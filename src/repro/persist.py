"""Index persistence: one archive for CH and H2H, in one or two directions.

Building H2H on a large network is the expensive step (Fig. 3a);
shipping the built index and maintaining it incrementally is exactly
the deployment story the paper targets.  This module is the one place
that knows the archive format, the index kind and the direction count
``D``: :func:`save_index` writes a
:class:`~repro.ch.shortcut_graph.ShortcutGraph` or an
:class:`~repro.h2h.index.H2HIndex` as one compressed ``.npz``,
:func:`load_index` returns whatever was saved, and :func:`load_oracle`
wraps it in its dynamic facade.

The payload is the ordering, one record ``(u, v, phi, sup, via)`` per
arc id of the CH store (``sc_*``: the shortcut ``<u, v>`` at ``D = 1``,
the arc ``u -> v`` at ``D = 2``, where row ``FROM`` follows row
``TO``), the graph's edge weights (``edge_*``, ``inf`` for a closed
road) and, for H2H, the ``dis``/``sup`` label matrices (the tree
decomposition is weight independent and is rebuilt deterministically
from the shortcut structure on load).  The format number (``ch_format``,
and ``h2h_format`` for H2H) is ``D``, so a reader that knows only
``D = 1`` rejects a directed archive instead of misreading it.
Round-trips are exact: loading produces an index whose slot arrays and
labels equal the saved ones byte for byte, and which can be maintained
further with DCH± / IncH2H±.

Reliability (see ``src/repro/reliability/``):

* writes are **crash safe** — archives go to ``path + ".tmp"`` and are
  published with :func:`os.replace`, so a process dying mid-save never
  leaves a truncated payload at the destination;
* every archive embeds a **CRC-32 checksum** over all payload arrays,
  verified in full on load — a truncated, corrupted or non-archive file
  raises :class:`repro.errors.IntegrityError` (a :class:`ReproError`),
  never a raw ``zipfile`` / ``numpy`` exception;
* an archive that passes its checksum but whose columns disagree (one
  shortcut column shorter than another, records that are not one per
  arc id, a ``sup`` matrix shaped unlike ``dis``) raises
  :class:`IntegrityError` too, rather than loading a broken index.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.ch.indexing import held_arcs
from repro.ch.shortcut_graph import ShortcutGraph, ShortcutStructure
from repro.core.dynamic import DynamicCH, DynamicH2H
from repro.directed.dynamic import DynamicDiCH, DynamicDiH2H
from repro.directed.graph import DiRoadNetwork
from repro.errors import IndexError_, IntegrityError, ReproError
from repro.graph.graph import RoadNetwork
from repro.h2h.index import H2HIndex
from repro.h2h.tree import TreeDecomposition
from repro.order.ordering import Ordering

__all__ = ["load_index", "load_oracle", "save_index"]

PathLike = Union[str, "os.PathLike[str]"]

#: Archive key holding the embedded payload checksum.
_CHECKSUM_KEY = "integrity_crc32"

#: The facade of each (directed, H2H) archive.
_FACADES = ((DynamicCH, DynamicH2H), (DynamicDiCH, DynamicDiH2H))


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


def _read_payload(path: PathLike) -> Dict[str, np.ndarray]:
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
        raise IntegrityError(f"index archive {path} does not exist") from exc
    except (zipfile.BadZipFile, zlib.error, ValueError, EOFError,
            KeyError, OSError) as exc:
        raise IntegrityError(
            f"cannot read index archive {path}: "
            f"file is truncated, corrupted or not an .npz archive ({exc})"
        ) from exc
    stored = payload.pop(_CHECKSUM_KEY, None)
    if stored is not None:
        actual = _payload_checksum(payload)
        if int(stored[0]) != actual:
            raise IntegrityError(
                f"index archive {path} failed its integrity check: "
                f"stored checksum {int(stored[0]):#010x}, "
                f"recomputed {actual:#010x}"
            )
    return payload


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def _graph_edges(sc: ShortcutGraph) -> Tuple[np.ndarray, ...]:
    """The edges (arcs, at ``D = 2``) of ``G`` that *sc* flags, sorted by
    key, as ``u``, ``v`` and ``phi(e, G)`` columns."""
    edge, _, edge_w, _, _ = sc.slot_arrays()
    ids = np.flatnonzero(edge)
    u, v = sc.arc_ends(ids)
    by_key = np.lexsort((v, u))
    return u[by_key], v[by_key], edge_w.ravel()[ids[by_key]]


def _ch_payload(sc: ShortcutGraph) -> Dict[str, np.ndarray]:
    """The CH columns, straight from the ``(D, slots)`` store: one
    record per arc id, and the edges of ``G``."""
    _, weights, _, sup, via = sc.slot_arrays()
    sc_u, sc_v = sc.arc_ends(np.arange(weights.size))
    edge_u, edge_v, edge_w = _graph_edges(sc)
    return {
        "ch_format": np.array([len(weights)]),
        "order": np.array(sc.ordering.order, dtype=np.int64),
        "sc_u": sc_u,
        "sc_v": sc_v,
        "sc_w": weights.ravel(),
        "sc_sup": sup.ravel(),
        "sc_via": via.ravel(),
        "edge_u": edge_u,
        "edge_v": edge_v,
        "edge_w": edge_w,
    }


def save_index(index: Union[ShortcutGraph, H2HIndex], path: PathLike) -> None:
    """Serialize a CH or H2H index (an H2H archive embeds its CH), at
    ``D = 1`` or ``D = 2``, as one compressed archive: atomic and
    checksummed."""
    payload = _ch_payload(getattr(index, "sc", index))
    if isinstance(index, H2HIndex):
        payload["h2h_format"] = payload["ch_format"]
        payload["dis"] = np.asarray(index.dis)
        payload["sup_matrix"] = np.asarray(index.sup)
    _atomic_savez(path, payload)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
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


def _arc_ids(st, rank, count: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`~repro.ch.indexing.held_arcs`, raising
    :class:`IntegrityError` for a pair the structure lacks."""
    try:
        return held_arcs(st, rank, count, u, v)
    except IndexError_ as exc:
        raise IntegrityError(
            f"archive names a pair that is not a shortcut ({exc})"
        ) from None


def _ch_from_payload(data: Dict[str, np.ndarray]) -> ShortcutGraph:
    """The CH store of an archive in one vectorised pass: the structure
    from the first ``slots`` records (row ``TO``), every record scattered
    to its arc id."""
    count = int(data["ch_format"][0])
    if count not in (1, 2):
        raise ReproError(f"unsupported index archive format {count}")
    _check_columns(data, ["sc_u", "sc_v", "sc_w", "sc_sup", "sc_via"])
    _check_columns(data, ["edge_u", "edge_v", "edge_w"])
    ordering = Ordering(data["order"].tolist())
    rank = ordering.rank
    u, v = data["sc_u"], data["sc_v"]
    slots, rest = divmod(len(u), count)
    if rest:
        raise IntegrityError(f"{len(u)} shortcut records do not fill {count} rows")
    st = ShortcutStructure.from_pairs(rank, u[:slots], v[:slots])
    ids = _arc_ids(st, rank, count, u, v)
    if not np.array_equal(np.sort(ids), np.arange(len(ids))):
        raise IntegrityError("shortcut records are not one per arc id")
    shape = (count, slots)
    weights = np.empty(shape)
    sup = np.empty(shape, dtype=np.int64)
    via = np.empty(shape, dtype=np.int64)
    for array, column in ((weights, "sc_w"), (sup, "sc_sup"), (via, "sc_via")):
        array.flat[ids] = data[column]
    edge_ids = _arc_ids(st, rank, count, data["edge_u"], data["edge_v"])
    edge = np.zeros(shape, dtype=bool)
    edge.flat[edge_ids] = True
    edge_w = np.full(shape, np.inf)
    edge_w.flat[edge_ids] = data["edge_w"]
    return ShortcutGraph.from_slots(ordering, st, edge, weights, edge_w, sup, via)


def load_index(path: PathLike) -> Union[ShortcutGraph, H2HIndex]:
    """Load the index saved at *path* by :func:`save_index`: an
    :class:`H2HIndex` if an H2H index was saved, else a
    :class:`ShortcutGraph`, each at the ``D`` it was saved with.

    An H2H index's tree decomposition (ancestor/position arrays, DFS
    times, LCA tables) is rebuilt from the loaded shortcut structure; it
    is weight independent, so the rebuild is deterministic and exact.

    Raises
    ------
    IntegrityError
        If the file is missing, truncated, corrupted, fails its
        embedded checksum, or its columns or matrices disagree.
    ReproError
        If the archive is readable but not an index archive (or a newer
        format).
    """
    data = _read_payload(path)
    if "ch_format" not in data:
        raise ReproError(f"{path} is not a repro index archive")
    sc = _ch_from_payload(data)
    if "h2h_format" not in data:
        return sc
    count = len(sc.slot_weights)
    if int(data["h2h_format"][0]) != count:
        raise ReproError(
            f"unsupported H2H archive format {int(data['h2h_format'][0])}"
        )
    dis = np.array(data["dis"], dtype=np.float64)
    sup = np.array(data["sup_matrix"], dtype=np.int32)
    tree = TreeDecomposition(sc)
    shape = (tree.n, tree.height) if count == 1 else (count, tree.n, tree.height)
    if dis.shape != shape:
        raise IntegrityError(
            f"distance matrix shape {dis.shape} does not match the "
            f"decomposition {shape}"
        )
    if sup.shape != dis.shape:
        raise IntegrityError(
            f"support matrix shape {sup.shape} does not match the "
            f"distance matrix shape {dis.shape}"
        )
    return H2HIndex(sc, tree, dis, sup)


def load_oracle(path: PathLike):
    """The dynamic oracle of the archive at *path*: :class:`DynamicCH`,
    :class:`DynamicH2H` or their directed twins, wrapped around the
    loaded index without re-indexing.

    Its network is the index's ``phi(e, G)`` copy, which pins the graph
    down exactly: every edge (arc, at ``D = 2``) of ``G``, a closed road
    at ``inf`` included, so a recovered oracle needs no graph file.
    """
    index = load_index(path)
    sc = getattr(index, "sc", index)
    triples = zip(*(column.tolist() for column in _graph_edges(sc)))
    directed = len(sc.slot_weights) == 2
    network = DiRoadNetwork.from_arcs if directed else RoadNetwork.from_edges
    facade = _FACADES[directed][isinstance(index, H2HIndex)]
    return facade.from_index(network(sc.n, triples), index)
