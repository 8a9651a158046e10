"""What one page read costs, counted — and how it fails.

Deterministic stand-ins for a timing benchmark: a query pays one
single-chunk lookup per page it has to decode and never lists the pages
file; a budgeted write sizes each record once.  The failure half pins the
errors the single-chunk read must keep raising, and the one behaviour it
changes on purpose: a lost page group only fails the queries that read it.
"""

import hashlib
import pickle

import numpy as np
import pytest

import repro.index.persistent as persistent
import repro.mapreduce.hdfs as hdfs_mod
import repro.mapreduce.spill as spill_mod
import repro.mapreduce.types as types_mod
from repro.index.persistent import IndexCorruptError, PersistentRTree
from repro.index.rtree import Rect, RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS

from .test_persistent_recovery import _corrupt_record

EVERYWHERE = Rect(-90.0, -180.0, 90.0, 180.0)


def _index(budget_mb=None, replication=3, n=3000):
    rs = np.random.RandomState(3)
    pts = np.column_stack((rs.uniform(39.0, 41.0, n), rs.uniform(115.0, 118.0, n)))
    tree = RTree.bulk_load(pts, max_entries=8)
    hdfs = SimulatedHDFS(
        paper_cluster(8), chunk_size=64 * 1024, seed=0,
        memory_budget_mb=budget_mb, replication=replication,
    )
    index = PersistentRTree.save(hdfs, "idx", tree, group_bytes=2048)
    return hdfs, pts, index


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a pass-through that records its args."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


# -- read side ----------------------------------------------------------------


@pytest.mark.parametrize("budget_mb", [None, 0.02])
def test_a_query_never_lists_the_pages_file(monkeypatch, budget_mb):
    hdfs, pts, _ = _index(budget_mb)
    n_chunks = len(hdfs.chunks("idx/pages"))
    assert n_chunks > 50  # a listing per page read would be ~n_chunks x slower
    index = PersistentRTree.open(hdfs, "idx")
    listings = _count_calls(monkeypatch, SimulatedHDFS, "chunks")
    lookups = _count_calls(monkeypatch, SimulatedHDFS, "chunk")
    decodes = _count_calls(monkeypatch, persistent, "decode_page")
    lat, lon = pts[0].tolist()
    index.query_point(lat, lon)
    index.query_rect(Rect(39.5, 115.5, 40.0, 116.5))
    index.query_radius(lat, lon, 5_000.0)
    index.knn(lat, lon, 25)
    assert listings == []
    # One lookup per decoded-cache miss, none for a hit: the walks above
    # revisit the root and upper levels many times.
    assert len(lookups) == len(decodes) > 0
    assert len(decodes) < int(index.meta["n_pages"])


@pytest.mark.parametrize("budget_mb", [None, 0.02])
def test_a_scan_asks_for_each_page_it_visits_once(monkeypatch, budget_mb):
    """A range or radius scan resolves every page it visits through one
    ``decoded`` call: no attribute read goes back to the page source (it
    used to ask about three times per page).  Which pages, in which order,
    is ``golden_page_touches.json``'s business."""
    hdfs, pts, _ = _index(budget_mb)
    asked = _count_calls(monkeypatch, persistent._PageSource, "decoded")
    index = PersistentRTree.open(hdfs, "idx")
    lat, lon = pts[0].tolist()
    scans = [
        lambda: index.query_point(lat, lon),
        lambda: index.query_rect(Rect(39.5, 115.5, 40.0, 116.5)),
        lambda: index.query_radius(lat, lon, 5_000.0),
    ]
    for scan in scans:
        asked.clear()
        assert len(scan()) > 0
        pages = [page_id for _, page_id in asked]
        assert len(pages) == len(set(pages)) >= int(index.meta["height"])


# -- write side ---------------------------------------------------------------


@pytest.mark.parametrize("budget_mb", [None, 0.001])
def test_put_records_sizes_each_record_once(monkeypatch, budget_mb):
    real = types_mod.estimate_nbytes
    # Each module holds its own binding of the function; count them all.
    calls = [
        _count_calls(monkeypatch, module, "estimate_nbytes")
        for module in (types_mod, hdfs_mod, spill_mod)
    ]
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=400, seed=0, memory_budget_mb=budget_mb)
    records = [(f"key-{i}", {"payload": list(range(i % 7))}) for i in range(60)]
    hdfs.put_records("f", records)
    assert sum(map(len, calls)) == 2 * len(records)
    # The chunking pass's sum is the file's size; asking again is free.
    want = sum(real(k) + real(v) for k, v in records)
    assert hdfs.file_nbytes("f") == want
    assert len(hdfs.chunks("f")) > 5
    if budget_mb is not None:
        assert hdfs.spill_stats.pages_out > 0
    assert hdfs.read_records("f") == records
    assert sum(map(len, calls)) == 2 * len(records)


def test_flat_record_bytes_does_not_become_the_payload_size():
    """``record_bytes`` steers chunking only; modelled size stays the
    per-record estimate, as it was before payloads carried a size."""
    hdfs = SimulatedHDFS(paper_cluster(4), chunk_size=100)
    hdfs.put_records("f", [(i, "x" * 30) for i in range(20)], record_bytes=16)
    assert hdfs.file_nbytes("f") == 20 * (8 + 30)


def test_saved_page_groups_carry_their_size():
    hdfs, _, index = _index()
    stored = hdfs._files["idx/pages"]
    assert all(chunk.payload.size is not None for chunk in stored)
    assert sum(c.nbytes for c in stored) == (
        8 * int(index.meta["n_pages"]) + int(index.meta["page_bytes"])
    )


def test_in_place_corruption_is_still_caught_with_a_stale_size():
    """The corruption suite rewrites one page inside a group's buffer
    under a payload whose size was fixed at write time.  The size goes
    stale (it describes the file as written); detection does not depend
    on it."""
    hdfs, _, _ = _index()
    before = hdfs.file_nbytes("idx/pages")
    ((_, (blocks, _)),) = hdfs._files["idx/pages"][0].payload.records
    _corrupt_record(hdfs, lambda pid, blob: (pid, blob[:7]))
    ((_, (shorter, _)),) = hdfs._files["idx/pages"][0].payload.records
    assert len(shorter) < len(blocks)
    assert hdfs.file_nbytes("idx/pages") == before
    with pytest.raises(IndexCorruptError, match="page 0"):
        PersistentRTree.open(hdfs, "idx").query_rect(EVERYWHERE)


# -- failure paths of the single-chunk read -----------------------------------


def test_lost_page_group_fails_only_the_queries_that_read_it(monkeypatch):
    hdfs, pts, index = _index(replication=1)
    lookups = _count_calls(monkeypatch, SimulatedHDFS, "chunk")
    lat, lon = pts[0].tolist()
    want = index.query_point(lat, lon)
    touched = {ordinal for _, _, ordinal in lookups}
    replicas = [c.replicas[0] for c in hdfs.chunks("idx/pages")]
    needed = {replicas[i] for i in touched}
    victim = next(node for node in replicas if node not in needed)
    hdfs.kill_datanode(victim)

    reopened = PersistentRTree.open(hdfs, "idx")
    assert np.array_equal(reopened.query_point(lat, lon), want)
    with pytest.raises(IOError, match="lost all replicas"):
        reopened.query_rect(EVERYWHERE)
    with pytest.raises(IOError, match="lost all replicas"):
        reopened.to_portable()


def test_deleted_pages_file_is_typed_error():
    hdfs, _, _ = _index()
    index = PersistentRTree.open(hdfs, "idx")
    hdfs.delete("idx/pages")
    with pytest.raises(IndexCorruptError, match="pages file missing"):
        index.query_rect(EVERYWHERE)


def test_chunk_start_past_the_end_is_typed_error():
    hdfs, _, index = _index()
    n_pages = int(index.meta["n_pages"])
    n_chunks = len(index.meta["chunk_starts"])
    meta = dict(index.meta, chunk_starts=[*index.meta["chunk_starts"], n_pages - 1])
    broken = PersistentRTree(hdfs, "idx", meta)
    with pytest.raises(IndexCorruptError, match=f"chunk ordinal {n_chunks} missing"):
        broken.query_rect(EVERYWHERE)


def test_empty_chunk_table_is_typed_error():
    hdfs, _, index = _index()
    broken = PersistentRTree(hdfs, "idx", dict(index.meta, chunk_starts=[]))
    with pytest.raises(IndexCorruptError, match="chunk ordinal -1 missing"):
        broken.query_rect(EVERYWHERE)


# -- the group record: residency and portability -------------------------------


def _owner(array: np.ndarray):
    """The object whose memory ``array`` views."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def test_decoded_pages_never_pin_their_group():
    """A decoded page copies its own block out of the group buffer, so
    after the store pages a group out no cached node keeps it alive."""
    hdfs, pts, _ = _index(budget_mb=0.02)
    blocks = persistent._pages_from_tree(RTree.bulk_load(pts, max_entries=8))
    index = PersistentRTree.open(hdfs, "idx")
    index.query_rect(EVERYWHERE)
    lat, lon = pts[0].tolist()
    index.knn(lat, lon, 25)
    assert hdfs.spill_stats.pages_out > 0 and hdfs.spill_stats.pages_in > 0
    cache = index.tree._resolve.__self__._cache
    assert len(cache) == 128
    for page_id, node in cache.items():
        arrays = [node.mbr, node.ids, node.points, node.child_mbrs]
        for array in (a for a in arrays if a is not None):
            assert len(_owner(array)) == len(blocks[page_id])


def test_portable_copy_is_the_page_blobs_it_was():
    """``to_portable`` slices the groups back into the per-page blobs,
    and the broadcast form pickles to as many bytes as when the pages
    file held one record per page (SHA-256 and length recorded then)."""
    hdfs, pts, index = _index(budget_mb=0.02)
    portable = index.to_portable()
    assert portable._blobs == persistent._pages_from_tree(RTree.bulk_load(pts, max_entries=8))
    assert hashlib.sha256(b"".join(portable._blobs)).hexdigest() == (
        "f830c89b0a0da83f9776cd45dab808fb8c50a9cfeeb99964e6d8f5d092889687"
    )
    assert len(pickle.dumps(portable, protocol=5)) == 110072
