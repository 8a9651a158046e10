"""Crash-recovery and corruption detection for the persistent R-tree.

Every on-disk failure mode a serving path can meet — a truncated node
block, a flipped body byte (checksum), a mangled magic, a page group
keyed by the wrong page, a truncated group buffer, a torn offset table, a
missing meta, a missing or dangling catalog entry — must surface as the
typed :class:`IndexCorruptError`, never as a wrong answer or a bare
struct/numpy exception.  And after the catalog entry is
wiped, ``ensure`` must rebuild an index whose answers are byte-identical
to the original's.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.geo.trace import TraceArray
from repro.index.persistent import (
    IndexCatalog,
    IndexCorruptError,
    PersistentRTree,
    QueryEngine,
)
from repro.index.rtree import Rect, RTree
from repro.mapreduce.cluster import paper_cluster
from repro.mapreduce.hdfs import SimulatedHDFS
from repro.mapreduce.runner import JobRunner

RECT = Rect(39.5, 115.5, 40.5, 117.5)


def _deployment():
    """An unbudgeted deployment with a multi-chunk persisted index.

    Unbudgeted matters: ``chunks()`` then shares payload objects with
    the namenode's own entries, so mutating a record in place is exactly
    a disk-block corruption — no API needs a corruption hook.
    """
    rng = np.random.default_rng(11)
    pts = np.column_stack(
        (rng.uniform(39.0, 41.0, 400), rng.uniform(115.0, 118.0, 400))
    )
    tree = RTree.bulk_load(pts, max_entries=8)
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=64 * 1024, seed=0)
    PersistentRTree.save(hdfs, "idx", tree, group_bytes=2048)
    return hdfs, tree


def _corrupt_group(hdfs, mutate, chunk_i=0):
    """Replace page group ``chunk_i`` of ``idx/pages`` in place:
    ``mutate(first_page_id, blocks, ends)`` returns the new triple."""
    payload = hdfs._files["idx/pages"][chunk_i].payload
    ((first, (blocks, ends)),) = payload.records
    first, blocks, ends = mutate(first, blocks, ends.copy())
    payload.records[0] = (first, (blocks, ends))


def _corrupt_record(hdfs, mutate, chunk_i=0, record_j=0):
    """Replace page ``record_j`` inside page group ``chunk_i``'s buffer:
    ``mutate(page_id, blob)`` returns the new ``(page_id, blob)``, and the
    group's buffer and end offsets are rewritten around the new blob.  A
    new page id relabels the group: its key becomes that id less
    ``record_j``."""

    def replace_page(first, blocks, ends):
        starts = [0, *ends[:-1].tolist()]
        blobs = [blocks[a:b] for a, b in zip(starts, ends.tolist())]
        page_id, blobs[record_j] = mutate(first + record_j, blobs[record_j])
        ends = np.cumsum([len(b) for b in blobs], dtype=np.int64)
        return page_id - record_j, b"".join(blobs), ends

    _corrupt_group(hdfs, replace_page, chunk_i)


def test_truncated_block_is_typed_error():
    hdfs, _ = _deployment()
    _corrupt_record(hdfs, lambda pid, blob: (pid, blob[:7]))
    index = PersistentRTree.open(hdfs, "idx")
    with pytest.raises(IndexCorruptError, match="page 0"):
        index.query_rect(RECT)


def test_checksum_mismatch_is_typed_error():
    hdfs, _ = _deployment()

    def flip_body_byte(pid, blob):
        body = bytearray(blob)
        body[-1] ^= 0xFF
        return pid, bytes(body)

    _corrupt_record(hdfs, flip_body_byte)
    index = PersistentRTree.open(hdfs, "idx")
    with pytest.raises(IndexCorruptError, match="checksum mismatch"):
        index.query_rect(RECT)


def test_bad_magic_is_typed_error():
    hdfs, _ = _deployment()
    _corrupt_record(hdfs, lambda pid, blob: (pid, b"XXXX" + blob[4:]))
    index = PersistentRTree.open(hdfs, "idx")
    with pytest.raises(IndexCorruptError, match="magic"):
        index.query_rect(RECT)


def test_mislabeled_page_record_is_typed_error():
    hdfs, _ = _deployment()
    # Page bytes are fine; the group claims the wrong first page id, so a
    # read of page 0 would silently return another node's data.
    _corrupt_record(hdfs, lambda pid, blob: (pid + 1, blob))
    index = PersistentRTree.open(hdfs, "idx")
    with pytest.raises(IndexCorruptError):
        index.query_rect(RECT)


def test_corruption_surfaces_through_engine_and_portable():
    hdfs, _ = _deployment()
    _corrupt_record(hdfs, lambda pid, blob: (pid, blob[:7]))
    index = PersistentRTree.open(hdfs, "idx")
    engine = QueryEngine(index, hdfs=hdfs)
    with pytest.raises(IndexCorruptError):
        engine.range(39.5, 115.5, 40.5, 117.5)
    # to_portable copies raw blobs; the decode (and the error) happens
    # at first query through the portable facade.
    portable = index.to_portable()
    with pytest.raises(IndexCorruptError):
        portable.query_rect(RECT)


def test_missing_meta_is_typed_error():
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=64 * 1024, seed=0)
    with pytest.raises(IndexCorruptError, match="no persisted index"):
        PersistentRTree.open(hdfs, "nowhere")


def test_missing_pages_fail_at_read():
    hdfs, _ = _deployment()
    hdfs.delete("idx/pages")
    index = PersistentRTree.open(hdfs, "idx")  # meta alone still opens
    with pytest.raises(IndexCorruptError, match="pages"):
        index.query_rect(RECT)


def _catalog_deployment():
    rng = np.random.default_rng(5)
    lat = rng.uniform(39.6, 40.3, 4000)
    lon = rng.uniform(116.0, 116.8, 4000)
    ts = np.arange(4000, dtype=np.float64)
    corpus = TraceArray.from_columns(["u"], lat, lon, ts)
    hdfs = SimulatedHDFS(paper_cluster(3), chunk_size=64 * 1024, seed=0)
    hdfs.put_trace_array("input/traces", corpus)
    return hdfs


def test_missing_catalog_entry_is_typed_error():
    hdfs = _catalog_deployment()
    catalog = IndexCatalog(hdfs)
    with pytest.raises(IndexCorruptError, match="no catalog entry"):
        catalog.entry("deadbeefdeadbeef")
    with pytest.raises(IndexCorruptError, match="no catalog entry"):
        catalog.open("deadbeefdeadbeef")


def test_dangling_catalog_entry_is_typed_error():
    hdfs = _catalog_deployment()
    catalog = IndexCatalog(hdfs)
    with JobRunner(hdfs, executor="serial") as runner:
        catalog.ensure(runner, "input/traces", n_partitions=2)
    (entry,) = catalog.entries()
    hdfs.delete(f"{entry.path}/meta")
    with pytest.raises(IndexCorruptError, match="dangles"):
        catalog.entry(entry.key)
    # entries() skips (rather than crashes on) dangling rows.
    assert catalog.entries() == []


def test_catalog_rebuild_restores_byte_identical_answers():
    hdfs = _catalog_deployment()
    catalog = IndexCatalog(hdfs)
    with JobRunner(hdfs, executor="serial") as runner:
        index, built = catalog.ensure(runner, "input/traces", n_partitions=2)
        assert built
        want_rect = index.query_rect(RECT)
        want_knn = index.knn(40.0, 116.4, 7)
        meta = dict(index.meta)

        key = catalog.entries()[0].key
        for part in ("entry", "meta", "pages"):
            hdfs.delete(f"{catalog.path_for(key)}/{part}")
        rebuilt, built_again = catalog.ensure(runner, "input/traces", n_partitions=2)
        assert built_again
        assert rebuilt.meta == meta
        assert np.array_equal(rebuilt.query_rect(RECT), want_rect)
        assert rebuilt.knn(40.0, 116.4, 7) == want_knn


EVERYWHERE = Rect(-90.0, -180.0, 90.0, 180.0)  # a query that reads every page


def _meta(hdfs):
    return hdfs._files["idx/meta"][0].payload.records[0][1]


def test_body_length_mismatch_is_typed_error():
    """A block whose checksum holds but whose body is longer than its
    entry count says (a torn write re-checksummed) is refused."""
    hdfs, _ = _deployment()

    def pad_body(pid, blob):
        body = blob[8:] + b"\0" * 8
        return pid, b"RTP1" + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF) + body

    _corrupt_record(hdfs, pad_body)
    with pytest.raises(IndexCorruptError, match="body length"):
        PersistentRTree.open(hdfs, "idx").query_rect(RECT)


def test_page_past_the_meta_count_is_typed_error():
    hdfs, _ = _deployment()
    _meta(hdfs)["n_pages"] -= 1
    with pytest.raises(IndexCorruptError, match="out of range"):
        PersistentRTree.open(hdfs, "idx").query_rect(EVERYWHERE)


def test_lost_pages_chunk_is_typed_error():
    hdfs, _ = _deployment()
    hdfs._files["idx/pages"].pop()
    with pytest.raises(IndexCorruptError, match="chunk ordinal .* missing"):
        PersistentRTree.open(hdfs, "idx").query_rect(EVERYWHERE)


def test_non_record_pages_chunk_is_typed_error():
    hdfs, _ = _deployment()
    hdfs.put_trace_array("traces", TraceArray.from_columns(["u"], [40.0], [116.0], [0.0]))
    hdfs._files["idx/pages"][0] = hdfs._files["traces"][0]
    with pytest.raises(IndexCorruptError, match="not a record payload"):
        PersistentRTree.open(hdfs, "idx").query_rect(EVERYWHERE)


def test_page_missing_from_its_chunk_is_typed_error():
    hdfs, _ = _deployment()
    hdfs._files["idx/pages"][0].payload.records.pop()
    with pytest.raises(IndexCorruptError, match="missing from chunk 0"):
        PersistentRTree.open(hdfs, "idx").query_rect(EVERYWHERE)


@pytest.mark.parametrize(
    ("records", "match"),
    [
        ([], "not an index meta record"),
        ([("meta", "garbled")], "not an index meta record"),
        ([("meta", {"format": "rtree-pages-v0"})], "unknown index format"),
    ],
)
def test_garbled_meta_is_typed_error(records, match):
    hdfs, _ = _deployment()
    hdfs.delete("idx/meta")
    hdfs.put_records("idx/meta", records)
    with pytest.raises(IndexCorruptError, match=match):
        PersistentRTree.open(hdfs, "idx")


def test_portable_copy_refuses_a_foreign_page_id():
    hdfs, _ = _deployment()
    _corrupt_record(hdfs, lambda pid, blob: (10**6, blob))
    with pytest.raises(IndexCorruptError, match="out of range"):
        PersistentRTree.open(hdfs, "idx").to_portable()


def test_portable_copy_refuses_a_missing_page():
    hdfs, _ = _deployment()
    hdfs._files["idx/pages"][0].payload.records.pop()
    with pytest.raises(IndexCorruptError, match="expected .* pages, found"):
        PersistentRTree.open(hdfs, "idx").to_portable()


def test_page_groups_must_hold_bytes():
    hdfs = SimulatedHDFS(paper_cluster(2), chunk_size=64 * 1024, seed=0)
    tree = RTree.bulk_load(np.array([[40.0, 116.0]]), max_entries=8)
    with pytest.raises(ValueError, match="group_bytes must be positive"):
        PersistentRTree.save(hdfs, "idx", tree, group_bytes=0)


# -- the group record: buffer and offset table --------------------------------


def _truncate_buffer(first, blocks, ends):
    return first, blocks[:-5], ends


def _swap_offsets(first, blocks, ends):
    ends[1], ends[2] = ends[2], ends[1]
    return first, blocks, ends


def _offset_past_the_end(first, blocks, ends):
    ends[1] = len(blocks) + 64
    return first, blocks, ends


def _last_offset_past_the_end(first, blocks, ends):
    ends[-1] += 8
    return first, blocks, ends


def _drop_an_offset(first, blocks, ends):
    return first, blocks, np.delete(ends, 1)


def _drop_the_last_offset(first, blocks, ends):
    return first, blocks, ends[:-1]


def _wrong_first_page(first, blocks, ends):
    return first + 1, blocks, ends


GROUP_CORRUPTIONS = {
    "truncated buffer": _truncate_buffer,
    "non-monotone offsets": _swap_offsets,
    "offset past the buffer's end": _offset_past_the_end,
    "last offset past the buffer's end": _last_offset_past_the_end,
    "table shorter than the group (inner)": _drop_an_offset,
    "table shorter than the group (tail)": _drop_the_last_offset,
    "group keyed by the wrong first page": _wrong_first_page,
}


@pytest.mark.parametrize("chunk_i", [0, 3])
@pytest.mark.parametrize("corruption", sorted(GROUP_CORRUPTIONS))
def test_corrupt_group_is_typed_error_everywhere(corruption, chunk_i):
    """A damaged group fails the query that reads it, the serving engine
    and the portable copy alike, and no query returns a wrong answer."""
    hdfs, tree = _deployment()
    assert len(hdfs.chunks("idx/pages")) > chunk_i
    _corrupt_group(hdfs, GROUP_CORRUPTIONS[corruption], chunk_i)
    index = PersistentRTree.open(hdfs, "idx")
    with pytest.raises(IndexCorruptError):
        index.query_rect(EVERYWHERE)
    with pytest.raises(IndexCorruptError):
        QueryEngine(index, hdfs=hdfs).range(-90.0, -180.0, 90.0, 180.0)
    with pytest.raises(IndexCorruptError):
        index.to_portable()
    rs = np.random.RandomState(2)
    fresh = PersistentRTree.open(hdfs, "idx")
    for lat, lon in zip(rs.uniform(39.0, 41.0, 40), rs.uniform(115.0, 118.0, 40)):
        rect = Rect(lat - 0.2, lon - 0.3, lat + 0.2, lon + 0.3)
        try:
            got = fresh.query_rect(rect)
        except IndexCorruptError:
            continue
        assert np.array_equal(got, tree.query_rect(rect))


@pytest.mark.parametrize(
    ("records", "match"),
    [
        ([(0, b"RTP1")], "not one page group"),
        ([(0, (b"x", np.ones(1, dtype=np.int32)))], "not one page group"),
        ([(0, (b"x", np.ones(1, dtype=np.int64))), (1, (b"x", np.ones(1, dtype=np.int64)))],
         "not one page group"),
    ],
)
def test_a_chunk_that_is_not_one_group_is_typed_error(records, match):
    hdfs, _ = _deployment()
    hdfs._files["idx/pages"][0].payload.records[:] = records
    with pytest.raises(IndexCorruptError, match=match):
        PersistentRTree.open(hdfs, "idx").query_rect(RECT)
    with pytest.raises(IndexCorruptError, match=match):
        PersistentRTree.open(hdfs, "idx").to_portable()


def test_an_older_format_is_refused():
    hdfs, _ = _deployment()
    _meta(hdfs)["format"] = "rtree-pages-v1"
    with pytest.raises(IndexCorruptError, match="unknown index format 'rtree-pages-v1'"):
        PersistentRTree.open(hdfs, "idx")
