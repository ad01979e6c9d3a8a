"""Deterministic synthetic webtext CDC corpus (FIXTURES.md).

Generates the ``pages`` base snapshot and the ``events`` change log with the
exact column shapes from BASELINE.json ``input_hint``. Fully seeded and
vectorized (numpy/pandas) so the bench-scale corpus (200k pages / 2M events)
generates in seconds. Modeled on the reference's deterministic test sources
(gobblin-core-base/.../test/SequentialTestSource.java:57).

Log layout on disk: ``events/part-NNNNN.parquet`` shards of ``shard_rows``
events each, plus ``events/_meta.json`` recording per-shard
``[min_seq, max_seq]`` and schema version — the planner's file-pruning input
(KafkaSource offset-planning analog). Shards at ``event_seq >= 0.6*E`` carry
the additive ``fetch_status`` column (schema-evolution segment, FIXTURES §3).
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .schema import EVENTS_SCHEMA, EVENTS_V2_SCHEMA, PAGES_SCHEMA

SEED = 42
T0 = np.datetime64("2026-01-01T00:00:00", "us")
LANGS = np.array(["en", "de", "fr", "es", "zh"])
_TAG_RE = re.compile(r"<[^>]*>")

_WORDS = np.array(
    "the fast key order sort table scan merge part window small hash join batch "
    "stream spark dup group query row data slow filter customer line value agg "
    "column big vector crawl page web text html fetch index rank token".split()
)


def strip_tags(html: bytes) -> str:
    """The fixed extraction rule: text == html with tags stripped."""
    return _TAG_RE.sub("", html.decode("utf-8"))


def _filler_pool(rng: np.random.Generator, n_pool: int = 512) -> np.ndarray:
    """Pool of deterministic filler strings with lengths ~150-1900 chars."""
    pool = []
    for _ in range(n_pool):
        n_words = int(rng.integers(30, 380))
        pool.append(" ".join(rng.choice(_WORDS, n_words)))
    return np.array(pool, dtype=object)


def _zipf_indices(rng: np.random.Generator, a: float, size: int, n: int) -> np.ndarray:
    """Zipf-distributed indices in [0, n) — hot-prefix skew is intentional."""
    z = rng.zipf(a, size=size)
    return (z - 1) % n


def _join(*parts) -> "pa.Array":
    """Element-wise concat of string arrays/scalars via one Arrow C kernel."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(*parts, "")


def _make_urls(
    sites: np.ndarray,
    page_idx: np.ndarray,
    mint_idx: np.ndarray,
    row_ids: np.ndarray | None = None,
) -> "pa.Array":
    """Vectorized url synthesis: https://site{s}.example/p{idx:08d}, with
    rows in ``mint_idx`` minted as .../new{row_id:08d} instead."""
    import pyarrow.compute as pc

    site_str = pc.cast(pa.array(sites.astype(np.int64)), pa.string())
    path = pc.utf8_lpad(
        pc.cast(pa.array(page_idx.astype(np.int64)), pa.string()), 8, "0"
    )
    url = _join("https://site", site_str, ".example/p", path)
    if len(mint_idx):
        n = len(sites)
        if row_ids is None:
            row_ids = np.arange(n, dtype=np.int64)
        mint_mask = np.zeros(n, dtype=bool)
        mint_mask[mint_idx] = True
        row_path = pc.utf8_lpad(
            pc.cast(pa.array(row_ids.astype(np.int64)), pa.string()), 8, "0"
        )
        minted = _join("https://site", site_str, ".example/new", row_path)
        url = pc.if_else(pa.array(mint_mask), minted, url)
    return url


def make_pages(n_rows: int, seed: int = SEED) -> pa.Table:
    """Base snapshot: unique urls, deterministic html/text pairs.
    Assembled with vectorized Arrow string kernels (see make_events)."""
    import pyarrow.compute as pc

    rng = np.random.default_rng(seed)
    pool = _filler_pool(rng)
    i = np.arange(n_rows)
    sites = _zipf_indices(rng, 1.3, n_rows, max(8, n_rows // 64))
    url = _make_urls(sites, i, mint_idx=np.array([], dtype=np.int64))
    warc_ts = T0 + i.astype("timedelta64[s]").astype("timedelta64[us]")
    text = _join(
        "page ",
        url,
        " rev 0 ",
        pa.array(pool, pa.string()).take(pa.array(rng.integers(0, len(pool), n_rows))),
    )
    html = pc.cast(_join("<html><body>", text, "</body></html>"), pa.binary())
    lang = pa.array(LANGS, pa.string()).take(
        pa.array(rng.integers(0, len(LANGS), n_rows))
    )
    return pa.Table.from_arrays(
        [url, pa.array(warc_ts, pa.timestamp("us")), html, text, lang],
        schema=PAGES_SCHEMA,
    )


def make_events(
    n_events: int,
    n_pages: int,
    seed: int = SEED,
    evolve_at: float = 0.6,
) -> tuple[pa.Table, pa.Table]:
    """The CDC log as (v1_segment, v2_segment) tables.

    op ~ {insert: .25, update: .65, delete: .10}; urls zipf(a=1.2) over the
    page universe (inserts may mint new urls); 5% late events carry an older
    warc_ts (must lose LWW); ~1% duplicate (url, warc_ts) pairs exercise the
    event_seq tiebreak.  v2 segment (seq >= evolve_at*E) adds fetch_status.
    """
    import pyarrow.compute as pc

    rng = np.random.default_rng(seed + 1)
    pool = _filler_pool(rng)
    pool_arr = pa.array(pool, pa.string())
    lang_pool = pa.array(LANGS, pa.string())
    i = np.arange(n_events)
    seq = i.astype(np.int64)

    # All cheap (numeric) draws happen globally up front so results are
    # independent of the string-chunking below.
    op_draw = rng.random(n_events)
    op = np.where(op_draw < 0.25, "insert", np.where(op_draw < 0.90, "update", "delete"))
    sites = _zipf_indices(rng, 1.3, n_events, max(8, n_pages // 64))
    page_idx = _zipf_indices(rng, 1.2, n_events, n_pages)
    mint = (op == "insert") & (rng.random(n_events) < 0.34)
    row_id = i.copy()  # minted urls embed the row id

    # Event time: mostly increasing; 5% late (older than the current row).
    base_s = (n_pages + i).astype(np.int64)
    late = rng.random(n_events) < 0.05
    base_s[late] = base_s[late] // 2
    warc_ts = T0 + base_s.astype("timedelta64[s]").astype("timedelta64[us]")
    # ~1% exact duplicate (url, warc_ts) of the previous event (tiebreak on
    # seq): copy the previous event's url-defining fields + timestamp.
    dup = np.flatnonzero(rng.random(n_events) < 0.01)
    dup = dup[dup > 0]
    for arr in (sites, page_idx, mint, row_id):
        arr[dup] = arr[dup - 1]
    warc_ts[dup] = warc_ts[dup - 1]
    op[dup] = np.where(op[dup] == "delete", "update", op[dup])

    pick = rng.integers(0, len(pool), n_events)
    lang_pick = rng.integers(0, len(LANGS), n_events)
    fetch_status = rng.choice(np.array([200, 301, 404], np.int32), n_events)
    is_del = op == "delete"

    # String assembly in Arrow C kernels, CHUNKED: a single string array is
    # capped at 2 GiB (int32 offsets), and ~1 KB texts x millions of rows
    # blow past it — also pandas object-Series concat (the first
    # implementation) was 50x slower. Chunk boundaries align to the schema
    # cut so the two segments slice cleanly.
    cut = int(n_events * evolve_at)
    chunk_rows = 250_000
    bounds = sorted({0, cut, n_events} | set(range(0, n_events, chunk_rows)))
    null_str = pa.scalar(None, pa.string())

    def chunk(lo: int, hi: int) -> list[pa.Array]:
        url = _make_urls(
            sites[lo:hi], page_idx[lo:hi], np.flatnonzero(mint[lo:hi]),
            row_ids=row_id[lo:hi],
        )
        text = _join(
            "page ", url, " rev ",
            pc.cast(pa.array(seq[lo:hi]), pa.string()), " ",
            pool_arr.take(pa.array(pick[lo:hi])),
        )
        html = _join("<html><body>", text, "</body></html>")
        del_mask = pa.array(is_del[lo:hi])
        return [
            pa.array(seq[lo:hi]),
            pa.array(op[lo:hi], pa.string()),
            url,
            pa.array(warc_ts[lo:hi], pa.timestamp("us")),
            pc.cast(pc.if_else(del_mask, null_str, html), pa.binary()),
            pc.if_else(del_mask, null_str, text),
            pc.if_else(del_mask, null_str, lang_pool.take(pa.array(lang_pick[lo:hi]))),
        ]

    def build(lo: int, hi: int, v2: bool) -> pa.Table:
        tables = []
        bs = [b for b in bounds if lo <= b < hi] + [hi]
        for clo, chi in zip(bs, bs[1:]):
            arrays = chunk(clo, chi)
            schema = EVENTS_SCHEMA
            if v2:
                arrays.append(pa.array(fetch_status[clo:chi]))
                schema = EVENTS_V2_SCHEMA
            tables.append(pa.Table.from_arrays(arrays, schema=schema))
        return pa.concat_tables(tables)

    return build(0, cut, False), build(cut, n_events, True)


def write_corpus(
    out_dir: str,
    n_pages: int = 2_000,
    n_events: int = 20_000,
    shard_rows: int = 2_000,
    seed: int = SEED,
    row_group_rows: int | None = None,
) -> dict:
    """Materialize pages.parquet + events/part-*.parquet + events/_meta.json.

    Idempotent: if _meta.json exists with matching parameters, reuse.

    ``row_group_rows`` (default shard_rows/8, floor 2048) sets the Parquet
    row-group size inside each shard: row groups are the unit of BOTH
    predicate pushdown and read-task splitting, so a shard written as one
    monolithic group caps an epoch's map-side parallelism at the shard
    count (measured: 2-3 read tasks per 250k-event epoch regardless of
    CPUs). A log writer on a real cluster would do the same — segment
    files sized for transport, row groups sized for scan parallelism.
    """
    if row_group_rows is None:
        row_group_rows = max(2_048, shard_rows // 8)
    meta_path = os.path.join(out_dir, "events", "_meta.json")
    params = {
        "n_pages": n_pages, "n_events": n_events, "shard_rows": shard_rows,
        "seed": seed, "row_group_rows": row_group_rows,
    }
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        if meta.get("params") == params:
            return meta

    os.makedirs(os.path.join(out_dir, "events"), exist_ok=True)
    pages = make_pages(n_pages, seed)
    pq.write_table(pages, os.path.join(out_dir, "pages.parquet"))
    v1, v2 = make_events(n_events, n_pages, seed)

    shards = []
    part = 0
    for tbl, version in ((v1, 1), (v2, 2)):
        for lo in range(0, tbl.num_rows, shard_rows):
            chunk = tbl.slice(lo, shard_rows)
            name = f"part-{part:05d}.parquet"
            pq.write_table(
                chunk,
                os.path.join(out_dir, "events", name),
                compression="zstd",
                compression_level=3,
                row_group_size=row_group_rows,
            )
            seqs = chunk.column("event_seq")
            shards.append(
                {
                    "file": name,
                    "min_seq": int(seqs[0].as_py()),
                    "max_seq": int(seqs[-1].as_py()),
                    "rows": chunk.num_rows,
                    "bytes": os.path.getsize(os.path.join(out_dir, "events", name)),
                    "schema_version": version,
                }
            )
            part += 1

    meta = {"params": params, "shards": shards, "max_seq": n_events - 1}
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f, indent=1)
    os.replace(tmp, meta_path)
    return meta
