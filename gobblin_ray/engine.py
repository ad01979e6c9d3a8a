"""CdcEngine: the epoch-loop driver — plan → apply → two-phase commit.

The Ray-Data-native re-expression of Gobblin's job lifecycle
(AbstractJobLauncher.launchJob, gobblin-runtime/.../AbstractJobLauncher.java:433):

    resume from checkpoint manifest            # commit-sequence replay :453-458
    for each epoch in plan_epochs(log, wm):    # Source.getWorkunits analog
        map tasks, one per run of pruned parquet row groups / avro blocks:
            read + (low, high] filter + conform
            renames, transforms, row policies  # Converter + RowLevelPolicy
            bucket + salt + partial LWW dedup   # combiner pre-agg
            -> one url-disjoint slot per bucket (per salt if hot)
        [hot bucket] salted_partial task per (bucket, salt): partial LWW
        merge_bucket tasks, min(touched buckets, CPUs) packed largest-first
          (+ one per hot bucket): merge each bucket -> staged parquet
        _commit (the one tail of every manifest writer):
          promote staged files (idempotent)    # FsRenameCommitStep analog
          fold counters, commit manifest       # DatasetStateCommitStep analog

Heavy data never returns to the driver: slots travel between tasks by
reference, merge tasks write bucket base files directly and return only
tiny lineage rows. Exactly-once follows from deterministic staged names +
idempotent promote + the manifest appearing last (SURVEY.md §4.4).

Scale posture: per-epoch driver work is O(shards + buckets); the single
all-to-all per epoch is a push exchange of plain Ray tasks that routes by
the ``url_bucket`` id the map side computes — no sort — and its payload has
already been collapsed by the map-side LWW partial dedup (and, for hot
buckets, a salted partial-merge stage). The snapshot load (``bootstrap``)
and the bucket-count migration (``rebucket``) route through the same
exchange. Buckets (``num_buckets``) are sized
so one bucket's base file fits comfortably in a worker's heap — at 100 TB
raise ``num_buckets``, not the block size.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import checkpoint as ckpt
from . import plan as planmod
from .checkpoint import BucketState, CheckpointStore, Manifest
from .merge import live_rows, lww_reduce, merge_base_with_events, merge_bases
from .schema import (OPS, apply_renames, conform,
                     rename_schema, schema_fingerprint, unify_additive)

_ERR_COL = "_err"
_BUCKET_COL = "url_bucket"
_SALT_COL = "_salt"
_N_COL = "_n"  # raw events represented by a partially-reduced row (lineage)


def _poly_hash_segment(
    data: np.ndarray, off: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """Polynomial hash of variable-length byte segments, fully vectorized:
    h(s) = sum(s[i] * 131^i) mod 2^64, then a splitmix64 finalizer mixed
    with the length. ``off`` is the (len+1) offsets array rebased to 0."""
    lens = np.diff(off).astype(np.uint64)
    if len(data):
        pos = np.arange(len(data), dtype=np.int32) - np.repeat(
            off[:-1], np.diff(off)
        ).astype(np.int32)
        # one zero pad so a trailing empty segment's start index
        # (== len(data)) is a valid reduceat index — clamping instead
        # would silently drop the last byte of the preceding segment
        terms = np.empty(len(data) + 1, dtype=np.uint64)
        terms[-1] = 0
        np.multiply(data, powers[pos], out=terms[:-1], casting="unsafe")
        h = np.add.reduceat(terms, off[:-1])
        h[lens == 0] = 0  # reduceat yields terms[i] for empty segments
    else:
        h = np.zeros(len(off) - 1, dtype=np.uint64)
    # splitmix64 finalizer (public-domain constant set) for avalanche —
    # raw polynomial low bits are too regular for `% num_buckets`.
    z = h + lens * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


_HASH_CHUNK_BYTES = 1 << 18  # 256 KB of string data per numpy temporary —
# measured fastest on this host (0.27 s / 500k urls vs 0.45 s at 1 MB and
# 0.36 s for the old pandas-siphash + object boxing path)


def _ts_range_us(tbl: pa.Table) -> tuple[int | None, int | None]:
    """[min, max] of warc_ts in epoch-us for the manifest zone map, or
    (None, None) when the table is empty / all-null."""
    if tbl.num_rows == 0 or "warc_ts" not in tbl.column_names:
        return None, None
    col = tbl.column("warc_ts")
    if col.null_count == len(col):
        return None, None
    mm = pc.min_max(col)
    return (
        int(mm["min"].cast(pa.int64()).as_py()),
        int(mm["max"].cast(pa.int64()).as_py()),
    )


def _ts_us(v) -> int:
    """Any reasonable timestamp literal (datetime, numpy datetime64, ISO
    string, pa scalar) -> epoch microseconds, for the pruned-read window."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    return int(pa.scalar(v).cast(pa.timestamp("us")).cast(pa.int64()).as_py())


def stable_hash_u64(values: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic (cross-process, seed-independent) uint64 hash of a
    string column, computed directly on the zero-copy Arrow buffers — no
    per-element Python boxing (the previous pandas-siphash version paid an
    object-array conversion per batch on the hottest per-event path).
    Vectorized segmented polynomial + splitmix64 finalizer; temporaries
    chunked at ``_HASH_CHUNK_BYTES`` (256 KB — measured fastest on this
    host; large numpy temporaries fault cold pages). Nulls hash as empty
    strings. Python's builtin hash() is salted per process and must never
    be used here.

    NOTE: the hash value IS the lake's bucket-routing function — changing
    it invalidates existing lakes (bucket dirs were assigned under the
    old function). Versioned EXPLICITLY: every manifest records
    ``bucket_hash`` (checkpoint.BUCKET_HASH_VERSION) and the engine
    refuses to resume a lake built under a different router."""
    if isinstance(values, pa.ChunkedArray):
        arr = values.combine_chunks()
    else:
        arr = values
    if arr.null_count:
        arr = arr.fill_null("")
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        odtype = np.int64
    else:
        odtype = np.int32
    bufs = arr.buffers()
    offsets = np.frombuffer(
        bufs[1], dtype=odtype, count=n + 1, offset=arr.offset * odtype().itemsize
    ).astype(np.int64)
    data_all = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] else np.empty(
        0, np.uint8
    )
    max_len = int(np.diff(offsets).max(initial=0))
    powers = np.empty(max(max_len, 1), dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(
        np.full(max_len - 1, 131, np.uint64), out=powers[1:]
    ) if max_len > 1 else None
    out = np.empty(n, dtype=np.uint64)
    i = 0
    while i < n:
        j = i + 1
        base = offsets[i]
        while j < n and offsets[j + 1] - base <= _HASH_CHUNK_BYTES:
            j += 1
        off = offsets[i : j + 1] - base
        data = data_all[base : offsets[j]]
        out[i:j] = _poly_hash_segment(data, off, powers)
        i = j
    return out


def _bucket_ids(urls: pa.ChunkedArray | pa.Array, num_buckets: int) -> np.ndarray:
    """The lake's router: each url's bucket, ``stable_hash_u64(url) %
    num_buckets``, as int32. Every write routes rows through it and every
    bucket-pruned read finds a url's bucket with it."""
    return (stable_hash_u64(urls) % num_buckets).astype(np.int32)


def _urls_by_bucket(urls, num_buckets: int) -> dict[int, list[str]]:
    """The distinct non-null ``urls`` grouped by owning bucket, each group
    sorted — the key plan of the bucket-targeted point operations."""
    uniq = sorted({u for u in urls if u is not None})
    by_bucket: dict[int, list[str]] = {}
    for u, b in zip(uniq, _bucket_ids(pa.array(uniq, pa.string()), num_buckets)):
        by_bucket.setdefault(int(b), []).append(u)
    return by_bucket


def _check_router(manifest: Manifest) -> None:
    """Refuse a lake laid out by another url->bucket router. The hash IS
    the physical layout: applying events, purging keys or looking them up
    with a different router would go to the wrong bucket — silent
    duplicates, undeletable rows, missed purges. ``rebucket`` rewrites the
    lake under the current router; otherwise it must be re-bootstrapped."""
    if manifest.bucket_hash != ckpt.BUCKET_HASH_VERSION:
        raise RuntimeError(
            f"lake was built with bucket router {manifest.bucket_hash!r} "
            f"but this engine uses {ckpt.BUCKET_HASH_VERSION!r}; rebucket "
            "or re-bootstrap the lake (bucket assignment is not portable "
            "across hash versions)"
        )


def _idle_bucket(s: BucketState, high_seq: int) -> BucketState:
    """A bucket that applies no events in a commit: files, zone map and
    lineage carried, watermark at ``high_seq``, and the per-epoch salt-plan
    inputs (``events_epoch``, ``merge_sec``, ``salt_carry``) zeroed."""
    return dataclasses.replace(
        s, high_seq=high_seq, events_epoch=0, merge_sec=0.0, salt_carry=0,
        delta_epochs=list(s.delta_epochs), ts_ranges=dict(s.ts_ranges))


def _fresh_buckets(lineage: list[dict], num_buckets: int, epoch: int,
                   high_seq: int) -> dict[int, BucketState]:
    """Bootstrap's and rebucket's layout: one fresh base per bucket the
    exchange wrote, per-bucket lineage restarting at ``epoch`` (a load
    applies no events, so ``events_epoch`` is 0 — salt_plan reads it as
    "events applied THIS epoch"); a bucket that got no rows still gets a
    watermark row."""
    written = {int(r["bucket"]): r for r in lineage}
    out = {}
    for b in range(num_buckets):
        r = written.get(b)
        if r is None:
            out[b] = BucketState(bucket=b, high_seq=high_seq, base_epoch=-1,
                                 rows=0, events_applied=0)
            continue
        rng = ({"base": [int(r["ts_min"]), int(r["ts_max"])]}
               if r.get("ts_min") is not None else {})
        out[b] = BucketState(bucket=b, high_seq=high_seq, base_epoch=epoch,
                             rows=int(r["rows"]), events_applied=0,
                             ts_ranges=rng)
    return out


@dataclass
class EngineConfig:
    num_buckets: int = 16
    epoch_width: int = 100_000  # events per epoch (FlushingExtractor interval analog)
    hot_factor: float = 4.0  # salt buckets > hot_factor * mean events
    max_salt: int = 8
    compact_every: int = 8  # compact a bucket after this many delta files
    # (lower = faster reads / slower ingest; 1 = copy-on-write every epoch)
    compact_ratio: float | None = None  # ALSO compact when a bucket's
    # outstanding delta rows exceed ratio x base rows (RecompactionCondition
    # file-ratio analog, gobblin-compaction/.../conditions/)
    compact_age: int | None = None  # ALSO compact when the bucket's OLDEST
    # outstanding delta is >= this many epochs old (duration-condition
    # analog, RecompactionConditionBasedOnDuration — epoch age is the
    # deterministic replay-side stand-in for wall-clock age)
    pipeline_epochs: int = 2  # overlapped epoch executions (ordered commits)
    auto_refresh_views: bool = False  # fold registered materialized views
    # to head after each run, before the vacuum (views.py window contract)
    commit_gate: bool = True  # TaskLevelPolicy/RowCountPolicy analog: assert
    # extracted == applied + diverted before promoting an epoch
    epoch_bytes: int | None = None  # size-based epoch planning: target log
    # bytes per epoch (overrides fixed epoch_width; Kafka size-estimator
    # packing analog) — epoch_width then only caps the max width
    job_lock: bool = True  # FileBasedJobLock analog: refuse to run while
    # another live driver holds <lake>/_locks/job.lock (two concurrent
    # replays would race staged promotes); stale locks are taken over
    schema_compat_mode: str | None = None  # registry-style evolution gate
    # (schema.check_compatibility: BACKWARD / FORWARD / FULL / NONE
    # [+_TRANSITIVE]) applied to lake-schema changes ON TOP of the lossless
    # additive lattice — e.g. FULL also rejects widenings and additions an
    # old-schema consumer could not read. None = additive lattice only.
    event_transforms: tuple = ()  # ingest-time converter chain (Gobblin's
    # Converter-in-task-flow analog, gobblin-api/.../converter/Converter.java
    # composed by MultiConverter): callables pa.Table -> pa.Table applied to
    # every event batch AFTER column-rename mapping, BEFORE validation.
    # Contract: VALUE-REWRITING only — row count and schema must be
    # preserved (enforced per batch; dropping rows would break the
    # extracted==applied+diverted commit gate, and schema evolution must
    # come from the LOG so resume/redrive see the same lineage). Must be
    # deterministic: exactly-once resume re-applies an epoch's transforms
    # and has to produce byte-identical output. Filtering/quarantine
    # belongs to the row-level policies, not here.
    neardup_dedup: bool = False  # dedup-on-ingest: check INSERT events
    # against the lake's cross-run near-dup index (<lake>/_neardup_index,
    # the dedup_minhash_incremental anchor+sketch layout) BEFORE the
    # merge — the reference's converter/quality-chain-in-the-task-stream
    # posture (gobblin-runtime/.../StreamModelTaskRunner.java:122-138).
    # Near-dup inserts divert to the error sink with reason 'neardup'
    # (RowLevelPolicy ERR_FILE semantics) and still count in the commit
    # gate; survivors' sketches join the index ATOMICALLY with the epoch
    # commit (checkpoint.promote_sidecar runs before the manifest write),
    # so a killed run resumes exactly-once with identical verdicts.
    # bootstrap() seeds the index from the snapshot's text, between its
    # exchange's prepare and route rounds (one read). Enabling this
    # FORCES pipeline_epochs to 1: each epoch's verdicts read the
    # previous epoch's committed index, so an overlapped execution would
    # race the index promote and make verdicts timing-dependent (the
    # check itself still fans out across the cluster inside the epoch).
    # A url's own earlier content never flags its re-crawl (self-match
    # exclusion); updates and deletes pass unchecked and are not indexed.
    # Verdict granularity is the (url, epoch) UNIT: if ANY of a url's
    # insert texts in the epoch near-dups prior content, all of that
    # url's insert events divert together — the merge is per-url LWW, so
    # the unit verdict keeps admit/divert well-defined per key.
    neardup_threshold: float = 0.7
    neardup_text_col: str = "text"
    neardup_k_anchors: int = 4
    neardup_k_sketch: int = 64
    neardup_shingle_k: int = 5
    neardup_partitions: int = 16
    max_run_seconds: float | None = None  # early stop (Source.isEarlyStopped,
    # gobblin-api/.../source/Source.java:103 + Kafka max pull duration,
    # KafkaExtractor maxPullTime): once the budget elapses, stop SUBMITTING
    # new epochs; in-flight epochs still commit in order, so the run ends
    # at a clean watermark and the next run resumes exactly-once from it


@dataclass
class EpochReport:
    epoch: int
    low_seq: int
    high_seq: int
    events: int = 0
    errors: int = 0
    buckets_touched: int = 0
    salted_buckets: int = 0
    exec_sec: float = 0.0  # Ray pipeline wall (overlaps other epochs)
    commit_sec: float = 0.0  # driver-serial promote + manifest time


def _normalize_batch(batch: pa.Table) -> pa.Table:
    """Row-level policies (RowLevelPolicy ERR_FILE semantics,
    gobblin-api/.../qualitychecker/row/RowLevelPolicy.java:33-68): annotate
    invalid rows with an error reason instead of failing the task; the merge
    stage diverts them to the error sink."""
    n = batch.num_rows
    err = np.full(n, None, dtype=object)
    op_ok = pc.is_in(batch.column("op"), value_set=pa.array(OPS)).to_numpy(
        zero_copy_only=False
    )
    err[~op_ok] = "bad_op"
    url_ok = pc.fill_null(
        pc.greater(pc.utf8_length(pc.cast(batch.column("url"), pa.string())), 0), False
    ).to_numpy(zero_copy_only=False)
    err[~url_ok] = "null_url"
    ts_ok = pc.is_valid(batch.column("warc_ts")).to_numpy(zero_copy_only=False)
    err[~ts_ok] = "null_ts"
    return batch.append_column(_ERR_COL, pa.array(err, pa.string()))


def _lww_reduce_weighted(tbl: pa.Table) -> pa.Table:
    """LWW-reduce keeping the per-url sum of the ``_n`` weight column, so
    raw applied-event counts survive partial reduction into the lineage."""
    if tbl.num_rows == 0:
        return tbl
    reduced = lww_reduce(tbl)  # sorted by url ascending
    if reduced.num_rows == tbl.num_rows:
        return reduced
    sums = tbl.group_by("url").aggregate([(_N_COL, "sum")]).sort_by("url")
    return reduced.set_column(
        reduced.schema.get_field_index(_N_COL),
        _N_COL,
        sums.column(f"{_N_COL}_sum").cast(pa.int64()),
    )


class _BucketAndReduce:
    """Stateless map-side stage: derive bucket (+ salt) columns, then
    collapse the rows with a partial LWW reduce — the combiner that keeps
    the exchange payload at O(distinct urls per map task), not O(events)."""

    def __init__(self, num_buckets: int, hot_buckets: dict[int, int]):
        self.num_buckets = num_buckets
        self.hot_buckets = hot_buckets

    def __call__(self, batch: pa.Table) -> pa.Table:
        err_mask = pc.is_valid(batch.column(_ERR_COL)).to_numpy(zero_copy_only=False)
        urls = batch.column("url")
        # Error rows ride to the merge task of their url's bucket (null
        # urls hash to one constant bucket) — no single-bucket error
        # hotspot when error rates spike (round-1 review note).
        bucket = _bucket_ids(urls, self.num_buckets)
        salt = np.zeros(len(bucket), dtype=np.int32)
        for b, factor in self.hot_buckets.items():
            # (hash % (B * f)) // B == (hash // B) % f: a hot bucket's
            # salt is its urls' bucket under the router widened f-fold
            m = bucket == b
            salt[m] = (_bucket_ids(urls.filter(pa.array(m)),
                                   self.num_buckets * factor)
                       // self.num_buckets)
        batch = (
            batch.append_column(_BUCKET_COL, pa.array(bucket))
            .append_column(_SALT_COL, pa.array(salt))
            .append_column(_N_COL, pa.array(np.ones(len(bucket), np.int64)))
        )
        good = batch.filter(pa.array(~err_mask))
        bad = batch.filter(pa.array(err_mask))
        reduced = _lww_reduce_weighted(good)
        return pa.concat_tables([reduced, bad]) if bad.num_rows else reduced


def _salted_partial_reduce(group: pa.Table) -> pa.Table:
    """Per-(bucket, salt) partial LWW merge — spreads a hot bucket over
    ``factor`` reducers; correct because LWW is associative."""
    err_mask = pc.is_valid(group.column(_ERR_COL))
    bad = group.filter(err_mask)
    reduced = _lww_reduce_weighted(group.filter(pc.invert(err_mask)))
    return pa.concat_tables([reduced, bad]) if bad.num_rows else reduced


NEARDUP_INDEX_DIR = "_neardup_index"
NEARDUP_STAGE_PREFIX = "neardup."
NEARDUP_ERR = "neardup"


def _annotate_neardup(t: pa.Table, dups: pa.Array) -> pa.Table:
    """Divert near-dup INSERT events: set the row-policy error column to
    'neardup' so the merge stage routes them to the error sink exactly like
    any RowLevelPolicy failure — they stay visible under _errors/ and count
    in the commit gate. Verdicts are per (url, epoch) UNIT: every insert
    event of a flagged url diverts, even when the url had several inserts
    with different texts this epoch (see the EngineConfig.neardup_dedup
    contract). ``dups`` is the sorted dup-url array a Ray task built
    (functions/dedup._ids_array_ref), handed to the map task by reference
    — it never visits the driver heap."""
    err = t.column(_ERR_COL)
    hit = pc.and_(
        pc.and_(
            pc.is_null(err),
            pc.fill_null(pc.equal(t.column("op"), pa.scalar("insert")), False),
        ),
        pc.fill_null(pc.is_in(t.column("url"), value_set=dups), False),
    )
    if not pc.any(hit).as_py():
        return t
    new_err = pc.if_else(hit, pa.scalar(NEARDUP_ERR), err)
    return t.set_column(t.schema.get_field_index(_ERR_COL), _ERR_COL, new_err)


def _enforce_constraints(t: pa.Table, constraints: dict) -> pa.Table:
    """Persisted table constraints (constraints.py): violating UPSERT
    events quarantine like any row-policy failure; deletes are exempt
    (tombstones carry null content columns)."""
    from .constraints import annotate_violations

    err = t.column(_ERR_COL).to_numpy(zero_copy_only=False).astype(object)
    exempt = pc.fill_null(
        pc.equal(t.column("op"), pa.scalar("delete")), False
    ).to_numpy(zero_copy_only=False).astype(bool)
    err = annotate_violations(constraints, t, err, exempt)
    return t.set_column(t.schema.get_field_index(_ERR_COL), _ERR_COL,
                        pa.array(err, pa.string()))


@dataclass(frozen=True)
class _EpochPrep:
    """What each map task of an epoch does to its rows before routing."""

    low: int  # the epoch's (low, high] event_seq span
    high: int
    schema: pa.Schema  # the unified events schema every split conforms to
    renames: dict  # stored-name -> current-name (producers lag renames)
    transforms: tuple  # EngineConfig.event_transforms
    normalize: object  # the row policies, resolved in the driver
    constraints: dict  # Manifest.constraints


def _read_splits(splits: list[tuple[str, int]]) -> list[pa.Table]:
    """Read a run of ``(path, piece)`` splits in order, one table per
    read: consecutive pieces of one file — parquet row groups, avro blocks
    — make one read. Avro goes through the module attribute
    ``avro.read_container``, so a wrapper installed on it sees every
    decode."""
    from .sources import avro

    reads: list = []
    for path, k in splits:
        if reads and reads[-1][0] == path:
            reads[-1][1].append(k)
        else:
            reads.append((path, [k]))
    out = []
    for path, pieces in reads:
        if path.endswith(".avro"):
            out.append(avro.read_container(path, blocks=pieces))
        else:
            with pq.ParquetFile(path) as pf:
                out.append(pf.read_row_groups(pieces))
    return out


def _prepare_events(splits: list[tuple[str, int]],
                    prep: _EpochPrep) -> pa.Table:
    """An epoch map task's rows: its splits read in order, kept to the
    (low, high] span, conformed, then renamed, converted, validated and
    constrained."""
    parts = []
    for t in _read_splits(splits):
        seq = t.column("event_seq")
        parts.append(conform(t.filter(pc.and_(
            pc.greater(seq, prep.low), pc.less_equal(seq, prep.high))),
            prep.schema))
    t = apply_renames(pa.concat_tables(parts), prep.renames)
    # Converter chain runs AFTER rename mapping (transforms are written
    # against CURRENT column names) and BEFORE validation.
    for i, fn in enumerate(prep.transforms):
        out = fn(t)
        if out.num_rows != t.num_rows:
            raise ValueError(
                f"event_transforms[{i}] changed the row count "
                f"({t.num_rows} -> {out.num_rows}); converters are "
                "value-rewriting — divert rows via row policies"
            )
        if out.schema != t.schema:
            raise ValueError(
                f"event_transforms[{i}] changed the schema; "
                "evolution must come from the log"
            )
        t = out
    t = prep.normalize(t)
    return _enforce_constraints(t, prep.constraints) if prep.constraints else t


def _prepare_snapshot(splits: list[tuple[str, int]],
                      schema: pa.Schema) -> pa.Table:
    """A bootstrap map task's rows: its snapshot splits read in order,
    each row a live base row at ``event_seq`` -1, conformed to the base
    schema."""
    parts = []
    for t in _read_splits(splits):
        n = t.num_rows
        parts.append(conform(
            t.append_column("event_seq", pa.array(np.full(n, -1, np.int64)))
            .append_column("is_deleted", pa.array(np.zeros(n, bool))),
            schema))
    return pa.concat_tables(parts)


def _load_buckets(files: list[list[str]], schema: pa.Schema,
                  renames: dict[str, str]) -> pa.Table:
    """A rebucket map task's rows: the merged state of a run of old
    buckets (one file list each), tombstones retained."""
    return pa.concat_tables(
        [conform(_load_bucket(f, schema, renames), schema) for f in files])


def _add_bucket(t: pa.Table, num_buckets: int) -> pa.Table:
    """Bootstrap's and rebucket's route: the bucket column, no salt."""
    return t.append_column(
        _BUCKET_COL, pa.array(_bucket_ids(t.column("url"), num_buckets)))


def _write_snapshot_bucket(group: pa.Table, lake_dir: str,
                           schema: pa.Schema) -> pa.Table:
    """Bootstrap's reducer: LWW-reduce one bucket's snapshot rows (the
    snapshot may repeat a url; ties go to the later row) and stage them as
    the bucket's epoch-0 base."""
    bucket = int(group.column(_BUCKET_COL)[0].as_py())
    events = group.drop_columns([_BUCKET_COL, "is_deleted"]).append_column(
        "op", pa.array(["insert"] * group.num_rows, pa.string()))
    tbl = merge_base_with_events(None, events, schema)
    ckpt.atomic_write_table(tbl, ckpt.staging_path(lake_dir, 0, bucket))
    tmn, tmx = _ts_range_us(tbl)
    return pa.table({
        "bucket": pa.array([bucket], pa.int32()),
        "rows": pa.array([tbl.num_rows], pa.int64()),
        "ts_min": pa.array([tmn], pa.int64()),
        "ts_max": pa.array([tmx], pa.int64()),
    })


def _write_rebucketed(group: pa.Table, lake_dir: str, epoch: int) -> pa.Table:
    """Rebucket's reducer: stage one new bucket's rows, url-sorted, as its
    base at ``epoch``."""
    bucket = int(group.column(_BUCKET_COL)[0].as_py())
    tbl = group.drop_columns([_BUCKET_COL]).sort_by([("url", "ascending")])
    ckpt.atomic_write_table(tbl, ckpt.staging_path(lake_dir, epoch, bucket))
    return pa.table({
        "bucket": pa.array([bucket], pa.int32()),
        "rows": pa.array([tbl.num_rows], pa.int64()),
    })


def _slot_starts(num_buckets: int, hot_buckets: dict[int, int]) -> np.ndarray:
    """First exchange slot of each bucket (one, or one per salt if hot);
    the last entry is the slot count."""
    sizes = [hot_buckets.get(b, 1) for b in range(num_buckets)]
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def _map_rows(source, prepare, route=None, starts=None, dups=None):
    """The map side of the push exchange: ``prepare(source)`` builds the
    task's rows (``prepare`` None: ``source`` is a table an earlier round
    prepared); without ``route`` they are returned whole. Else the
    near-dup ``dups`` are annotated (epochs), ``route`` adds the bucket
    column (and a hot bucket's salt column), and the rows are cut into
    one url-disjoint slot per (bucket, salt), ``starts`` giving each
    bucket's first slot — returned as ``(rows per slot, *slot tables)``,
    one object each."""
    t = source if prepare is None else prepare(source)
    if route is None:
        return t
    if dups is not None:
        t = _annotate_neardup(t, dups)
    t = route(t)
    slot = starts[t.column(_BUCKET_COL).to_numpy()]
    if _SALT_COL in t.column_names:
        slot = slot + t.column(_SALT_COL).to_numpy()
    order = np.argsort(slot, kind="stable")
    counts = np.bincount(slot, minlength=int(starts[-1]))
    ends = np.cumsum(counts)
    return (counts, *(t.take(order[e - n:e]) for n, e in zip(counts, ends)))


def _reduce_slots(reduce, sizes: list[int], *slots: pa.Table) -> pa.Table:
    """A reducer task: ``reduce`` once per bucket it holds, in the order
    held — ``sizes`` cuts ``slots`` into each bucket's run, concatenated in
    input order — and their lineage rows concatenated."""
    ends = np.cumsum(sizes)
    return pa.concat_tables([reduce(pa.concat_tables(slots[e - n:e]))
                             for n, e in zip(sizes, ends)])


@functools.cache
def _remote(fn):
    """``fn`` as a one-CPU Ray task, registered once per process and named
    per launch (ray is imported lazily: metadata-only commands never load
    it). Module-level callables handed to these tasks (``_BucketAndReduce``,
    ``_MergeBucket``, ...) pickle by reference, so the worker resolves them
    through their modules' attributes."""
    import ray

    return ray.remote(num_cpus=1)(fn)


def _push_exchange(inputs: list, prepare, route, reduce, num_buckets: int,
                   names: tuple, hot: dict[int, int] | None = None,
                   verdicts=None) -> tuple[list[dict], int]:
    """The engine's one exchange — epochs, ``bootstrap`` and ``rebucket``
    route rows through it: plain Ray tasks routing by the bucket id, no
    sort. ``min(inputs, buckets, CPUs)`` map tasks each take a contiguous
    run of ``inputs`` (the read splits: parquet row groups, avro blocks),
    build its rows with ``prepare(run)``, add the bucket column with
    ``route`` and return one url-disjoint slot per bucket — per (bucket,
    salt) for the ``hot`` buckets, which only epochs have — and each
    slot's row count.

    The reduce side is packed, Gobblin's MultiWorkUnit posture: the
    touched buckets that are not hot go to ``min(touched, CPUs)`` reduce
    tasks, largest first by those row counts (``plan.pack_bins``), and
    each task runs ``reduce`` once per bucket it holds, in bucket order.
    A hot bucket keeps a reduce task of its own, fed by one
    ``salted_partial`` task per salt. A bucket's slots concatenate in
    input order, so a re-run stages byte-identical files and a url
    repeated across inputs resolves in input order.

    ``verdicts`` (near-dup dedup) splits the map side in two rounds:
    prepare, then ``verdicts(prepared refs) -> (dup-url ref | None,
    count)``, then route. ``names``: the (prepare, route, reduce) task
    names. Returns (the reducers' lineage rows in bucket order, near-dup
    url count)."""
    import ray

    if not inputs:
        return [], 0
    if not ray.is_initialized():
        ray.init()  # as a Ray Data job or a task launch would
    map_task, reduce_task = _remote(_map_rows), _remote(_reduce_slots)
    hot = hot or {}
    cpus = max(1, int(ray.cluster_resources().get("CPU", 8)))
    n = min(len(inputs), num_buckets, cpus)
    runs = [[inputs[i] for i in idx]
            for idx in np.array_split(np.arange(len(inputs)), n)]
    starts = _slot_starts(num_buckets, hot)
    dups, n_dups = None, 0
    if verdicts is not None:
        runs = [map_task.options(name=names[0]).remote(r, prepare)
                for r in runs]
        dups, n_dups = verdicts(runs)
        dups = dups if n_dups else None  # no dup url: nothing to annotate
        prepare = None  # the route round gets the prepared tables
    route_task = map_task.options(name=names[1],
                                  num_returns=1 + int(starts[-1]))
    outs = [route_task.remote(r, prepare, route, starts, dups) for r in runs]
    counts = ray.get([o[0] for o in outs])
    rows = np.sum(counts, axis=0)
    reduce_ref = ray.put(reduce)
    partial_task = reduce_task.options(name="salted_partial")
    reduce_task = reduce_task.options(name=names[2])
    reduces, packed = [], {}
    for b in range(num_buckets):
        # each slot's non-empty map outputs, in input order
        slots = [[o[1 + k] for o, c in zip(outs, counts) if c[k]]
                 for k in range(starts[b], starts[b + 1])]
        if b not in hot:
            if slots[0]:
                packed[b] = slots[0]
            continue
        parts = [partial_task.remote(_salted_partial_reduce, [len(refs)], *refs)
                 for refs in slots if refs]
        if parts:
            reduces.append(reduce_task.remote(reduce_ref, [len(parts)], *parts))
    sizes = {b: int(rows[starts[b]]) for b in packed}
    for held in planmod.pack_bins(sizes, min(len(packed), cpus)):
        held = sorted(held)
        reduces.append(reduce_task.remote(
            reduce_ref, [len(packed[b]) for b in held],
            *(ref for b in held for ref in packed[b])))
    lineage = [r for t in ray.get(reduces) for r in t.to_pylist()]
    return sorted(lineage, key=lambda r: r["bucket"]), n_dups


class _MergeBucket:
    """Per-bucket apply task (the ``merge_bucket`` reducer of the epoch's
    push exchange: it gets every slot routed to its bucket).

    Normal epoch: LWW-reduce the bucket's events and write a DELTA file —
    O(epoch events), the base is not even read (Gobblin's append-only
    ingestion posture). Every ``compact_every`` deltas the task instead
    reads base+deltas and rewrites a compacted base (the separate
    compaction job of SURVEY §3.3, amortized into the epoch loop)."""

    def __init__(
        self,
        lake_dir: str,
        epoch: int,
        bucket_files: dict[int, list[str]],
        compact_buckets: set[int],
        base_schema: pa.Schema,
        renames: dict[str, str] | None = None,
    ):
        self.lake_dir = lake_dir
        self.epoch = epoch
        self.bucket_files = bucket_files  # bucket -> current data files
        # Which buckets compact THIS epoch — decided at plan time by the
        # RecompactionPolicy (delta count / delta-row ratio conditions).
        self.compact_buckets = compact_buckets
        self.base_schema = base_schema
        self.renames = dict(renames or {})  # stored-name -> current-name

    def __call__(self, group: pa.Table) -> pa.Table:
        import time as _time

        _m0 = _time.time()
        bucket = int(group.column(_BUCKET_COL)[0].as_py())
        err_mask = pc.is_valid(group.column(_ERR_COL))
        errors = group.filter(err_mask)
        events = group.filter(pc.invert(err_mask))
        n_events = int(pc.sum(events.column(_N_COL)).as_py() or 0)
        events = events.drop_columns([_ERR_COL, _BUCKET_COL, _SALT_COL, _N_COL])

        if errors.num_rows:
            # Staged like data files; promoted to _errors/ only at commit so
            # a crashed epoch leaves no error parquet outside staging.
            ckpt.atomic_write_table(
                errors.drop_columns([_SALT_COL, _N_COL]),
                ckpt.staging_path(self.lake_dir, self.epoch, bucket, "errors"),
            )

        # This epoch's contribution in base form (LWW-reduced, tombstones kept).
        delta = merge_base_with_events(None, events, self.base_schema)
        files = self.bucket_files.get(bucket, [])
        compact = bucket in self.compact_buckets
        if compact and files:
            tables = [apply_renames(pq.read_table(p), self.renames)
                      for p in files] + [delta]
            merged = merge_bases(tables, self.base_schema)
            kind = "base"
            out_rows = merged.num_rows
        else:
            merged = delta
            # Always a DELTA when not compacting. Deciding base-vs-delta from
            # the planning snapshot is wrong under pipelined windows: two
            # window epochs both see base_epoch=-1 for an untouched bucket and
            # would both stage a "base", the later commit dropping the earlier
            # epoch's events (exactly-once violation). bucket_files/readers
            # handle base_epoch=-1 delta-only buckets natively.
            kind = "delta"
            out_rows = delta.num_rows
        ckpt.atomic_write_table(
            merged, ckpt.staging_path(self.lake_dir, self.epoch, bucket, kind)
        )
        # zone map at write time (tombstones included — the max-side
        # prune proof needs deletes visible in the file's range)
        tmn, tmx = _ts_range_us(merged)
        return pa.table(
            {
                "bucket": pa.array([bucket], pa.int32()),
                "rows": pa.array([out_rows], pa.int64()),
                "events": pa.array([n_events], pa.int64()),
                "errors": pa.array([errors.num_rows], pa.int64()),
                "kind": pa.array([kind], pa.string()),
                "ts_min": pa.array([tmn], pa.int64()),
                "ts_max": pa.array([tmx], pa.int64()),
                # merge wall-time: the straggler signal the NEXT epoch's
                # salt plan feeds on (WorkUnitChangeEvent analog — the
                # reference re-splits hot work units mid-run; here the
                # feedback lands at the next plan, one epoch later)
                "merge_sec": pa.array([_time.time() - _m0], pa.float64()),
            }
        )


def _load_bucket(files: list[str], schema: pa.Schema, renames: dict[str, str],
                 columns: list[str] | None = None, filters=None) -> pa.Table:
    """One bucket's state: read its base + delta files, map stored column
    names to current ones (``renames``), LWW-merge them into one base-form
    table conformed to ``schema``. Tombstones are KEPT — readers drop them
    with ``live_rows``, rewrites must keep them so late events still lose.

    ``columns``: prune every scan to these CURRENT names. Rename-aware:
    each file's footer maps current names back to its stored names by the
    same skip-if-target-present rule as ``apply_renames``. ``filters``:
    pyarrow row filters pushed into every scan — only sound on the url
    key, because the merge is per-url independent."""

    def read(path: str) -> pa.Table:
        if columns is None:
            return apply_renames(pq.read_table(path, filters=filters), renames)
        avail = pq.read_schema(path).names
        present = set(avail)

        def current(n: str) -> str:
            t = renames.get(n)
            return t if t is not None and t not in present else n

        stored = [n for n in avail if current(n) in columns]
        return apply_renames(
            pq.read_table(path, columns=stored, filters=filters), renames)

    return merge_bases([read(p) for p in files], schema)


def _probe(files: list[str], wanted: list[str], schema: pa.Schema,
           renames: dict[str, str]) -> pa.Table:
    """``lookup_urls``' per-bucket task: the live rows of ``wanted``."""
    return live_rows(_load_bucket(files, schema, renames,
                                  filters=[("url", "in", wanted)]))


def _match_sorted(ou: np.ndarray, nu: np.ndarray):
    """Match the urls of two url-sorted, url-unique arrays (one bucket's
    old and new live state) by binary search. Returns ``(insert, gone,
    common, old_of_common)``: the positions in ``nu`` absent from ``ou``,
    the positions in ``ou`` absent from ``nu``, the positions in ``nu``
    present in ``ou``, and the ``ou`` position of each of those."""
    pos = np.searchsorted(ou, nu)
    hit = pos < len(ou)
    hit[hit] = ou[pos[hit]] == nu[hit]
    common = np.flatnonzero(hit)
    old_of_common = pos[common]
    in_new = np.zeros(len(ou), dtype=bool)
    in_new[old_of_common] = True
    return (np.flatnonzero(~hit), np.flatnonzero(~in_new), common,
            old_of_common)


def _live_hits(t: pa.Table, predicate) -> tuple[pa.Array, int]:
    """Row mask of the predicate DML over one bucket's merged state: the
    LIVE rows ``predicate`` selects (tombstones carry only LWW identity
    and are never updated or deleted), and how many there are."""
    live = pc.invert(pc.fill_null(t.column("is_deleted"), False))
    hit = pc.fill_null(pc.cast(predicate(t), pa.bool_()), False)
    mask = pc.and_(hit, live)
    if isinstance(mask, pa.ChunkedArray):
        mask = mask.combine_chunks()
    return mask, int(pc.sum(pc.cast(mask, pa.int64())).as_py() or 0)


def _rewrite_one(spec: dict, fn, schema: pa.Schema, renames: dict[str, str],
                 lake_dir: str, epoch: int) -> dict:
    """``CdcEngine._rewrite_buckets``' task: load one bucket's merged
    state, hand it to ``fn`` and stage a returned table, url-sorted, as
    the bucket's base at ``epoch``. Returns the bucket's lineage row."""
    bucket = int(spec["bucket"])
    t = conform(_load_bucket(spec["files"], schema, renames), schema)
    out, count = fn(t, spec)
    if out is not None:
        t = out.sort_by([("url", "ascending")])
        ckpt.atomic_write_table(t, ckpt.staging_path(lake_dir, epoch, bucket))
    return {"bucket": bucket, "rows": t.num_rows, "count": count,
            "staged": out is not None}


class CdcEngine:
    """Driver for one lake (one logical table)."""

    def __init__(self, lake_dir: str, events_dir: str, config: EngineConfig | None = None):
        from .metrics import JsonLinesReporter, MetricContext

        self.lake_dir = lake_dir
        self.events_dir = events_dir
        self.cfg = config or EngineConfig()
        self.store = CheckpointStore(lake_dir)
        # Driver-side metric context (gobblin-metrics MetricContext
        # analog): counters/timers folded into each epoch manifest, plus a
        # GobblinTrackingEvent-style JSON-lines flight recorder under
        # <lake>/_metrics/. Distributed per-stage counts ride the lineage
        # rows; the driver rolls them up here — no hot-path metric actors.
        self.metrics = MetricContext(
            "cdc", table=os.path.basename(os.path.normpath(lake_dir))
        )
        self.metrics.add_reporter(
            JsonLinesReporter(os.path.join(lake_dir, "_metrics", "events.jsonl"))
        )
        # Counters are lake-cumulative: a resumed driver seeds them from
        # the last committed manifest so `events_applied` keeps counting
        # across restarts (state-store-backed metric continuity).
        seed = self.store.latest()
        if seed is not None:
            for k, v in seed.metrics.items():
                self.metrics.counter(k).inc(int(v))

    def _job_lock(self):
        """The lake's job lock (FileBasedJobLock analog) when
        ``cfg.job_lock`` is set, else a no-op context. Every command that
        commits a manifest holds it: two writers would both commit
        ``epoch + 1`` and one manifest would silently replace the other."""
        from contextlib import nullcontext

        from .locks import FileJobLock

        if not self.cfg.job_lock:
            return nullcontext()
        return FileJobLock(os.path.join(self.lake_dir, "_locks"))

    # ---------------- commit tail (every manifest writer) ----------------

    @staticmethod
    def _manifest(prev: Manifest | None, buckets: dict[int, BucketState],
                  schema: pa.Schema | None = None, **overrides) -> Manifest:
        """The one manifest builder. Every metadata field is forward-copied
        from the predecessor ``prev`` — the next epoch at the SAME
        watermark, with the same layout, schema, cumulative counters,
        router stamp, renames and constraints — and ``overrides`` replaces
        any of them (``schema`` sets the fingerprint and the IPC form
        together). ``buckets`` is the writer's own bucket map. Carrying
        every field at ONE site means a future Manifest field needs one
        edit, and no writer can silently drop one. Bootstrap has no
        predecessor and names every field."""
        if schema is not None:
            overrides.update(schema_fingerprint=schema_fingerprint(schema),
                             schema_ipc=Manifest.encode_schema(schema))
        unknown = set(overrides) - {f.name for f in dataclasses.fields(Manifest)}
        if unknown:
            raise TypeError(f"unknown overrides {sorted(unknown)}")
        carried = {} if prev is None else dict(
            epoch=prev.epoch + 1, low_seq=prev.high_seq,
            high_seq=prev.high_seq, num_buckets=prev.num_buckets,
            schema_fingerprint=prev.schema_fingerprint,
            schema_ipc=prev.schema_ipc, metrics=dict(prev.metrics),
            bucket_hash=prev.bucket_hash,
            column_renames=dict(prev.column_renames),
            constraints=dict(prev.constraints))
        return Manifest(**{**carried, **overrides, "buckets": buckets})

    def _commit(self, manifest: Manifest, staged=(),
                counters: dict[str, int] | None = None, sidecar: bool = False,
                event: tuple[str, dict] | None = None) -> Manifest:
        """The one commit tail of every manifest writer — Gobblin's
        SafeDatasetCommit running FsRenameCommitStep, then
        DatasetStateCommitStep:

        1. promote the ``staged`` entries (``ckpt.promote``) and, with
           ``sidecar``, the near-dup index files staged for the epoch —
           both idempotent, both BEFORE the manifest, so a crash in
           between re-runs to the same files;
        2. fold ``counters`` (name -> increment) into the cumulative
           counters the builder carried from the predecessor, so a commit
           made by another driver is never erased;
        3. publish the manifest (``store.commit``: the commit point);
        4. mirror the counters into the driver's MetricContext and emit
           the writer's tracking event ``(name, metadata)``."""
        ckpt.promote(self.lake_dir, manifest.epoch, staged)
        if sidecar:
            ckpt.promote_sidecar(
                self.lake_dir, manifest.epoch, NEARDUP_STAGE_PREFIX,
                os.path.join(self.lake_dir, NEARDUP_INDEX_DIR))
        totals = dict(manifest.metrics)
        for k, n in (counters or {}).items():
            totals[k] = int(totals.get(k, 0)) + int(n)
        manifest.metrics = dict(sorted(totals.items()))
        self.store.commit(manifest)
        for k, v in manifest.metrics.items():
            self.metrics.inc(k, v - self.metrics.counter(k).value)
        if event is not None:
            name, meta = event
            self.metrics.submit_event(name, epoch=manifest.epoch, **meta)
        return manifest

    # ---------------- bootstrap (epoch 0: snapshot load) ----------------

    def bootstrap(self, pages_path: str) -> Manifest:
        """Load the initial snapshot into bucketed base files (epoch 0)
        through the push exchange: map tasks over the snapshot's parquet
        row groups and avro blocks, ``bootstrap_write`` tasks packed as
        in every exchange. A url the snapshot repeats at one ``warc_ts``
        resolves in snapshot order (parquet shards, then avro shards, each
        by name): the last row wins. With ``neardup_dedup`` the same read also
        seeds the near-dup index.

        Idempotent: returns the existing manifest if epoch 0 committed.
        """
        if self.store.is_applied(0):
            return self.store.load(0)

        # pages_path may be one file or a sharded directory (the WARC
        # on-ramp writes a distributed dir). Format dispatch by suffix:
        # parquet (default) and/or Avro object containers — the
        # reference's native record format (AvroFileSource /
        # DatePartitionedAvroFileSource posture: Gobblin pipelines
        # commonly bootstrap FROM avro), read through the from-scratch
        # codec in sources/avro.py. A MIXED dir reads both formats, and
        # every shard's footer/header schema is probed and unified, so a
        # column only a later shard carries survives the map's conform.
        if os.path.isdir(pages_path):
            names = sorted(os.listdir(pages_path))
            pq_files, av_files = (
                [os.path.join(pages_path, f) for f in names if f.endswith(x)]
                for x in (".parquet", ".avro"))
            if not pq_files and not av_files:
                raise FileNotFoundError(
                    f"no .parquet/.avro shards in snapshot dir {pages_path!r}")
        elif pages_path.endswith(".avro"):
            pq_files, av_files = [], [pages_path]
        else:
            pq_files, av_files = [pages_path], []
        probes, splits = [], []
        for f in pq_files:
            with pq.ParquetFile(f) as pf:
                probes.append(pf.schema_arrow)
                splits += [(f, g) for g in range(pf.num_row_groups)]
        if av_files:
            from .sources.avro import block_count, container_schema

            probes += [container_schema(f) for f in av_files]
            splits += [(f, k) for f in av_files for k in range(block_count(f))]
        base_schema = unify_additive(
            *probes,
            pa.schema([("event_seq", pa.int64()), ("is_deleted", pa.bool_())]),
        )
        B = self.cfg.num_buckets
        # near-dup: seed the index from the snapshot (check=False: the
        # initial snapshot is ground truth, nothing to divert) — staged
        # flat files promoted with the bootstrap commit below
        verdicts = functools.partial(
            self._neardup_verdicts, epoch_index=0, check=False,
        ) if self.cfg.neardup_dedup else None
        lineage, _ = _push_exchange(
            splits, functools.partial(_prepare_snapshot, schema=base_schema),
            functools.partial(_add_bucket, num_buckets=B),
            functools.partial(_write_snapshot_bucket, lake_dir=self.lake_dir,
                              schema=base_schema),
            B, ("bootstrap_prepare", "bootstrap_route", "bootstrap_write"),
            verdicts=verdicts)
        manifest = self._manifest(
            None, _fresh_buckets(lineage, B, 0, -1), schema=base_schema,
            epoch=0, low_seq=-1, high_seq=-1, num_buckets=B)
        return self._commit(manifest, [int(r["bucket"]) for r in lineage],
                            sidecar=self.cfg.neardup_dedup)

    # ---------------- epoch apply ----------------

    def _event_schemas(self, log_meta: dict, shards: list[dict]) -> pa.Schema:
        seen: dict[int, pa.Schema] = {}
        for s in shards:
            v = s.get("schema_version", 0)
            if v not in seen:
                path = os.path.join(self.events_dir, s["file"])
                if path.endswith(".avro"):
                    from .sources.avro import container_schema

                    seen[v] = container_schema(path)
                else:
                    seen[v] = pq.read_schema(path)
        return unify_additive(*seen.values())

    def _execute_epoch(
        self,
        epoch: planmod.Epoch,
        manifest: Manifest,
        log_meta: dict,
        allow_compact: bool = True,
    ) -> dict | None:
        """Run the epoch's Ray pipeline and stage its outputs (NO commit).

        ``manifest`` is the planning snapshot — when epochs are pipelined,
        every epoch of a window plans against the window-start manifest,
        which is safe because a non-compacting epoch never reads other
        epochs' outputs; only the window's first epoch may compact
        (``allow_compact``). Returns None if the epoch is already committed.
        """
        if self.store.is_applied(epoch.index):
            return None
        import time as _time

        _t0 = _time.time()
        shards = planmod.prune_shards(log_meta, epoch.low_seq, epoch.high_seq)
        raw_events_schema = self._event_schemas(log_meta, shards)
        # Producers may lag a column rename: their events still carry the
        # STORED name; map it to the current name before unification (same
        # skip-if-target-present rule as the file readers).
        ren = dict(manifest.column_renames)
        events_schema = rename_schema(raw_events_schema, ren)
        base_schema = unify_additive(
            manifest.base_schema(),
            # __dropped_* tombstone names (drop_column) are retired, not
            # new fields — they must not re-enter via additive unification;
            # conform() drops their values at the merge.
            pa.schema([
                f for f in events_schema
                if f.name != "op" and not f.name.startswith("__dropped_")
            ]).append(
                pa.field("is_deleted", pa.bool_())
            ),
        )
        if self.cfg.schema_compat_mode and base_schema != manifest.base_schema():
            # registry-style gate on top of the additive lattice: fail the
            # epoch BEFORE any work if the evolved lake schema is not
            # mode-compatible with the current one (SchemaCompatibility
            # policy analog, enforced at plan time not at commit)
            from .schema import check_compatibility

            check_compatibility(
                manifest.base_schema(), base_schema,
                self.cfg.schema_compat_mode,
            )

        prev = manifest.buckets
        splan = planmod.salt_plan(
            {b: s.events_epoch for b, s in prev.items()},
            self.cfg.num_buckets, self.cfg.hot_factor, self.cfg.max_salt,
            prev_times={b: s.merge_sec for b, s in prev.items()},
            prev_salts={b: s.salt_carry for b, s in prev.items()},
        )

        bucket_files = {
            b: ckpt.bucket_files(self.lake_dir, s) for b, s in manifest.buckets.items()
        }
        compact_buckets: set[int] = set()
        if allow_compact:
            for b, s in manifest.buckets.items():
                if len(s.delta_epochs) + 1 >= self.cfg.compact_every:
                    compact_buckets.add(b)
                elif self.cfg.compact_ratio is not None and (
                    s.delta_rows / max(1, s.rows - s.delta_rows)
                    >= self.cfg.compact_ratio
                ):
                    compact_buckets.add(b)
                elif (
                    self.cfg.compact_age is not None
                    and s.delta_epochs
                    and epoch.index - min(s.delta_epochs) >= self.cfg.compact_age
                ):
                    compact_buckets.add(b)
        merge = _MergeBucket(
            self.lake_dir, epoch.index, bucket_files, compact_buckets,
            base_schema, renames=ren,
        )
        prep = _EpochPrep(
            epoch.low_seq, epoch.high_seq, raw_events_schema, ren,
            tuple(self.cfg.event_transforms), _normalize_batch,
            dict(manifest.constraints),
        )
        verdicts = functools.partial(
            self._neardup_verdicts, epoch_index=epoch.index,
        ) if self.cfg.neardup_dedup else None
        lineage, neardup_dups = _push_exchange(
            planmod.epoch_splits(log_meta, self.events_dir, epoch.low_seq,
                                 epoch.high_seq),
            functools.partial(_prepare_events, prep=prep),
            _BucketAndReduce(self.cfg.num_buckets, splan.hot_buckets), merge,
            self.cfg.num_buckets,
            ("prepare_events", "route_events", "merge_bucket"),
            splan.hot_buckets, verdicts)
        expected = planmod.expected_event_count(
            log_meta, self.events_dir, epoch.low_seq, epoch.high_seq
        ) if self.cfg.commit_gate else None
        return {
            "lineage": lineage,
            "base_schema": base_schema,
            "salted": len(splan.hot_buckets),
            "salt_map": dict(splan.hot_buckets),
            "expected_events": expected,
            "neardup": self.cfg.neardup_dedup,
            "neardup_dups": neardup_dups,
            "exec_sec": _time.time() - _t0,
        }

    def _neardup_verdicts(self, prepared: list, epoch_index: int,
                          check: bool = True):
        """Dedup-on-ingest pass (cfg.neardup_dedup) over the prepared map
        outputs of one epoch: near-dup verdicts for its INSERT events
        against the committed index + within-epoch, and a STAGED write of
        survivors' sketches that the commit promotes atomically with the
        epoch. Runs AFTER constraint annotation: a constraint-quarantined
        INSERT never reaches the lake, so it is neither checked nor
        indexed. Without ``check`` (bootstrap) nothing is checked and every
        row's text is staged — the snapshot seeds the index. Returns
        (dup-url array ref, dup-url count)."""
        import ray.data as rd

        from .functions.dedup import neardup_ingest_verdicts

        tcol = self.cfg.neardup_text_col

        def pick(t: pa.Table) -> pa.Table:
            m = pc.is_valid(t.column(tcol))
            if check:
                m = pc.and_(m, pc.and_(
                    pc.is_null(t.column(_ERR_COL)),
                    pc.fill_null(
                        pc.equal(t.column("op"), pa.scalar("insert")), False
                    ),
                ))
            return t.filter(m).select(["url", tcol])

        pick.__name__ = "pick_insert_texts" if check else "pick_page_texts"
        return neardup_ingest_verdicts(
            rd.from_arrow_refs(prepared).map_batches(
                pick, batch_format="pyarrow", batch_size=None),
            index_dir=os.path.join(self.lake_dir, NEARDUP_INDEX_DIR),
            stage_dir=os.path.dirname(
                ckpt.staging_path(self.lake_dir, epoch_index, 0)),
            stage_prefix=NEARDUP_STAGE_PREFIX,
            text_col=tcol,
            id_col="url",
            threshold=self.cfg.neardup_threshold,
            k_anchors=self.cfg.neardup_k_anchors,
            k_sketch=self.cfg.neardup_k_sketch,
            shingle_k=self.cfg.neardup_shingle_k,
            num_partitions=self.cfg.neardup_partitions,
            check=check,
        )

    def _commit_epoch(
        self, epoch: planmod.Epoch, manifest: Manifest, execution: dict | None,
        redrive: bool = False,
    ) -> tuple[Manifest, EpochReport]:
        """Two-phase commit of a staged epoch against its PREDECESSOR's
        committed manifest (commits are strictly ordered even when
        executions overlap). A ``redrive`` epoch also counts its applied
        events as ``errors_redriven`` in its own manifest."""
        if execution is None:  # already committed (resume path)
            return self.store.load(epoch.index), EpochReport(
                epoch.index, epoch.low_seq, epoch.high_seq
            )
        import time as _time

        _c0 = _time.time()
        lineage = execution["lineage"]
        # Schema only ever widens across epochs, even if this epoch's
        # shards predate a column introduced by an earlier window member.
        base_schema = unify_additive(manifest.base_schema(), execution["base_schema"])
        if self.cfg.schema_compat_mode and base_schema != manifest.base_schema():
            # authoritative registry gate: the plan-time check in
            # _execute_epoch compares against the WINDOW-START manifest, so
            # a widening can masquerade as a plain addition when the column
            # was introduced by an earlier epoch of the same pipelined
            # window; here ``manifest`` is the live head, so the sequential
            # schema chain is exact. Raising BEFORE promote leaves the
            # watermark at the last committed epoch (staged files are swept).
            from .schema import check_compatibility

            check_compatibility(
                manifest.base_schema(), base_schema,
                self.cfg.schema_compat_mode,
            )

        touched = {int(r["bucket"]): r for r in lineage}
        # TaskLevelPolicy commit gate (gobblin-api/.../qualitychecker/task/
        # TaskLevelPolicy.java + RowCountPolicy): the epoch commits only if
        # every extracted event was either applied or diverted to the error
        # sink — an independent count from shard metadata, checked BEFORE
        # promote so a row-dropping bug fails the commit, not the audit.
        expected = execution.get("expected_events")
        if expected is not None:
            seen = sum(int(r["events"]) + int(r["errors"]) for r in touched.values())
            if seen != expected:
                raise AssertionError(
                    f"commit gate: epoch {epoch.index} extracted {expected} "
                    f"events but applied+diverted {seen}"
                )
        promote_entries = [(b, r["kind"]) for b, r in touched.items()]
        promote_entries += [
            (b, "errors") for b, r in touched.items() if int(r["errors"]) > 0
        ]
        buckets: dict[int, BucketState] = {}
        report = EpochReport(epoch.index, epoch.low_seq, epoch.high_seq)
        report.salted_buckets = execution["salted"]
        for b, prev in manifest.buckets.items():
            r = touched.get(b)
            if r is not None:
                n_ev, n_err = int(r["events"]), int(r["errors"])
                rng = (
                    [int(r["ts_min"]), int(r["ts_max"])]
                    if r.get("ts_min") is not None
                    and r.get("ts_max") is not None else None
                )
                if r["kind"] == "base":
                    base_epoch, deltas = epoch.index, []
                    rows = int(r["rows"])
                    delta_rows = 0
                    ts_ranges = {"base": rng} if rng else {}
                else:
                    base_epoch = prev.base_epoch
                    deltas = prev.delta_epochs + [epoch.index]
                    rows = prev.rows + int(r["rows"])
                    delta_rows = prev.delta_rows + int(r["rows"])
                    ts_ranges = dict(prev.ts_ranges)
                    if rng:
                        ts_ranges[str(epoch.index)] = rng
                buckets[b] = BucketState(
                    bucket=b,
                    high_seq=epoch.high_seq,
                    base_epoch=base_epoch,
                    rows=rows,
                    events_applied=prev.events_applied + n_ev,
                    events_epoch=n_ev,
                    delta_epochs=deltas,
                    delta_rows=delta_rows,
                    ts_ranges=ts_ranges,
                    merge_sec=round(float(r.get("merge_sec") or 0.0), 4),
                    salt_carry=int(
                        execution.get("salt_map", {}).get(b, 0)
                    ),
                )
                report.events += n_ev
                report.errors += n_err
                report.buckets_touched += 1
            else:
                # Zero events this epoch: watermark carried forward,
                # base file untouched (low == high in lineage terms).
                buckets[b] = _idle_bucket(prev, epoch.high_seq)
        counters = {
            "epochs_committed": 1,
            "events_applied": report.events,
            "errors_diverted": report.errors,
            "buckets_touched": report.buckets_touched,
            "salted_buckets": report.salted_buckets,
            "compactions": sum(
                1 for r in touched.values() if r["kind"] == "base"),
        }
        if redrive:
            counters["errors_redriven"] = report.events
        if execution.get("neardup"):
            counters["neardup_urls_diverted"] = int(
                execution.get("neardup_dups", 0))
        new = self._commit(
            self._manifest(
                manifest, buckets, schema=base_schema, epoch=epoch.index,
                low_seq=epoch.low_seq, high_seq=epoch.high_seq,
                event_count=report.events, error_count=report.errors),
            sorted(promote_entries), counters,
            # the near-dup index joins the two-phase commit: committed =>
            # indexed; promoted-but-uncommitted re-executes to identical
            # staged files (the full-pairwise within-epoch check keeps
            # re-run verdicts stable against the epoch's own survivors)
            sidecar=execution.get("neardup", False),
            event=("EpochCommitted", dict(
                low_seq=epoch.low_seq, high_seq=epoch.high_seq,
                events=report.events, errors=report.errors,
                buckets_touched=report.buckets_touched)))
        report.exec_sec = round(execution.get("exec_sec", 0.0), 3)
        report.commit_sec = round(_time.time() - _c0, 3)
        self.metrics.timer("commit").update(report.commit_sec)
        return new, report

    def apply_epoch(
        self, epoch: planmod.Epoch, manifest: Manifest, log_meta: dict,
        redrive: bool = False,
    ) -> tuple[Manifest, EpochReport]:
        """Apply one ``(low, high]`` interval (execute + commit).
        Idempotent: a committed epoch is returned untouched."""
        execution = self._execute_epoch(epoch, manifest, log_meta)
        return self._commit_epoch(epoch, manifest, execution, redrive)

    # ---------------- top-level run ----------------

    def run(
        self, max_epochs: int | None = None, vacuum: bool = True
    ) -> list[EpochReport]:
        """Replay under the job lock (see ``_run_impl`` for semantics)."""
        with self._job_lock():
            return self._run_impl(max_epochs, vacuum)

    def _run_impl(
        self, max_epochs: int | None = None, vacuum: bool = True
    ) -> list[EpochReport]:
        """Resume from the latest manifest and replay the log to its head.

        Epoch executions are PIPELINED in windows of
        ``cfg.pipeline_epochs`` (delta-append epochs are independent — only
        the window's first epoch may compact), while promotes + manifest
        commits stay strictly ordered — overlapping flush intervals the way
        Gobblin overlaps task execution with publish. Windows are
        recomputed from the committed resume point, so a crash mid-window
        replays deterministically (staged writes are idempotent)."""
        from concurrent.futures import ThreadPoolExecutor

        from collections import deque

        manifest = self.store.latest()
        if manifest is None:
            raise RuntimeError("lake not bootstrapped — call bootstrap(pages) first")
        _check_router(manifest)
        log_meta = planmod.load_log_meta(self.events_dir)
        if self.cfg.epoch_bytes is not None:
            epochs = planmod.plan_epochs_sized(
                log_meta, manifest.high_seq, self.cfg.epoch_bytes,
                manifest.epoch + 1, max_width=self.cfg.epoch_width,
            )
        else:
            epochs = planmod.plan_epochs(
                log_meta, manifest.high_seq, self.cfg.epoch_width, manifest.epoch + 1
            )
        if max_epochs is not None:
            epochs = epochs[:max_epochs]
        reports: list[EpochReport] = []
        w = max(1, self.cfg.pipeline_epochs)
        if self.cfg.neardup_dedup:
            # Dedup-on-ingest is inherently SEQUENTIAL: each epoch's
            # verdicts read the previous epoch's committed index, and an
            # overlapped execution would race promote_sidecar's per-file
            # renames (verdicts become timing-dependent and a resumed run
            # could diverge from an uninterrupted one). Epoch pipelining
            # is forced off; the check itself still fans out across the
            # cluster inside the epoch.
            w = 1
        # ROLLING pipeline (no window barrier): keep up to w epoch
        # executions in flight; commit the oldest as soon as it resolves and
        # immediately submit the next — commits (driver I/O) overlap later
        # epochs' execution instead of serializing between windows (the
        # round-1 measured ~4 s serial fraction per 20-epoch run).
        # Compaction still requires planning against the TRUE predecessor
        # manifest, so a compacting epoch is only submitted when the
        # pipeline is drained; it's forced at compact_every cadence so
        # rolling mode cannot starve compaction.
        def compaction_due(mf: Manifest, ep_index: int, last: int) -> bool:
            if ep_index - last >= self.cfg.compact_every:
                return True
            if self.cfg.compact_ratio is not None:
                for s in mf.buckets.values():
                    base = max(1, s.rows - s.delta_rows)
                    if s.delta_rows / base >= self.cfg.compact_ratio:
                        return True
            if self.cfg.compact_age is not None:
                for s in mf.buckets.values():
                    if s.delta_epochs and (
                        ep_index - min(s.delta_epochs) >= self.cfg.compact_age
                    ):
                        return True
            return False

        import time as _time

        _deadline = (
            _time.monotonic() + self.cfg.max_run_seconds
            if self.cfg.max_run_seconds is not None
            else None
        )
        with ThreadPoolExecutor(max_workers=w) as pool:
            inflight: deque = deque()
            i = 0
            last_compact = manifest.epoch
            while i < len(epochs) or inflight:
                if _deadline is not None and _time.monotonic() >= _deadline:
                    i = len(epochs)  # early stop: drain, commit, return
                    if not inflight:
                        break
                while i < len(epochs) and len(inflight) < w:
                    ep = epochs[i]
                    due = compaction_due(manifest, ep.index, last_compact)
                    if due and inflight:
                        break  # drain so the compacting epoch sees its predecessor
                    allow = due and not inflight
                    if allow:
                        last_compact = ep.index
                    inflight.append(
                        (ep, pool.submit(
                            self._execute_epoch, ep, manifest, log_meta,
                            allow_compact=allow,
                        ))
                    )
                    i += 1
                ep, fut = inflight.popleft()
                manifest, report = self._commit_epoch(ep, manifest, fut.result())
                reports.append(report)
        if self.cfg.auto_refresh_views and reports:
            # fold registered materialized views forward BEFORE the
            # vacuum: the change feed needs the folded-from manifest's
            # files, which the sweep below may remove (views.py window
            # contract)
            from . import views as _views

            for name in _views.list_views(self.lake_dir):
                _views.refresh_view(self, name)
        if vacuum and reports:
            ckpt.vacuum(self.lake_dir, manifest)
        if reports:
            # Job-level tracking event (GobblinTrackingEvent at the
            # JobContext level): one line per drain with the totals.
            self.metrics.submit_event(
                "JobRunCompleted",
                epochs=len(reports),
                events=sum(r.events for r in reports),
                errors=sum(r.errors for r in reports),
                first_epoch=reports[0].epoch, last_epoch=reports[-1].epoch,
            )
        return reports

    def run_forever(
        self,
        poll_interval: float = 1.0,
        stop_file: str | None = None,
        max_polls: int | None = None,
        idle_callback=None,
    ) -> list[EpochReport]:
        """Continuous/unbounded tailing: replay to the log head, then poll
        for log growth and keep applying — Gobblin's streaming mode
        (InfiniteSource, gobblin-api/.../source/InfiniteSource.java;
        KafkaStreamingExtractor.java:87 unbounded pull;
        FlushingExtractor.java:81-190 flush-interval epochs).

        Growth detection is O(1) driver work: re-read ``_meta.json`` (or
        re-derive shard metadata) and compare ``max_seq`` against the
        committed high watermark. Clean shutdown: create ``stop_file``
        (defaults to ``<lake>/_STOP``) — checked between epochs, so the
        last observed epoch always commits fully (no partial applies).
        ``max_polls`` bounds empty polls for tests; ``idle_callback()`` (if
        given) runs once per empty poll.
        """
        import time

        stop_file = stop_file or os.path.join(self.lake_dir, "_STOP")
        # A stop file from a PREVIOUS run is stale — consume it so a
        # restarted tailer resumes (a stop request targets the run that was
        # alive when it was made, matching a restarted Gobblin streaming
        # job picking up from its state store).
        if os.path.exists(stop_file):
            os.remove(stop_file)
        # The tailer holds the job lock for its WHOLE lifetime, not per
        # drain — a competing batch driver must not interleave with an
        # active tailer between polls.
        with self._job_lock():
            reports: list[EpochReport] = []
            empty_polls = 0
            while True:
                # Drain-to-head FIRST, check stop after: a stop request
                # always gets one final replay, so everything observed in
                # the log when the stop landed is committed (graceful
                # drain, not abort).
                got = self._run_impl(vacuum=False)
                reports.extend(got)
                if os.path.exists(stop_file):
                    break
                if got:
                    empty_polls = 0
                    continue  # head may have advanced while we replayed
                empty_polls += 1
                if idle_callback is not None:
                    idle_callback()
                if max_polls is not None and empty_polls >= max_polls:
                    break
                time.sleep(poll_interval)
            if reports:
                ckpt.vacuum(self.lake_dir, self.store.latest())
            return reports

    # ---------------- readers ----------------

    # (multi-table wrapper lives below CdcEngine)

    def bucket_file_map(self, manifest: Manifest | None = None) -> dict[int, list[str]]:
        manifest = manifest or self.store.latest()
        return {
            b: ckpt.bucket_files(self.lake_dir, s)
            for b, s in sorted(manifest.buckets.items())
            if s.rows > 0
        }

    def read_table(
        self,
        manifest: Manifest | None = None,
        columns: list[str] | None = None,
        predicate=None,
        predicate_columns: list[str] | None = None,
        ts_min=None,
        ts_max=None,
        eq: dict | None = None,
        bucket_shard: tuple[int, int] | None = None,
        prune_report: dict | None = None,
    ):
        """The lake's live rows as a Dataset — the merge-on-read reader:
        one task per bucket LWW-merges base + outstanding deltas in memory
        (a bucket is sized to fit a worker heap by construction), drops
        tombstones and bookkeeping.

        ``columns``: project the result to these columns AND push the
        projection into every parquet scan — only the requested columns
        plus the merge identity set (url / warc_ts / event_seq /
        is_deleted) leave storage. At webtext scale the html payload
        dominates bytes; a text-only read must not fetch it ("prune at
        the read"). Rename-aware: each file's footer maps CURRENT names
        back to its stored names.

        ``predicate``: optional callable ``pa.Table -> BooleanArray``;
        columns it touches that are not in ``columns`` must be listed in
        ``predicate_columns`` (read for the filter, dropped from the
        result)
        applied per bucket AFTER the LWW merge, never before — filtering
        files pre-merge on a non-key column is wrong (an old base row
        passing the filter would beat a newer delta row that fails it
        and resurrect overwritten state). Post-merge it runs distributed,
        per bucket, before any downstream exchange.

        ``ts_min`` / ``ts_max``: restrict the result to rows with
        ``warc_ts`` in the closed range, AND prune storage with the
        footer zone map (stats.zone_ranges — free when ``analyze`` ran
        at this epoch): a whole BUCKET is skipped when its file range is
        disjoint from the window (buckets are self-contained, so every
        version of its urls disappears together — the merged winner
        would fail the range filter anyway); an individual FILE is
        skipped only when ``file_max < ts_min`` (max-side prune: any row
        the skipped file's newer-version/tombstone would have beaten has
        an even older warc_ts and is caught by the post-merge filter;
        min-side file pruning is UNSAFE — see stats.py for the
        tombstone-resurrection counterexample). ``prune_report``, if
        given, is filled with {buckets_total, buckets_read, files_total,
        files_read} so callers and tests can observe the skip.

        ``eq``: {column: value} equality predicates (SQL ``=``: a null
        probe never matches). Filtered post-merge like ``predicate``,
        AND pruned per BUCKET via the Bloom sidecar (index.py, built by
        ``analyze --bloom-cols``/`build_bloom_index`): a bucket none of
        whose files can contain the value cannot produce a merged row
        with it (winners are file rows verbatim). Never per-file (same
        resurrection hazard as min-side ts pruning); fails open when
        the index is missing or stale for a file."""
        import ray.data as rd

        manifest = manifest or self.store.latest()
        schema = manifest.base_schema()
        ren = dict(manifest.column_renames)
        file_map = self.bucket_file_map(manifest)
        if bucket_shard is not None:
            # TABLESAMPLE / external-sharding primitive: buckets with
            # ``b % m == i``. The url router is a uniform content hash,
            # so the m shards are m disjoint, exhaustive, UNBIASED
            # samples of the url population — an exact 1/m sample costs
            # 1/m of the read, zero extra compute, and is reproducible
            # across runs/cluster sizes (contrast row-level TABLESAMPLE,
            # which still scans everything). All versions of a url stay
            # in one shard, so the LWW merge inside the shard is exact.
            i, mmod = bucket_shard
            if not (isinstance(mmod, int) and 0 <= i < mmod):
                raise ValueError(f"bucket_shard must be (i, m), 0<=i<m; "
                                 f"got {bucket_shard}")
            file_map = {b: f for b, f in file_map.items() if b % mmod == i}
            if prune_report is not None:
                prune_report.update(
                    shard_buckets=len(file_map),
                    shard_frac=1.0 / mmod,
                )
        if eq:
            unknown = [c for c in eq if c not in schema.names]
            if unknown:
                raise ValueError(
                    f"unknown eq columns {unknown}; have {schema.names}"
                )
            from . import index as idxmod

            total_b = len(file_map)
            total_f = sum(len(v) for v in file_map.values())
            for c, v in eq.items():
                skip = idxmod.prunable_buckets(self, manifest, c, v)
                if skip:
                    file_map = {
                        b: f for b, f in file_map.items() if b not in skip
                    }
            if prune_report is not None:
                prune_report.update(
                    bloom_buckets_total=total_b,
                    bloom_buckets_read=len(file_map),
                    bloom_files_total=total_f,
                    bloom_files_read=sum(len(v) for v in file_map.values()),
                )
        lo_us = _ts_us(ts_min) if ts_min is not None else None
        hi_us = _ts_us(ts_max) if ts_max is not None else None
        if lo_us is not None or hi_us is not None:
            from . import stats as statsmod

            ranges = statsmod.zone_ranges(self, manifest)
            total_b = len(file_map)
            total_f = sum(len(v) for v in file_map.values())
            kept: dict[int, list[str]] = {}
            for b, files in file_map.items():
                ents = {e["path"]: e for e in ranges.get(b, [])}
                es = [ents.get(p) for p in files]
                known = all(e is not None and e["min_us"] is not None
                            for e in es)
                if known:
                    bmin = min(e["min_us"] for e in es)
                    bmax = max(e["max_us"] for e in es)
                    if (lo_us is not None and bmax < lo_us) or (
                            hi_us is not None and bmin > hi_us):
                        continue  # bucket disjoint from the window
                keep = files
                if lo_us is not None:
                    keep = [
                        p for p, e in zip(files, es)
                        if not (e is not None and e["max_us"] is not None
                                and e["max_us"] < lo_us)
                    ]
                if keep:
                    kept[b] = keep
            file_map = kept
            if prune_report is not None:
                prune_report.update(
                    buckets_total=total_b, buckets_read=len(file_map),
                    files_total=total_f,
                    files_read=sum(len(v) for v in file_map.values()),
                )
        specs = [{"files": files} for files in file_map.values() if files]
        identity = ["url", "warc_ts", "event_seq", "is_deleted"]
        if columns is not None:
            want = (list(columns) + list(predicate_columns or [])
                    + list(eq or {}))
            unknown = [c for c in want if c not in schema.names]
            if unknown:
                raise ValueError(f"unknown columns {unknown}; have {schema.names}")
            need = list(dict.fromkeys(want + identity))
            schema = pa.schema([schema.field(c) for c in need])
        scan_cols = None if columns is None else schema.names

        def load_merge(batch: pa.Table) -> pa.Table:
            out = []
            for files in batch.column("files").to_pylist():
                live = live_rows(_load_bucket(files, schema, ren, scan_cols))
                if lo_us is not None or hi_us is not None:
                    ts = live.column("warc_ts").cast(pa.int64())
                    mask = None
                    if lo_us is not None:
                        mask = pc.greater_equal(ts, lo_us)
                    if hi_us is not None:
                        m2 = pc.less_equal(ts, hi_us)
                        mask = m2 if mask is None else pc.and_(mask, m2)
                    live = live.filter(pc.fill_null(mask, False))
                if eq:
                    for c, v in eq.items():
                        live = live.filter(pc.fill_null(
                            pc.equal(live.column(c), pa.scalar(v)), False
                        ))
                if predicate is not None:
                    live = live.filter(
                        pc.fill_null(pa.array(predicate(live)), False)
                    )
                if columns is not None:
                    live = live.select(list(columns))
                out.append(live)
            if out:
                return pa.concat_tables(out)
            empty = live_rows(conform(pa.table({}), schema))
            return empty.select(list(columns)) if columns is not None else empty

        load_merge.__name__ = "merge_on_read"
        return rd.from_items(specs).map_batches(
            load_merge, batch_format="pyarrow", batch_size=1
        )

    def lookup_urls(
        self, urls: list[str], manifest: Manifest | None = None
    ) -> pa.Table:
        """Point-lookup serving path: the live rows for an explicit url
        set WITHOUT a full merge-on-read scan. Each url is routed to its
        owning bucket with the SAME router as writes (``_bucket_ids``
        under the manifest's modulus, not the driver config's),
        only those buckets are opened, and the url set is pushed into the
        parquet scan (``filters=``) so row-group min/max stats on the
        url-sorted base files prune I/O inside a bucket too. Filtering
        each file BEFORE the LWW merge is correct because the merge is
        per-url independent; tombstoned urls come back absent, exactly as
        in ``read_table``. Work is O(|urls| + touched row-groups),
        independent of lake size — at 10^10 rows this is the difference
        between a key-value GET and a table scan. One Ray task per
        touched bucket; the result is driver-sized by contract (callers
        ask for specific keys), so returning a pyarrow Table is not a
        take_all smell. Gobblin itself is ingest-only — the read-back
        analog is its extract-verification path
        (gobblin-runtime/.../JobLauncherTestHelper.java:80-131 reads rows
        back by key to assert state)."""
        import ray

        manifest = manifest or self.store.latest()
        if manifest is None:
            raise ValueError("lookup_urls needs a bootstrapped lake")
        _check_router(manifest)
        schema = manifest.base_schema()
        empty = live_rows(conform(pa.table({}), schema))
        by_bucket = _urls_by_bucket(urls, manifest.num_buckets)
        if not by_bucket:
            return empty
        file_map = self.bucket_file_map(manifest)
        ren = dict(manifest.column_renames)
        probe = _remote(_probe).options(name="probe")
        refs = [
            probe.remote(file_map[b], wanted, schema, ren)
            for b, wanted in sorted(by_bucket.items())
            if file_map.get(b)
        ]
        hits = [t for t in ray.get(refs) if t.num_rows]
        if not hits:
            return empty
        return pa.concat_tables(hits).sort_by([("url", "ascending")])

    # Identity columns: the router key, the LWW ordering axes and the
    # tombstone marker. Renaming one would change engine SEMANTICS, not
    # metadata — protected (Iceberg likewise refuses to drop/rename a
    # partition source field without a spec evolution).
    _PROTECTED_COLUMNS = frozenset({"url", "warc_ts", "event_seq", "is_deleted"})

    @staticmethod
    def _ddl_manifest(m: "Manifest", **overrides) -> "Manifest":
        """Forward-copy a manifest for a metadata-only DDL commit (rename /
        drop-column / add- / drop-constraint): SAME watermark, same bucket
        layout and — critically — the same ``bucket_hash`` router stamp
        (a DDL must never silently upgrade a legacy lake's router version:
        run() refuses legacy routers, and re-stamping here would let the
        next run route NEW events with the new hash onto buckets laid out
        by the old one). A DDL applies no events and rewrites no file, so
        every bucket is idle and its zone map (``ts_ranges``) still
        describes the same files. ``overrides`` as in ``_manifest``."""
        return CdcEngine._manifest(
            m, {b: _idle_bucket(s, m.high_seq) for b, s in m.buckets.items()},
            **overrides)

    def drop_column(self, name: str) -> "Manifest":
        """Metadata-only DROP COLUMN (Iceberg UpdateSchema.deleteColumn
        analog): commit a new manifest at the SAME watermark without the
        field; NO data file is rewritten. The stored name is retired by
        mapping it to a unique ``__dropped_<name>_e<epoch>`` tombstone in
        the rename map — readers rename file columns to the tombstone and
        ``conform`` (which projects to the schema) drops the values; the
        epoch path renames lagging producers' event columns the same way
        and excludes tombstones from additive unification, so the column
        cannot silently resurrect. RE-USING a dropped name stays blocked
        while any pre-drop file could still be read (the map outlives the
        files by design — no field ids); after a ``rebucket`` (full
        rewrite, map cleared) the name becomes available again and a
        later add is a FRESH column with no history, exactly Iceberg's
        re-add semantics. Identity columns protected; admin DDL, bypasses
        the passive registry gate. Takes the job lock."""
        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("drop_column needs a bootstrapped lake")
            schema = m.base_schema()
            if name not in schema.names:
                raise ValueError(f"no column {name!r} in {schema.names}")
            if name in self._PROTECTED_COLUMNS:
                raise ValueError(
                    f"cannot drop identity column {name!r}: "
                    f"{sorted(self._PROTECTED_COLUMNS)} are the router key, "
                    "LWW axes and tombstone marker"
                )
            tomb = f"__dropped_{name}_e{m.epoch + 1}"
            new_schema = pa.schema([f for f in schema if f.name != name])
            ren = {
                k: (tomb if v == name else v)
                for k, v in m.column_renames.items()
            }
            ren[name] = tomb
            return self._commit(
                self._ddl_manifest(m, schema=new_schema, column_renames=ren),
                event=("ColumnDropped", {"column": name}))

    def rename_column(self, old: str, new: str) -> "Manifest":
        """Metadata-only column rename — the Iceberg ``RENAME COLUMN``
        analog (UpdateSchema.renameColumn; Iceberg does it via field ids,
        this engine via the manifest's cumulative STORED-name ->
        CURRENT-name map since Arrow schemas carry no ids): commit a new
        manifest at the SAME watermark whose schema carries the new name;
        NO data file is rewritten. Every reader passes file tables through
        ``apply_renames`` before conforming, and compaction naturally
        rewrites files with current names over time (at which point the
        map no-ops for them; a rebucket rewrites everything and clears it).
        Producers may lag the rename: events still arriving under the old
        name are mapped forward in the epoch path. Re-adding a NEW column
        under the old name later is safe — apply_renames skips a mapping
        when the target name is already present in a file, and any file
        holding the pre-rename column strictly predates the rename.

        Chained renames compose (a->b then b->c leaves {a->c, b->c});
        a rename BACK (a->b then b->a) cancels to {b->a} with stored-a
        files correctly untouched. An explicit admin DDL operation, so it
        bypasses ``schema_compat_mode`` (the registry gate governs
        passive, data-driven evolution). Takes the job lock."""
        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("rename_column needs a bootstrapped lake")
            schema = m.base_schema()
            names = schema.names
            if old not in names:
                raise ValueError(f"no column {old!r} in {names}")
            if new in names:
                raise ValueError(f"column {new!r} already exists")
            if old in self._PROTECTED_COLUMNS or new in self._PROTECTED_COLUMNS:
                raise ValueError(
                    f"cannot rename identity column ({old!r} -> {new!r}): "
                    f"{sorted(self._PROTECTED_COLUMNS)} are the router key, "
                    "LWW axes and tombstone marker"
                )
            if not new or not new.isidentifier() or new.startswith("__dropped_"):
                raise ValueError(f"invalid column name {new!r}")
            if new in m.column_renames:
                # the name is RETIRED (drop_column tombstone or an earlier
                # rename source): a column called this still exists in
                # old files and would be mapped away/recalled wrongly
                raise ValueError(
                    f"column name {new!r} is retired while pre-rename files "
                    "may still be read (rebucket clears the map)"
                )
            new_schema = pa.schema(
                [f.with_name(new) if f.name == old else f for f in schema]
            )
            ren = {
                k: (new if v == old else v)
                for k, v in m.column_renames.items()
            }
            ren[old] = new
            ren = {k: v for k, v in ren.items() if k != v}
            return self._commit(
                self._ddl_manifest(m, schema=new_schema, column_renames=ren),
                event=("ColumnRenamed", {"old": old, "new": new}))

    def add_constraint(self, name: str, spec: dict) -> "Manifest":
        """Persist a table constraint (Delta ``ALTER TABLE ADD CONSTRAINT``
        analog): validate the spec, verify the CURRENT live state already
        satisfies it (Delta semantics — adding a constraint the table
        violates is rejected, with the violation count), then commit a
        new manifest at the same watermark carrying it. Subsequent epochs
        quarantine violating upsert events to ``_errors/``
        (constraints.py's posture note). Takes the job lock."""
        import re as _re

        from .constraints import _ok_mask, validate_spec

        if not _re.match(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$", name or ""):
            raise ValueError(f"invalid constraint name {name!r}")
        spec = validate_spec(spec)
        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("add_constraint needs a bootstrapped lake")
            if name in m.constraints:
                raise ValueError(f"constraint {name!r} already exists")
            if spec["column"] not in m.base_schema().names:
                raise ValueError(
                    f"no column {spec['column']!r} in "
                    f"{m.base_schema().names}")
            # Delta-style pre-scan: live rows must already satisfy it
            from ray.data.aggregate import Sum

            def count_bad(t: pa.Table) -> pa.Table:
                bad = int((~_ok_mask(spec, t)).sum())
                return pa.table({"_bad": pa.array([bad], pa.int64())})

            count_bad.__name__ = "constraint_prescan"
            agg = self.read_table(
                manifest=m, columns=[spec["column"]]
            ).map_batches(
                count_bad, batch_format="pyarrow", batch_size=None
            ).aggregate(Sum("_bad", alias_name="bad"))
            bad = int(agg["bad"] or 0)
            if bad:
                raise ValueError(
                    f"cannot add constraint {name!r}: {bad} live rows "
                    "violate it (fix or purge them first)")
            cons = dict(m.constraints)
            cons[name] = spec
            return self._commit(
                self._ddl_manifest(m, constraints=cons),
                event=("ConstraintAdded", {"constraint": name,
                                           "kind": spec["kind"],
                                           "column": spec["column"]}))

    def drop_constraint(self, name: str) -> "Manifest":
        """Drop a persisted constraint (metadata-only; quarantined rows
        stay in ``_errors/`` and become redrivable). Takes the job lock."""
        with self._job_lock():
            m = self.store.latest()
            if m is None or name not in m.constraints:
                have = sorted(m.constraints) if m else []
                raise ValueError(f"unknown constraint {name!r} (have {have})")
            cons = {k: v for k, v in m.constraints.items() if k != name}
            return self._commit(
                self._ddl_manifest(m, constraints=cons),
                event=("ConstraintDropped", {"constraint": name}))

    def rebucket(self, new_buckets: int) -> "Manifest":
        """Bucket-count migration (partition evolution — the operational
        move when a lake outgrows its router, e.g. 32 -> 512 buckets as a
        crawl grows): merge every OLD bucket's base+deltas (tombstones
        RETAINED — late events must still lose to them), re-route every
        row through the new ``hash(url) % new_buckets``, write ONE fresh
        base per new bucket as the next epoch, and commit a manifest with
        the new count at the SAME high_seq. Subsequent runs resume from
        that watermark under the new router; exactly-once invariance makes
        the continued replay converge byte-identically (pinned by
        test_rebucket_midstream_converges). The Iceberg analog is
        partition-spec evolution with a rewrite.

        Shape: the push exchange the epochs use — ``rebucket_route`` map
        tasks each merge a run of old buckets and route their rows by the
        new bucket id, then one ``rebucket_write`` task per new bucket
        writes it url-sorted. Per-bucket lineage counters restart at the
        migration epoch (the manifest chain keeps history). Idempotent per
        epoch: staged names are deterministic and promote skips existing
        files."""
        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("rebucket needs a bootstrapped lake")
            if new_buckets < 1:
                raise ValueError("new_buckets must be >= 1")
            epoch = m.epoch + 1
            lake_dir, B = self.lake_dir, int(new_buckets)
            lineage, _ = _push_exchange(
                [files for files in self.bucket_file_map(m).values() if files],
                functools.partial(_load_buckets, schema=m.base_schema(),
                                  renames=dict(m.column_renames)),
                functools.partial(_add_bucket, num_buckets=B),
                functools.partial(_write_rebucketed, lake_dir=lake_dir,
                                  epoch=epoch),
                B, (None, "rebucket_route", "rebucket_write"))
            # every row was re-routed by the CURRENT router and rewritten
            # with CURRENT column names, so the lake takes this engine's
            # router stamp and the stored-name rename map is spent
            manifest = self._manifest(
                m, _fresh_buckets(lineage, B, epoch, m.high_seq),
                num_buckets=B, bucket_hash=ckpt.BUCKET_HASH_VERSION,
                column_renames={})
            return self._commit(manifest, [int(r["bucket"]) for r in lineage])

    def compact_now(self) -> "Manifest":
        """Forced full compaction — the reference runs compaction as its
        own STANDALONE job, decoupled from ingestion
        (gobblin-compaction/.../CompactionSource.java plans dirty datasets,
        MRCompactorJobRunner merges them): merge every bucket's outstanding
        deltas into one fresh base at a new epoch, watermark PINNED. The
        inline amortized triggers (compact_every / ratio / age) bound read
        amplification during ingestion; this zeroes it on demand — before a
        read-heavy period, or after a burst of tiny epochs. Buckets with no
        outstanding deltas are untouched (state carries forward).

        Shape: per-bucket LOCAL — one merge+write task per DIRTY bucket,
        NO exchange (the bucket router is unchanged). Idempotent: staged
        names are deterministic and promote skips existing files. Takes
        the job lock; superseded delta files become unreferenced and fall
        to ``vacuum_keep``'s retention window."""
        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("compact_now needs a bootstrapped lake")
            dirty = {b: s for b, s in m.buckets.items() if s.delta_epochs}
            if not dirty:
                return m  # nothing outstanding — no new epoch
            specs = [
                {"bucket": b, "files": ckpt.bucket_files(self.lake_dir, s)}
                for b, s in sorted(dirty.items())
            ]
            # the merged state as it stands, tombstones retained — late
            # events must still lose
            lineage = self._rewrite_buckets(
                specs, lambda t, spec: (t, 0), "compact_bucket", m,
                m.epoch + 1)
            return self._commit_maintenance_epoch(
                m, lineage,
                {"forced_compactions": 1, "compactions": len(lineage)},
                ("ForcedCompaction", {"buckets": len(lineage)}))

    def redrive_errors(self, fixer=None, epochs: list[int] | None = None,
                       consume: bool = True) -> dict:
        """Dead-letter re-drive: replay quarantined error rows back through
        the full validate -> bucket -> LWW-merge -> commit path, optionally
        after a ``fixer`` repairs them (the Gobblin quarantine/retry shape:
        ERR_FILE diverts instead of failing, and the operator re-submits
        the error files once the upstream bug is fixed —
        gobblin-api/.../qualitychecker/row/RowLevelPolicy.java ERR_FILE +
        the runtime's task-retry posture).

        Correctness rests on LWW commutativity: applying a diverted event
        LATE converges to exactly the state an on-time application would
        have produced, because the merge winner is decided by the event's
        own (warc_ts, event_seq) — never by arrival order — and the replay
        epoch's watermark is pinned to the CURRENT high_seq, so regular
        ingestion planning is untouched. Rows the fixer leaves invalid are
        re-diverted into the new epoch's error sink (still quarantined,
        never dropped); with ``consume=True`` the source error files move
        to ``_errors/_redriven/`` after the commit, so a crash between
        commit and move only re-redrives — idempotent by the same LWW
        argument.

        ``fixer``: pyarrow Table -> Table over the raw event schema.
        ``epochs``: only re-drive these epochs' error files (default all).
        """
        with self._job_lock():
            return self._redrive_impl(fixer, epochs, consume)

    def _redrive_impl(self, fixer, epochs, consume) -> dict:
        import shutil
        import tempfile

        manifest = self.store.latest()
        if manifest is None:
            raise RuntimeError("lake not bootstrapped")
        _check_router(manifest)  # the redrive epoch routes like run()
        err_root = os.path.join(self.lake_dir, "_errors")
        src_files: list[str] = []
        if os.path.isdir(err_root):
            for d in sorted(os.listdir(err_root)):
                if not d.startswith("epoch="):
                    continue
                if epochs is not None and int(d.split("=")[1]) not in epochs:
                    continue
                for f in sorted(os.listdir(os.path.join(err_root, d))):
                    if f.endswith(".parquet"):
                        src_files.append(os.path.join(err_root, d, f))
        if not src_files:
            return {"epoch": None, "source_files": 0, "source_rows": 0,
                    "redriven": 0, "still_diverted": 0, "unreplayable": 0}

        tables = [apply_renames(pq.read_table(p), manifest.column_renames)
                  for p in src_files]
        schema = unify_additive(*[t.schema for t in tables])
        t = pa.concat_tables([conform(x, schema) for x in tables])
        internal = [c for c in (_ERR_COL, _BUCKET_COL, _SALT_COL, _N_COL)
                    if c in t.column_names]
        t = t.drop_columns(internal)
        if fixer is not None:
            t = fixer(t)
        # The epoch filter and the commit gate's independent count both key
        # on event_seq; a null-seq row would silently vanish between them —
        # split them out, keep them QUARANTINED (consume must never drop
        # them from the active dead-letter queue), and report the count.
        valid_seq = pc.is_valid(t.column("event_seq"))
        bad = t.filter(pc.invert(valid_seq))
        unreplayable = bad.num_rows
        t = t.filter(valid_seq)
        if t.num_rows == 0:
            return {"epoch": None, "source_files": len(src_files),
                    "source_rows": 0, "redriven": 0, "still_diverted": 0,
                    "unreplayable": unreplayable}

        redrive_dir = tempfile.mkdtemp(prefix="gobblin_redrive_")
        try:
            pq.write_table(
                t, os.path.join(redrive_dir, "part-redrive-00000.parquet")
            )
            prev_events_dir, prev_cfg = self.events_dir, self.cfg
            try:
                self.events_dir = redrive_dir
                # Route under the LAKE's bucket modulus, not this driver's
                # config default — a mismatched count would promote the
                # redriven rows into bucket dirs outside the manifest
                # (orphaned = silent data loss; caught live in testing).
                if self.cfg.num_buckets != manifest.num_buckets:
                    from dataclasses import replace as _dc_replace

                    self.cfg = _dc_replace(
                        self.cfg, num_buckets=manifest.num_buckets
                    )
                log_meta = planmod.load_log_meta(redrive_dir)
                ep = planmod.Epoch(
                    index=manifest.epoch + 1,
                    low_seq=-1,  # redriven seqs are all <= the watermark
                    high_seq=manifest.high_seq,  # watermark PINNED
                )
                new_manifest, report = self.apply_epoch(
                    ep, manifest, log_meta, redrive=True)
            finally:
                self.events_dir, self.cfg = prev_events_dir, prev_cfg
        finally:
            shutil.rmtree(redrive_dir, ignore_errors=True)

        if consume:
            if unreplayable:
                # re-quarantine the null-seq rows under the NEW epoch so
                # archiving the sources can't silently drop them from the
                # active dead-letter queue
                dest_dir = os.path.join(
                    err_root, f"epoch={new_manifest.epoch:06d}"
                )
                os.makedirs(dest_dir, exist_ok=True)
                ckpt.atomic_write_table(
                    bad.append_column(
                        _ERR_COL,
                        pa.array(["null_seq"] * bad.num_rows, pa.string()),
                    ),
                    os.path.join(dest_dir, "unreplayable.parquet"),
                )
            dest_root = os.path.join(err_root, "_redriven")
            for p in src_files:
                dest = os.path.join(dest_root, os.path.relpath(p, err_root))
                os.makedirs(os.path.dirname(dest), exist_ok=True)
                os.replace(p, dest)
        self.metrics.submit_event(
            "ErrorsRedriven", epoch=new_manifest.epoch,
            redriven=report.events, still_diverted=report.errors,
        )
        return {"epoch": new_manifest.epoch, "source_files": len(src_files),
                "source_rows": t.num_rows, "redriven": report.events,
                "still_diverted": report.errors, "unreplayable": unreplayable}

    def _rewrite_buckets(self, specs: list[dict], fn, task_name: str,
                         source: Manifest, epoch: int) -> list[dict]:
        """The one bucket-rewrite job of the maintenance commands: one
        plain Ray task named ``task_name`` per spec (``{"bucket", "files",
        ...}``, files of ``source``) loads the bucket's merged state —
        tombstones kept, conformed to ``source``'s schema — and calls
        ``fn(table, spec) -> (table | None, count)``. A returned table is
        staged, url-sorted, as the bucket's base at ``epoch`` in THIS
        lake; None leaves the bucket untouched. Returns the lineage: one
        ``{bucket, rows, count, staged}`` row per spec, in spec order
        (O(buckets) driver state), which ``_commit_maintenance_epoch``
        hands to the commit tail. If a task raises, every task of the call finishes before
        the first error is re-raised with its type, so none is still
        staging into ``epoch`` when a later command reuses it."""
        import ray

        if not specs:
            return []
        if not ray.is_initialized():
            ray.init()  # as a Ray Data job or a task launch would
        task = _remote(_rewrite_one).options(name=task_name)
        fn_ref = ray.put(fn)
        schema = source.base_schema()
        ren = dict(source.column_renames)
        refs = [task.remote(spec, fn_ref, schema, ren, self.lake_dir, epoch)
                for spec in specs]
        ray.wait(refs, num_returns=len(refs))
        return ray.get(refs)

    def _commit_maintenance_epoch(self, m: Manifest, lineage,
                                  counters: dict[str, int],
                                  event: tuple[str, dict] | None = None
                                  ) -> Manifest:
        """Commit the buckets ``_rewrite_buckets`` staged into epoch
        ``m.epoch + 1`` at the SAME watermark (compaction, update/delete,
        purge, repair): a rewritten bucket is one fresh base — deltas and
        zone map gone, lineage count kept; every other bucket keeps its
        BucketState as-is, (possibly pre-rename) files included.
        ``counters`` and ``event`` go to ``_commit``."""
        staged = [r for r in lineage if r["staged"]]
        buckets = dict(m.buckets)
        for r in staged:
            b = int(r["bucket"])
            old = m.buckets[b]
            # events_epoch is the salt-plan input ("events applied THIS
            # epoch") — a rewrite applies none; writing the epoch NUMBER
            # here once made salt_plan flag rewritten buckets as hot
            buckets[b] = BucketState(
                bucket=b, high_seq=old.high_seq, base_epoch=m.epoch + 1,
                rows=int(r["rows"]),
                events_applied=old.events_applied, events_epoch=0,
            )
        return self._commit(self._manifest(m, buckets),
                            [int(r["bucket"]) for r in staged], counters,
                            event=event)

    def update_where(self, predicate, assign) -> dict:
        """In-place UPDATE ... WHERE DML over the lake — the Delta Lake
        UpdateCommand / Iceberg copy-on-write UPDATE analog, and the
        maintenance-side complement of the CDC ingest path (backfill a
        derived column, fix a bad load, enrich rows computed from their
        own content — e.g. language-ID over a WARC-bootstrapped lake
        whose ``lang`` is null).

        ``predicate``: ``pa.Table -> BooleanArray`` over the bucket's
        merged LIVE rows (tombstones are never updated — they carry only
        LWW identity). ``assign``: ``pa.Table (matched rows) -> dict[col,
        pa.Array]`` of replacement values, vectorized. Identity columns
        (url / warc_ts / event_seq / is_deleted) are protected: an
        update must NOT move a row's LWW position — later CDC events win
        or lose against an updated row exactly as before, and replay
        (``high_seq``) is untouched. Table constraints are enforced
        Delta-style: any violating assignment fails the WHOLE command
        before promote (an interactive DML is not a draining feed — the
        quarantine posture is wrong here, contrast constraints.py).

        Scale shape: one merge+filter+rewrite task per bucket, but only
        buckets with >= 1 matched row stage a new base (an update also
        folds their outstanding deltas — same compaction side effect as
        purge); untouched buckets keep their files. Driver state is
        O(buckets) lineage. Takes the job lock.
        """
        from .constraints import _ok_mask

        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("update_where needs a bootstrapped lake")
            file_map = self.bucket_file_map(m)
            specs = [{"bucket": b, "files": fs}
                     for b, fs in sorted(file_map.items()) if fs]
            epoch = m.epoch + 1
            cons = dict(m.constraints)
            protected = self._PROTECTED_COLUMNS

            def one_chunk(x, typ):
                # ChunkedArray.combine_chunks returns an Array on this
                # pyarrow; normalize either way
                if isinstance(x, pa.ChunkedArray):
                    x = x.combine_chunks()
                if isinstance(x, pa.ChunkedArray):
                    x = x.chunk(0) if x.num_chunks else pa.array([], typ)
                return x

            def update(t: pa.Table, spec: dict):
                mask, n_hit = _live_hits(t, predicate)
                if n_hit == 0:
                    return None, 0
                new_vals = assign(t.filter(mask))
                out = t
                for col, arr in new_vals.items():
                    if col in protected:
                        raise ValueError(
                            f"update_where: {col!r} is an LWW-identity "
                            "column — updating it would move rows' "
                            "replay position; write CDC events instead"
                        )
                    if col not in out.column_names:
                        raise ValueError(
                            f"update_where: unknown column {col!r}")
                    idx = out.schema.get_field_index(col)
                    field_t = out.schema.field(col).type
                    arr = one_chunk(arr, field_t).cast(field_t)
                    if len(arr) != n_hit:
                        raise ValueError(
                            f"update_where: assign returned {len(arr)} "
                            f"values for {n_hit} matched rows ({col})"
                        )
                    base = one_chunk(out.column(col), field_t)
                    repl = pc.replace_with_mask(base, mask, arr)
                    out = out.set_column(idx, col, repl)
                # Delta-style constraint enforcement on the rows the DML
                # produced (only matched rows can newly violate)
                upd = out.filter(mask)
                for name, spec_c in cons.items():
                    ok = _ok_mask(spec_c, upd)
                    if not bool(np.all(ok)):
                        raise ValueError(
                            f"update_where violates constraint "
                            f"{name!r} ({spec_c}) on "
                            f"{int((~ok).sum())} rows — command "
                            "aborted, nothing promoted"
                        )
                return out, n_hit

            lineage = self._rewrite_buckets(
                specs, update, "update_bucket", m, epoch)  # O(buckets) rows
            touched = [r for r in lineage if r["staged"]]
            if not touched:
                return {"epoch": m.epoch, "updated": 0, "buckets": 0}
            total = sum(int(r["count"]) for r in touched)
            self._commit_maintenance_epoch(
                m, lineage, {"dml_updated_rows": total},
                ("UpdateWhere", {"updated": total, "buckets": len(touched)}))
            return {"epoch": epoch, "updated": total,
                    "buckets": len(touched)}

    def delete_where(self, predicate) -> dict:
        """In-place DELETE ... WHERE DML — the predicate-form sibling of
        ``update_where`` (Delta DeleteCommand analog; ``purge_keys`` is
        the by-key compliance variant that also drops history).

        Matched LIVE rows are removed from the bucket's fresh base
        (tombstones and unmatched rows are kept; outstanding deltas fold
        in, same compaction side effect as purge). The watermark is
        unchanged — replay-suppressed events stay suppressed, and LATER
        events for a deleted url legitimately re-insert it
        (delete-as-of-now semantics, exactly purge's posture). Older
        manifests keep the rows for time travel until vacuum. Only
        buckets with >= 1 match are rewritten; O(buckets) driver state;
        takes the job lock.
        """
        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("delete_where needs a bootstrapped lake")
            file_map = self.bucket_file_map(m)
            specs = [{"bucket": b, "files": fs}
                     for b, fs in sorted(file_map.items()) if fs]
            epoch = m.epoch + 1

            def delete(t: pa.Table, spec: dict):
                mask, n_hit = _live_hits(t, predicate)
                if n_hit == 0:
                    return None, 0
                return t.filter(pc.invert(mask)), n_hit

            lineage = self._rewrite_buckets(
                specs, delete, "delete_bucket", m, epoch)
            touched = [r for r in lineage if r["staged"]]
            if not touched:
                return {"epoch": m.epoch, "deleted": 0, "buckets": 0}
            total = sum(int(r["count"]) for r in touched)
            self._commit_maintenance_epoch(
                m, lineage, {"dml_deleted_rows": total},
                ("DeleteWhere", {"deleted": total, "buckets": len(touched)}))
            return {"epoch": epoch, "deleted": total,
                    "buckets": len(touched)}

    def purge_keys(self, urls: list[str], drop_history: bool = True) -> dict:
        """Compliance purge — GDPR right-to-be-forgotten over the lake
        (reference analog: gobblin-modules/gobblin-compliance purger;
        PurgeableHivePartitionDataset.java:76-80 rewrites each affected
        Hive partition as the original LEFT OUTER JOINed against the
        compliance-id table and atomically swaps the partition location,
        HivePurgerConverter.java:25-29 builds those queries per dataset).

        Ray-native: the url->bucket router makes the purge
        BUCKET-TARGETED — only buckets owning a purge key are rewritten.
        Each affected bucket merges base+deltas and drops EVERY row whose
        url is purged — live and tombstone alike (a tombstone still
        carries the key) — then lands as a fresh base at the next epoch
        (staging -> promote, same two-phase commit as ingestion). With
        ``drop_history`` (the compliant default) all older manifests and
        newly-unreferenced data files are deleted — purged data must not
        survive via time travel either. ``high_seq`` is unchanged, so
        replay continues normally; events later in the log for a purged
        key re-insert it as fresh data (purge-as-of-now semantics; the
        upstream log is the source's retention problem, exactly as the
        reference purges the warehouse, not Kafka).

        Scale shape: driver work is O(keys) (hash -> bucket) + O(affected
        buckets) lineage; one read+filter+write task per AFFECTED bucket
        only, and each task ships ONLY its own keys (pre-partitioned
        driver-side), so a 10^6-key purge over 10^4 buckets moves ~100
        keys per task, not the whole set per task. Takes the job lock —
        purging under a live driver would race its promotes."""
        with self._job_lock():
            m = self.store.latest()
            if m is None:
                raise ValueError("purge_keys needs a bootstrapped lake")
            _check_router(m)
            urls = sorted(set(urls))
            if not urls:
                raise ValueError("no keys to purge")
            by_bucket = _urls_by_bucket(urls, m.num_buckets)
            file_map = self.bucket_file_map(m)
            specs = [
                {"bucket": b, "files": file_map[b], "purge": ks}
                for b, ks in sorted(by_bucket.items()) if file_map.get(b)
            ]
            epoch = m.epoch + 1
            lake_dir = self.lake_dir

            def purge(t: pa.Table, spec: dict):
                # tombstones included: they carry the key too
                hit = pc.is_in(
                    t.column("url"),
                    value_set=pa.array(spec["purge"], pa.string()),
                )
                kept = t.filter(pc.invert(hit))
                return kept, t.num_rows - kept.num_rows

            lineage = self._rewrite_buckets(
                specs, purge, "purge_bucket", m, epoch,
            )  # O(affected buckets) rows
            touched = [int(r["bucket"]) for r in lineage]
            total_purged = sum(int(r["count"]) for r in lineage)
            manifest = self._commit_maintenance_epoch(
                m, lineage,
                {"purged_rows": total_purged, "purged_keys": len(urls)})
            # The _errors/ quarantine (and its _redriven archive) stages
            # FULL diverted rows — url, html, text — so a compliant purge
            # must scrub it too, or the purged user's data survives there
            # and a later redrive_errors() would re-insert it. Error
            # volume is O(diverted rows), so a driver-side rewrite is fine.
            purged_error_rows = 0
            err_root = os.path.join(lake_dir, "_errors")
            if os.path.isdir(err_root):
                purge_set = pa.array(urls, pa.string())
                for root, _dirs, names in os.walk(err_root):
                    for name in names:
                        if not name.endswith(".parquet"):
                            continue
                        p = os.path.join(root, name)
                        t = pq.read_table(p)
                        if "url" not in t.column_names:
                            continue
                        hit = pc.fill_null(
                            pc.is_in(t.column("url"), value_set=purge_set),
                            False,
                        )
                        n_hit = int(pc.sum(pc.cast(hit, pa.int64())).as_py())
                        if not n_hit:
                            continue
                        purged_error_rows += n_hit
                        kept = t.filter(pc.invert(hit))
                        if kept.num_rows:
                            ckpt.atomic_write_table(kept, p)
                        else:
                            os.remove(p)
            removed_manifests = removed_files = 0
            if drop_history:
                keep_files = {
                    p for s in manifest.buckets.values()
                    for p in ckpt.bucket_files(lake_dir, s)
                }
                for e in self.store.committed_epochs():
                    if e < epoch:
                        os.remove(self.store._path(e))
                        removed_manifests += 1
                # compliance beats pinning: tags on dropped manifests go
                from . import refs

                refs.prune_dangling_tags(lake_dir)
                removed_files = ckpt.sweep_unreferenced(lake_dir, keep_files)
            return {
                "epoch": epoch,
                "purged_rows": total_purged,
                "purged_keys": len(urls),
                "purged_error_rows": purged_error_rows,
                "buckets_rewritten": touched,
                "removed_manifests": removed_manifests,
                "removed_files": removed_files,
            }

    def _diff_specs(self, from_epoch: int, to_epoch: int | None, what: str):
        """The change feeds' plan: the newer manifest and one spec per
        bucket with its ``old`` and ``new`` files (the router is stable
        across manifests, so a bucket diffs against itself)."""
        m_old = self.store.load(from_epoch)
        m_new = (
            self.store.load(to_epoch) if to_epoch is not None
            else self.store.latest()
        )
        if m_old.num_buckets != m_new.num_buckets:
            # bucket_hash pins the hash FUNCTION but not the modulus: a
            # rebucket() between the two manifests moves urls across
            # buckets, and pairing old bucket b with new bucket b would
            # emit a mostly-spurious delete+insert feed. Diff within one
            # bucket layout instead (before or after the migration).
            raise ValueError(
                f"{what} across a bucket migration: manifest "
                f"{m_old.epoch} has {m_old.num_buckets} buckets but "
                f"{m_new.epoch} has {m_new.num_buckets}; diff within one "
                "bucket layout (both sides before, or both after, the "
                "rebucket)"
            )
        old_map = self.bucket_file_map(m_old)
        new_map = self.bucket_file_map(m_new)
        return m_new, [
            {"old": old_map.get(b, []), "new": new_map.get(b, [])}
            for b in sorted(set(old_map) | set(new_map))
        ]

    def read_changes(self, from_epoch: int, to_epoch: int | None = None,
                     include_before: bool = False,
                     columns: tuple[str, ...] = (),
                     before_columns: tuple[str, ...] = ()):
        """CDC-out / snapshot diff between two committed manifests: one row
        per url whose LIVE state differs, tagged ``change_type`` in
        {insert, update, delete} — insert/update rows carry the NEW
        (warc_ts, event_seq, text); deletes carry the last OLD values.
        With ``include_before=True`` the feed also carries a Debezium-style
        before-image column ``old_event_seq`` (the row's event_seq AS OF
        ``from_epoch``; null on inserts) — what an incremental
        materialized-view consumer needs to retract an updated row's old
        contribution (see stages/aggregates.ivm_count_sum_view).
        ``columns`` projects extra lake columns onto insert/update rows
        (their NEW values; null on deletes), and ``before_columns`` adds
        ``old_<col>`` before-images onto update/delete rows (null on
        inserts) — together they let an IVM consumer maintain a view
        grouped by a MUTABLE column: retract (old group, old seq), apply
        (new group, new seq).
        The Gobblin analog is the snapshot-diff listing generalized to row
        granularity (FileBasedSource's prior-vs-current fs snapshot diff,
        gobblin-core/.../filebased/FileBasedSource.java) — the downstream-
        consumption feed an incremental job would tail.

        Scale shape: the bucket router is stable across manifests (the
        manifest's ``bucket_hash`` guarantees it), so the diff is
        PER-BUCKET LOCAL — one task merges both versions of one bucket and
        compares vectorized; there is NO shuffle. Requires the older
        manifest's files to still exist (run with ``vacuum=False`` or
        within the ``vacuum_keep`` manifest-retention window).
        """
        import ray.data as rd

        m_new, specs = self._diff_specs(from_epoch, to_epoch, "read_changes")
        schema = m_new.base_schema()
        ren = dict(m_new.column_renames)

        def _live_sorted(files: list[str]) -> pa.Table:
            t = live_rows(_load_bucket(files, schema, ren))
            return conform(t, schema).sort_by([("url", "ascending")])

        base_names = set(schema.names)
        reserved = {"url", "change_type", "warc_ts", "event_seq", "text"}
        for c in tuple(columns) + tuple(before_columns):
            if c not in base_names:
                raise ValueError(f"no column {c!r} in {sorted(base_names)}")
        # dedupe (a repeated name would put the same field in the schema
        # twice, making the column unreadable); drop names the fixed feed
        # already carries — including old_event_seq when include_before
        # is on, which covers before_columns=("event_seq",)
        columns = tuple(c for c in dict.fromkeys(columns)
                        if c not in reserved)
        before_columns = tuple(
            c for c in dict.fromkeys(before_columns)
            if not (include_before and c == "event_seq")
        )

        fields = [
            ("url", pa.string()), ("change_type", pa.string()),
            ("warc_ts", pa.timestamp("us")), ("event_seq", pa.int64()),
            ("text", pa.string()),
        ]
        fields += [(c, schema.field(c).type) for c in columns]
        if include_before:
            fields.append(("old_event_seq", pa.int64()))
        fields += [(f"old_{c}", schema.field(c).type)
                   for c in before_columns]
        out_schema = pa.schema(fields)

        # the only OLD-side columns the feed reads are event_seq (for
        # old_event_seq) and the requested before-images — take() copies
        # whole rows, so project before taking or the text payload rides
        # along twice on update/delete-heavy diffs
        old_need = list(dict.fromkeys(("event_seq",) + before_columns))

        def _emit(t: pa.Table, idx: np.ndarray, kind: str,
                  old_rows: pa.Table | None = None) -> pa.Table:
            # old_rows: the OLD-side rows aligned 1:1 with idx (None on
            # inserts, which have no before-image); on deletes t IS the
            # old side, so sel doubles as the before-image — no second take
            sel = t.take(pa.array(idx))
            if kind == "delete":
                old_rows = sel
            cols = {
                "url": sel.column("url"),
                "change_type": pa.array([kind] * len(idx), pa.string()),
                "warc_ts": sel.column("warc_ts").cast(pa.timestamp("us")),
                "event_seq": sel.column("event_seq").cast(pa.int64()),
                "text": (sel.column("text") if kind != "delete"
                         else pa.nulls(len(idx), pa.string())),
            }
            for c in columns:
                cols[c] = (sel.column(c) if kind != "delete"
                           else pa.nulls(len(idx), schema.field(c).type))
            if include_before:
                cols["old_event_seq"] = (
                    pa.nulls(len(idx), pa.int64()) if old_rows is None
                    else old_rows.column("event_seq").cast(pa.int64())
                )
            for c in before_columns:
                cols[f"old_{c}"] = (
                    pa.nulls(len(idx), schema.field(c).type)
                    if old_rows is None else old_rows.column(c)
                )
            return pa.table(cols, schema=out_schema)

        def diff_bucket(batch: pa.Table) -> pa.Table:
            outs = []
            for row in batch.to_pylist():
                told, tnew = _live_sorted(row["old"]), _live_sorted(row["new"])
                ou = told.column("url").to_numpy(zero_copy_only=False)
                nu = tnew.column("url").to_numpy(zero_copy_only=False)
                ins, gone, common, oi = _match_sorted(ou, nu)
                outs.append(_emit(tnew, ins, "insert"))
                outs.append(_emit(told, gone, "delete"))
                if len(common):
                    oseq = told.column("event_seq").to_numpy(
                        zero_copy_only=False)[oi]
                    nseq = tnew.column("event_seq").to_numpy(
                        zero_copy_only=False)[common]
                    chg = oseq != nseq
                    outs.append(_emit(
                        tnew, common[chg], "update",
                        told.select(old_need).take(pa.array(oi[chg]))))
            return (pa.concat_tables(outs) if outs
                    else conform(pa.table({}), out_schema))

        diff_bucket.__name__ = "snapshot_diff"
        return rd.from_items(specs).map_batches(
            diff_bucket, batch_format="pyarrow", batch_size=1
        )

    def read_changes_full(self, from_epoch: int, to_epoch: int | None = None):
        """Full-row CDC-out feed: like ``read_changes`` but each
        insert/update row carries EVERY lake column of the new state, and
        each delete carries the TOMBSTONE's (warc_ts, event_seq) — i.e.
        the deleting event's own identity, not the last old values. That
        makes the feed a REPLAYABLE event log: applying it (change_type
        as ``op``) to a replica bootstrapped from the same snapshot
        converges the replica's live state byte-identically, because
        every feed row sits at its true position in the (warc_ts,
        event_seq) LWW total order (replicate.py builds on this; a
        net-change delete replayed with the OLD row's identity would tie
        with the replica's own row and make the winner order-dependent).
        Urls purged (no tombstone) fall back to the old row's identity.

        Same scale shape as read_changes: per-bucket local, no shuffle;
        needs the older manifest's files (vacuum window)."""
        import ray.data as rd

        m_new, specs = self._diff_specs(
            from_epoch, to_epoch, "read_changes_full")
        schema = m_new.base_schema()
        out_schema = pa.schema(
            [("change_type", pa.string())]
            + [(f.name, f.type) for f in schema if f.name != "is_deleted"]
        )
        data_cols = [f.name for f in out_schema][1:]
        ren = dict(m_new.column_renames)

        def _merged(files: list[str]) -> pa.Table:
            t = _load_bucket(files, schema, ren)
            return conform(t, schema).sort_by([("url", "ascending")])

        def _emit(t: pa.Table, idx: np.ndarray, kind: str) -> pa.Table:
            sel = t.take(pa.array(idx)).select(data_cols)
            return pa.table(
                {"change_type": pa.array([kind] * len(idx), pa.string()),
                 **{c: sel.column(c) for c in data_cols}},
                schema=out_schema,
            )

        def diff_bucket(batch: pa.Table) -> pa.Table:
            outs = []
            for row in batch.to_pylist():
                all_old = _merged(row["old"])
                all_new = _merged(row["new"])
                told, tnew = live_rows(all_old), live_rows(all_new)
                told = conform(told, schema)
                tnew = conform(tnew, schema)
                ou = told.column("url").to_numpy(zero_copy_only=False)
                nu = tnew.column("url").to_numpy(zero_copy_only=False)
                ins, gone, common, oi = _match_sorted(ou, nu)
                outs.append(_emit(tnew, ins, "insert"))
                if len(common):
                    oseq = told.column("event_seq").to_numpy(
                        zero_copy_only=False)[oi]
                    nseq = tnew.column("event_seq").to_numpy(
                        zero_copy_only=False)[common]
                    outs.append(
                        _emit(tnew, common[oseq != nseq], "update"))
                if len(gone):
                    # deleting event's identity lives in the NEW tombstones
                    au = all_new.column("url").to_numpy(zero_copy_only=False)
                    pos = np.searchsorted(au, ou[gone])
                    pos_c = np.minimum(pos, max(len(au) - 1, 0))
                    has_tomb = (len(au) > 0) & (au[pos_c] == ou[gone])
                    if has_tomb.any():
                        outs.append(_emit(
                            all_new, pos_c[has_tomb], "delete"))
                    if (~has_tomb).any():  # purged: old identity fallback
                        outs.append(_emit(
                            told, gone[~has_tomb], "delete"))
            return (pa.concat_tables(outs) if outs
                    else conform(pa.table({}), out_schema))

        diff_bucket.__name__ = "snapshot_diff_full"
        return rd.from_items(specs).map_batches(
            diff_bucket, batch_format="pyarrow", batch_size=1
        )

    def read_table_arrow(self, manifest: Manifest | None = None) -> pa.Table:
        """Driver-side materialized view — tests/small lakes only."""
        manifest = manifest or self.store.latest()
        schema = manifest.base_schema()
        ren = dict(manifest.column_renames)
        tables = []
        for files in self.bucket_file_map(manifest).values():
            merged = _load_bucket(files, schema, ren)
            if merged.num_rows:
                tables.append(live_rows(merged))
        if not tables:
            return conform(pa.table({}), schema)
        out_schema = unify_additive(*[t.schema for t in tables])
        return pa.concat_tables([conform(t, out_schema) for t in tables]).sort_by(
            [("url", "ascending")]
        )


class MultiTableCdcEngine:
    """One ingestion job over MANY logical tables — per-dataset commit
    isolation (SafeDatasetCommit analog,
    gobblin-runtime/.../SafeDatasetCommit.java:88-208: task states are
    grouped by dataset URN and each dataset commits independently; one
    dataset's failure doesn't roll back the others; Extract namespace/table
    identity gobblin-api/.../source/workunit/Extract.java:53-56).

    Each table gets its own lake dir (``<root>/<table>``), manifest chain,
    watermarks and schema lineage. ``run`` drives tables through a thread
    pool by default (each table holds its own lake lock and commits its
    own manifests, so the only shared state is the Ray scheduler, which
    interleaves the tables' epoch pipelines fairly — small tables no
    longer wait for large ones); ``parallel=1`` restores strict
    sequential order.
    """

    def __init__(
        self,
        root_dir: str,
        tables: dict[str, str],
        config: EngineConfig | None = None,
    ):
        """``tables`` maps table name -> its events (change-log) directory."""
        self.root_dir = root_dir
        self.engines = {
            name: CdcEngine(os.path.join(root_dir, name), events_dir, config)
            for name, events_dir in tables.items()
        }

    def bootstrap(self, pages: dict[str, str]) -> dict[str, Manifest]:
        return {
            name: self.engines[name].bootstrap(path) for name, path in pages.items()
        }

    def run(
        self, parallel: int | None = None, **run_kw
    ) -> dict[str, "list[EpochReport] | Exception"]:
        """Replay every table to its log head. A table whose run raises is
        recorded (value = the exception) and does NOT abort the others —
        their commits are already durable (failure isolation per dataset).

        ``parallel`` bounds concurrent table runs (default
        ``min(4, n_tables)``; the per-table epoch pipelines already
        saturate workers, so table-level concurrency buys overlap of
        driver-side commit I/O and small-table latency, not raw CPU).
        Exception isolation is identical in both modes."""
        from concurrent.futures import ThreadPoolExecutor

        results: dict[str, list[EpochReport] | Exception] = {}
        names = list(self.engines)
        w = min(4, len(names)) if parallel is None else max(1, parallel)
        if w <= 1:
            for name in names:
                try:
                    results[name] = self.engines[name].run(**run_kw)
                except Exception as exc:  # noqa: BLE001 - isolation by design
                    results[name] = exc
            return results
        with ThreadPoolExecutor(max_workers=w) as pool:
            futs = {
                name: pool.submit(self.engines[name].run, **run_kw)
                for name in names
            }
            for name in names:  # stable result order
                try:
                    results[name] = futs[name].result()
                except Exception as exc:  # noqa: BLE001 - isolation by design
                    results[name] = exc
        return results

    def failed_tables(self, results: dict) -> list[str]:
        return [n for n, r in results.items() if isinstance(r, Exception)]

    def read_table(self, name: str):
        return self.engines[name].read_table()

    def status(self) -> dict[str, dict]:
        out = {}
        for name, eng in self.engines.items():
            m = eng.store.latest()
            out[name] = (
                {"epoch": m.epoch, "high_seq": m.high_seq,
                 "rows": sum(s.rows for s in m.buckets.values())}
                if m is not None
                else {"epoch": None}
            )
        return out
