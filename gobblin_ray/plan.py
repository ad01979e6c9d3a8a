"""Work-unit planning: epochs, event-log file pruning, skew salting.

The Source.getWorkunits analog (gobblin-api/.../source/Source.java:44-96):
planning is a tiny driver-side computation over the checkpoint manifest and
the event-log shard metadata — O(shards + buckets), never O(events)
(SURVEY.md §7.4 extrapolability requirement).

- ``plan_epochs``: previous high watermark (from the manifest) vs the log
  head -> list of ``(low, high]`` epoch intervals, capped at
  ``epoch_width`` events (Partitioner analog,
  gobblin-core/.../partition/Partitioner.java:95-217; Kafka offset planning
  KafkaSource.java:544-676).
- ``prune_shards``: shard files overlapping an interval (row-group /
  partition pruning at the read — only relevant bytes leave storage);
  ``epoch_splits`` refines them to the parquet row groups and avro
  blocks an epoch's map tasks read.
- ``salt_plan``: per-bucket event counts from the previous epoch decide
  which hot buckets get salted sub-partitions this epoch
  (bin-packing / WorkUnitChangeEvent hot-split analog,
  KafkaWorkUnitPacker.worstFitDecreasingBinPacking:313-331).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Epoch:
    """One replay unit: apply events with ``low_seq < event_seq <= high_seq``."""

    index: int
    low_seq: int
    high_seq: int

    @property
    def width(self) -> int:
        return self.high_seq - self.low_seq


def load_log_meta(events_dir: str) -> dict:
    """Shard metadata written by the log producer (synth.write_corpus). If
    absent, derive it from parquet footers (driver-side, O(files))."""
    meta_path = os.path.join(events_dir, "_meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return json.load(f)
    import pyarrow.parquet as pq

    shards = []
    max_seq = -1
    # schema_version in the fallback is a fingerprint-derived id: distinct
    # footer schemas get distinct versions so _event_schemas unifies ALL of
    # them (a constant 0 here would silently drop evolved columns from any
    # shard whose schema differs from the first one read).
    version_of: dict[str, int] = {}
    for name in sorted(os.listdir(events_dir)):
        path = os.path.join(events_dir, name)
        if name.endswith(".parquet"):
            md = pq.read_metadata(path)
            arrow_schema = md.schema.to_arrow_schema()
            n_rows = md.num_rows
        elif name.endswith(".avro"):
            # Avro shards (the reference's native log format): the
            # container header gives the schema cheaply; min/max need a
            # decode — Avro carries no column statistics, so the span
            # probe IS the slow path (one driver decode per shard,
            # O(files) like the no-stats parquet fallback below; a
            # producer that writes _meta.json skips all of this)
            from .sources.avro import container_schema, read_container

            arrow_schema = container_schema(path)
            md = None
            n_rows = None
        else:
            continue
        fp = ",".join(f"{f.name}:{f.type}" for f in arrow_schema)
        version = version_of.setdefault(fp, len(version_of))
        idx = arrow_schema.get_field_index("event_seq")
        if idx < 0:
            raise ValueError(
                f"log shard {name} has no event_seq column — not a change "
                "log this engine can plan"
            )
        stats = (
            [md.row_group(g).column(idx).statistics
             for g in range(md.num_row_groups)]
            if md is not None else []
        )
        if stats and all(st is not None and st.has_min_max for st in stats):
            lo = min(st.min for st in stats)
            hi = max(st.max for st in stats)
        else:
            # no statistics (stat-less parquet or an avro container):
            # one column read — the slow path; never crash on it
            import pyarrow.compute as _pc

            if md is not None:
                col = pq.read_table(
                    path, columns=["event_seq"]
                ).column("event_seq")
            else:
                tbl = read_container(path)
                col = tbl.column("event_seq")
                n_rows = tbl.num_rows
            lo = _pc.min(col).as_py()
            hi = _pc.max(col).as_py()
        shards.append(
            {
                "file": name,
                "min_seq": int(lo),
                "max_seq": int(hi),
                "rows": int(n_rows),
                "bytes": os.path.getsize(path),
                "schema_version": version,
            }
        )
        max_seq = max(max_seq, int(hi))
    return {"shards": shards, "max_seq": max_seq}


def plan_epochs(
    log_meta: dict, committed_high: int, epoch_width: int, start_index: int
) -> list[Epoch]:
    """Split the unapplied span ``(committed_high, log_head]`` into epochs."""
    head = log_meta["max_seq"]
    epochs = []
    low = committed_high
    idx = start_index
    while low < head:
        high = min(low + epoch_width, head)
        epochs.append(Epoch(index=idx, low_seq=low, high_seq=high))
        low = high
        idx += 1
    return epochs


def plan_epochs_sized(
    log_meta: dict,
    committed_high: int,
    target_bytes: int,
    start_index: int,
    max_width: int | None = None,
) -> list[Epoch]:
    """Size-based epoch planning (KafkaWorkUnitPacker size-estimator analog,
    gobblin-modules/gobblin-kafka-common/.../packer/KafkaWorkUnitPacker.java
    :313-331; CopySource maxSizePerBin CopySource.java:183-185): epoch
    widths adapt so each epoch carries ~``target_bytes`` of log payload —
    wide-html segments get NARROW epochs and skinny segments get wide ones,
    instead of a fixed event count that can swing 100x in bytes.

    Uses per-shard ``bytes`` from the log metadata (file size; falls back
    to an 800 B/event estimate when absent); estimation is per shard, so a
    log whose record width changes over time re-paces automatically.
    """
    from itertools import islice

    head = log_meta["max_seq"]
    shards = sorted(log_meta["shards"], key=lambda s: s["min_seq"])
    epochs: list[Epoch] = []
    low = committed_high
    idx = start_index
    # persistent cursor past fully-consumed shards: `low` is monotone and
    # shards are sorted, so planning is O(shards + epochs) — a full rescan
    # per epoch was O(epochs x shards), a driver stall on old long logs
    cursor = 0
    while low < head:
        while cursor < len(shards) and shards[cursor]["max_seq"] <= low:
            cursor += 1
        budget = float(target_bytes)
        high = low
        for s in islice(shards, cursor, None):
            if s["max_seq"] <= high or s["min_seq"] > head:
                continue
            per_event = s.get("bytes", s["rows"] * 800) / max(1, s["rows"])
            remaining_in_shard = s["max_seq"] - high
            if remaining_in_shard <= 0:
                continue
            affordable = int(budget / per_event)
            if affordable <= 0:
                break
            take = min(remaining_in_shard, affordable)
            high += take
            budget -= take * per_event
            if budget < per_event:
                break
        high = max(high, low + 1)  # always make progress
        if max_width is not None:
            high = min(high, low + max_width)
        high = min(high, head)
        epochs.append(Epoch(index=idx, low_seq=low, high_seq=high))
        low = high
        idx += 1
    return epochs


def pack_bins(sizes: dict, n_bins: int) -> list[list]:
    """Worst-fit-decreasing bin packing of work items by estimated size
    (KafkaWorkUnitPacker.worstFitDecreasingBinPacking:313-331;
    MultiWorkUnitWeightedQueue keep-N-smallest-load analog,
    gobblin-core/.../source/workunit/MultiWorkUnitWeightedQueue.java).
    Returns ``n_bins`` lists of keys; each item lands in the currently
    lightest bin, items visited heaviest-first."""
    import heapq

    heap = [(0.0, i) for i in range(n_bins)]
    heapq.heapify(heap)
    bins: list[list] = [[] for _ in range(n_bins)]
    for key in sorted(sizes, key=lambda k: -sizes[k]):
        load, i = heapq.heappop(heap)
        bins[i].append(key)
        heapq.heappush(heap, (load + float(sizes[key]), i))
    return bins


def prune_shards(log_meta: dict, low: int, high: int) -> list[dict]:
    """Shards overlapping ``(low, high]`` — the file-level predicate pushdown."""
    return [
        s for s in log_meta["shards"] if s["max_seq"] > low and s["min_seq"] <= high
    ]


def row_groups_in(pf, low: int, high: int):
    """The row groups of the parquet file ``pf`` whose ``event_seq`` stats
    overlap ``(low, high]``, as ``(index, rows, covered)``: ``covered``
    when the stats put the whole group inside. A group without stats
    counts as overlapping, never as covered."""
    idx = pf.schema_arrow.get_field_index("event_seq")
    for g in range(pf.metadata.num_row_groups):
        rg = pf.metadata.row_group(g)
        st = rg.column(idx).statistics
        if st is not None and (st.max <= low or st.min > high):
            continue
        covered = st is not None and st.min > low and st.max <= high
        yield g, rg.num_rows, covered


def epoch_splits(log_meta: dict, events_dir: str, low: int,
                 high: int) -> list[tuple[str, int]]:
    """The read splits of ``(low, high]`` in log order, as ``(path,
    piece)``: every parquet row group ``row_groups_in`` keeps (footer reads
    only) and every block of each avro shard (block headers only: the
    payloads are seeked past, none is inflated; blocks carry no
    ``event_seq`` stats, so none is pruned)."""
    import pyarrow.parquet as pq

    from .sources.avro import block_count

    out: list[tuple[str, int]] = []
    for s in prune_shards(log_meta, low, high):
        path = os.path.join(events_dir, s["file"])
        if path.endswith(".avro"):
            out += [(path, k) for k in range(block_count(path))]
        else:
            with pq.ParquetFile(path) as pf:
                out += [(path, g) for g, _, _ in row_groups_in(pf, low, high)]
    return out


def expected_event_count(log_meta: dict, events_dir: str, low: int, high: int) -> int:
    """Independent count of log rows in ``(low, high]`` for the commit gate
    (RowCountPolicy analog, gobblin-core/.../policies/count/). Fully-covered
    shards contribute their metadata row count for free; boundary shards
    resolve at ROW-GROUP granularity — fully-covered groups count via their
    stats, and only the <=2 groups actually straddling an epoch edge decode
    their event_seq column (driver-side, O(row-group rows), never O(epoch
    events) and never a whole shard)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    total = 0
    for s in prune_shards(log_meta, low, high):
        if s["min_seq"] > low and s["max_seq"] <= high:
            total += s["rows"]
            continue
        if s["file"].endswith(".avro"):
            # avro boundary shard: no row groups/stats — decode the
            # shard's event_seq once (driver-side; boundary shards are
            # <=2 per epoch, same bound as the parquet straddle path)
            from .sources.avro import read_container

            col = read_container(
                os.path.join(events_dir, s["file"])
            ).column("event_seq")
            in_range = pc.and_(pc.greater(col, low),
                               pc.less_equal(col, high))
            total += int(pc.sum(pc.cast(in_range, pa.int64())).as_py() or 0)
            continue
        with pq.ParquetFile(os.path.join(events_dir, s["file"])) as pf:
            for g, rows, covered in row_groups_in(pf, low, high):
                if covered:
                    total += rows
                    continue
                col = pf.read_row_group(g, columns=["event_seq"]).column("event_seq")
                in_range = pc.and_(pc.greater(col, low), pc.less_equal(col, high))
                total += int(pc.sum(pc.cast(in_range, pa.int64())).as_py() or 0)
    return total


@dataclass
class SaltPlan:
    """Which buckets are salted this epoch and into how many sub-groups.

    LWW is associative, so a hot bucket's events may be partially reduced
    per (bucket, salt) group and then finally merged per bucket —
    correctness is unchanged, skew is spread over ``factor`` reducers.
    """

    hot_buckets: dict[int, int]  # bucket -> salt factor (sub-group count)

    def factor_for(self, bucket: int) -> int:
        return self.hot_buckets.get(bucket, 1)


def salt_plan(
    prev_counts: dict[int, int] | None,
    num_buckets: int,
    hot_factor: float = 4.0,
    max_salt: int = 8,
    prev_times: dict[int, float] | None = None,
    min_hot_sec: float = 0.25,
    prev_salts: dict[int, int] | None = None,
) -> SaltPlan:
    """Buckets whose previous-epoch event count exceeded ``hot_factor`` x
    the mean get ``min(count/mean, max_salt)`` salt sub-groups.

    ``prev_times`` (per-bucket merge WALL seconds from the previous
    epoch's lineage, BucketState.merge_sec) adds the straggler axis the
    count signal misses: a bucket whose merge time exceeded
    ``hot_factor`` x the mean time — skewed row widths, a compaction
    turn, one pathological key — salts next epoch even with an even
    event count. ``min_hot_sec`` floors the absolute time so sub-second
    scheduling noise never triggers salting. This is the mid-run
    hot-work-unit re-split analog (WorkUnitChangeEvent, handled in
    AbstractJobLauncher): epochs are short, so reacting at the NEXT plan
    bounds the straggler to one epoch without mid-flight re-routing."""
    hot: dict[int, int] = {}
    if prev_counts:
        total = sum(prev_counts.values())
        if total > 0:
            mean = max(1.0, total / max(1, num_buckets))
            for b, c in prev_counts.items():
                if c > hot_factor * mean:
                    hot[b] = int(min(max_salt, max(2, round(c / mean))))
    if prev_times:
        active = sorted(t for t in prev_times.values() if t > 0)
        if active:
            # MEDIAN baseline, not mean: one extreme straggler would
            # inflate a mean of few buckets past its own hot threshold
            # (t > hot_factor * mean is unreachable when t dominates the
            # total) — the median stays at the typical bucket's time.
            # LOWER median ((n-1)//2): with two active buckets the upper
            # median IS the straggler and it could never flag itself
            median_t = max(1e-9, active[(len(active) - 1) // 2])
            for b, t in prev_times.items():
                if t > hot_factor * median_t and t >= min_hot_sec:
                    salt = int(min(max_salt, max(2, round(t / median_t))))
                    hot[b] = max(hot.get(b, 0), salt)
    if prev_salts:
        # Hysteresis (review finding): a salted bucket's heavy reduce
        # moves into the salted-partial stage, so its measured merge_sec
        # collapses and the time signal alone would unsalt it — then it
        # straggles again, flapping on alternating epochs. Keep last
        # epoch's salt while the bucket's merge time stays at or above
        # the absolute floor (it is still doing real work); a bucket
        # whose salted merge went trivially cheap unsalts cleanly.
        for b, s in prev_salts.items():
            if s > 0 and b not in hot and prev_times \
                    and prev_times.get(b, 0.0) >= min_hot_sec:
                hot[b] = int(s)
    return SaltPlan(hot_buckets=hot)
