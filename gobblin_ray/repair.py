"""Anti-entropy verify/repair between two lakes with the same layout.

The replication path (replicate.py) PROVES convergence when nothing goes
wrong; this module is the recovery path when something did — bit-rot, a
partial restore, an operator edit, a missed feed span. It is the
Cassandra/Dynamo anti-entropy posture composed with the reference's
distcp verification step (gobblin-data-management's CopyableFile carries
a checksum and the publisher verifies it; here the unit is a BUCKET's
merged state, not a file, because two byte-different file layouts can
hold the identical state — e.g. a compacted source vs an uncompacted
replica).

Shape:
- ``bucket_digests``: one merge+hash task per bucket (the maintenance
  commands' bucket-rewrite job, staging nothing), NO exchange (the
  bucket router already co-locates state); each task returns one small
  lineage row. Driver state is O(buckets).
- ``repair``: digests both sides, rewrites only MISMATCHED buckets from
  the source's merged state into the destination's staging area, and
  commits them with the destination engine's
  ``_commit_maintenance_epoch`` — the same commit tail as compact_now
  (watermark PINNED, ``repairs`` counter folded into the manifest). It
  builds no manifest of its own. A ``dry_run`` is the pure verification
  job.

Digest definition (content, not bytes): an ORDER-INDEPENDENT uint64 sum
of per-row content hashes (profile._row_hash_u64 — deterministic across
processes, null-safe, float-bit-exact), split into LIVE rows hashed over
every current-name column and TOMBSTONES hashed over their LWW identity
(url, warc_ts, event_seq) only — a tombstone's payload columns are
incidental (a delete event carries no content, and purge fallbacks can
differ legitimately) but its identity decides future LWW outcomes, so it
must match. Sum-of-hashes makes the digest independent of row order,
chunking and file layout; a missed mismatch needs hash-sum collision
(~2^-64), and only ever UNDER-reports differences.

Preconditions (errors otherwise): equal bucket count, equal router stamp
(digests are only comparable when url->bucket routing is identical),
equal committed watermark (anti-entropy compares states that are
SUPPOSED to be identical; catch a lagging replica up with replicate.py
first), and equal current base schema. Both lakes must be reachable from
the workers (shared or mounted storage — the same assumption distcp
makes for its source).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_IDENTITY = ["url", "warc_ts", "event_seq", "is_deleted"]


def _digest(t: pa.Table, spec: dict) -> tuple[None, tuple[int, int]]:
    """``bucket_digests``' rewrite fn: stage nothing, and count one
    bucket's merged state as its ``(live_sum, tomb_sum)``."""
    from .functions.profile import _row_hash_u64

    dead = pc.fill_null(t.column("is_deleted"), False)
    live = t.filter(pc.invert(dead))
    tomb = t.filter(dead)
    with np.errstate(over="ignore"):
        live_sum = int(_row_hash_u64(live, t.column_names).sum(
            dtype=np.uint64)) if live.num_rows else 0
        tomb_sum = int(_row_hash_u64(tomb, _IDENTITY).sum(
            dtype=np.uint64)) if tomb.num_rows else 0
    return None, (live_sum, tomb_sum)


def bucket_digests(eng, manifest=None) -> list[dict]:
    """Per-bucket content digests of a lake's merged state: one
    ``{bucket, rows, count, staged}`` lineage row per bucket from
    ``_rewrite_buckets``, ``count`` being ``(live_sum, tomb_sum)`` —
    one merge+hash task per bucket, nothing but O(buckets) rows leaving
    the workers."""
    m = manifest if manifest is not None else eng.store.latest()
    if m is None:
        raise ValueError("bucket_digests needs a bootstrapped lake")
    fmap = eng.bucket_file_map(m)
    specs = [{"bucket": b, "files": fmap[b]} for b in sorted(fmap)]
    return eng._rewrite_buckets(specs, _digest, "bucket_digest", m, m.epoch)


def _check_comparable(m_src, m_dst) -> None:
    if m_src.num_buckets != m_dst.num_buckets:
        raise ValueError(
            f"repair needs identical bucket layouts: source has "
            f"{m_src.num_buckets}, destination {m_dst.num_buckets} "
            f"(rebucket one side first)")
    if m_src.bucket_hash != m_dst.bucket_hash:
        raise ValueError(
            f"repair needs the same bucket router: source "
            f"{m_src.bucket_hash!r} vs destination {m_dst.bucket_hash!r}")
    if m_src.high_seq != m_dst.high_seq:
        raise ValueError(
            f"repair compares states at the SAME watermark: source "
            f"high_seq={m_src.high_seq} vs destination "
            f"{m_dst.high_seq} (replicate the lagging side to head "
            f"first)")
    if not m_src.base_schema().equals(m_dst.base_schema()):
        raise ValueError("repair needs identical current base schemas")


def repair(src_eng, dst_eng, dry_run: bool = False) -> dict:
    """Verify the destination lake against the source bucket by bucket
    and (unless ``dry_run``) rewrite only the mismatched buckets from the
    source's merged state, committing a maintenance epoch on the
    destination (watermark pinned, deltas for repaired buckets cleared —
    the repaired base IS the full state). Idempotent: a second call finds
    zero mismatches. Returns ``{"checked", "mismatched", "repaired",
    "rows_written"}`` with ``mismatched`` as the sorted bucket list."""
    with dst_eng._job_lock():
        m_src = src_eng.store.latest()
        m_dst = dst_eng.store.latest()
        if m_src is None or m_dst is None:
            raise ValueError("repair needs two bootstrapped lakes")
        _check_comparable(m_src, m_dst)

        src_d = {r["bucket"]: r["count"]
                 for r in bucket_digests(src_eng, m_src)}
        dst_d = {r["bucket"]: r["count"]
                 for r in bucket_digests(dst_eng, m_dst)}
        mismatched = sorted(b for b in src_d if src_d[b] != dst_d.get(b))
        report = {"checked": len(src_d), "mismatched": mismatched,
                  "repaired": 0, "rows_written": 0}
        if dry_run or not mismatched:
            return report

        src_map = src_eng.bucket_file_map(m_src)
        specs = [{"bucket": b, "files": src_map[b]} for b in mismatched]
        # the source's merged state, staged into the destination lake
        lineage = dst_eng._rewrite_buckets(
            specs, lambda t, spec: (t, 0), "repair_bucket", m_src,
            m_dst.epoch + 1)
        dst_eng._commit_maintenance_epoch(m_dst, lineage, {"repairs": 1})
        report["repaired"] = len(lineage)
        report["rows_written"] = int(sum(r["rows"] for r in lineage))
        return report
