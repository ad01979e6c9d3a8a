"""gobblin_ray — a from-scratch Ray-Data-native CDC / incremental-ingest engine.

A reimagining of Apache Gobblin's work-unit ingestion model (reference:
/root/reference, Blazer-007/gobblin) as an idiomatic Ray Data engine:

- change-log tail -> Parquet-lake merge-on-read upsert (last-writer-wins on
  ``(warc_ts, event_seq)``), built from ``ray.data.Dataset`` pipelines
  (``read_parquet`` with predicate pushdown -> ``map_batches`` over zero-copy
  Arrow -> ``groupby(url_bucket).map_groups`` merge),
- schema evolution via additive Arrow schema unification,
- exactly-once commit via a two-phase staging->promote + checkpoint manifest
  (Gobblin analogs: FsDataWriter staging rename, CommitSequence,
  StateStoreBasedWatermarkStorage),
- skew handling via plan-time hot-bucket salting (LWW is associative, so
  salted partial merges then a final merge is correct),
- plus the generic operator library (converters, quality policies, fork,
  dedup, text analysis, similarity search) described in SURVEY.md §2.

Nothing here calls ``ray.init()``; sessions are owned by the caller
(tests' conftest fixture, bench.py, or the external driver).
"""

__version__ = "0.1.0"

