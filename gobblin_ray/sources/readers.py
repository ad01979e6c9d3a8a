"""Readers: pruned, watermark-filtered, schema-unified Parquet/CSV/JSON reads.

Gobblin analogs:
- QueryBasedSource incremental pull (gobblin-core/.../extract/
  QueryBasedSource.java:171-258): previous high watermark -> predicate on the
  watermark column, pushed into the read.
- FileBasedSource snapshot-diff listing (gobblin-core/.../filebased/
  FileBasedSource.java): list files, skip ones already ingested.
- KafkaExtractor low-watermark skip (KafkaExtractor.java:179): rows at or
  below the low watermark are filtered out at the scan.

Scale notes: always pass ``columns=`` (column pruning) and ``filter=``
(row-group pushdown); both reach pyarrow's scanner so non-matching
row groups never leave storage.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc


def read_table(sf_dir: str, name: str, columns: list[str] | None = None, **kw):
    """Read one named testdata table with column pruning."""
    import ray.data as rd

    return rd.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns, **kw
    )


def read_incremental(
    paths,
    watermark_col: str,
    low,
    high=None,
    columns: list[str] | None = None,
    schema: pa.Schema | None = None,
):
    """Incremental read of the half-open interval ``(low, high]`` on the
    watermark column (QueryBasedSource/KafkaExtractor semantics: rows at or
    below the previous high watermark are excluded)."""
    import ray.data as rd

    flt = pc.field(watermark_col) > pa.scalar(low)
    if high is not None:
        flt = flt & (pc.field(watermark_col) <= pa.scalar(high))
    kw = {}
    if schema is not None:
        kw["schema"] = schema
    return rd.read_parquet(paths, columns=columns, filter=flt, **kw)


def list_new_files(
    dir_path: str, already_ingested: set[str], suffix: str = ".parquet"
) -> list[str]:
    """Snapshot-diff file listing (FileBasedSource): files not yet ingested,
    lexicographically ordered (the date-partitioned lexicographic watermark,
    PartitionedFileSourceBase analog)."""
    out = []
    for name in sorted(os.listdir(dir_path)):
        if name.endswith(suffix) and name not in already_ingested:
            out.append(os.path.join(dir_path, name))
    return out


def read_date_partitioned(
    root_dir: str,
    low: str | None = None,
    high: str | None = None,
    partition_key: str = "date",
    columns: list[str] | None = None,
    **kw,
):
    """Date-partition-aware incremental read (PartitionedFileSourceBase /
    DatePartitionedAvroFileSource analog, gobblin-core/.../source/): the
    lake is laid out as ``<root>/<key>=<value>/*.parquet`` and the
    lexicographic partition value IS the watermark — partitions at or below
    ``low`` (the previous high watermark) are pruned from the LISTING, so
    their bytes are never touched. ``high`` bounds the upper side
    (inclusive). Returns (dataset, partitions_read)."""
    import ray.data as rd

    prefix = f"{partition_key}="
    selected = []
    for name in sorted(os.listdir(root_dir)):
        full = os.path.join(root_dir, name)
        if not (name.startswith(prefix) and os.path.isdir(full)):
            continue
        value = name[len(prefix):]
        if low is not None and value <= low:
            continue
        if high is not None and value > high:
            continue
        selected.append(full)
    if not selected:
        return None, []
    files = [
        os.path.join(d, f)
        for d in selected
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]
    return rd.read_parquet(files, columns=columns, **kw), [
        os.path.basename(p)[len(prefix):] for p in selected
    ]


def read_csv_source(paths, **kw):
    """CSV source. Default dialect matches the engine's export_csv sink:
    an UNQUOTED empty field is NULL, a quoted ``""`` is the empty string
    (the pyarrow default reads both as ``''``, silently merging NULL and
    empty keys after a text round trip). DuckDB and pandas read unquoted
    empty as NULL too, so external CSVs keep their usual semantics; pass
    your own ``convert_options`` to override."""
    import pyarrow.csv as pacsv
    import ray.data as rd

    kw.setdefault("convert_options", pacsv.ConvertOptions(
        strings_can_be_null=True, quoted_strings_can_be_null=False))
    return rd.read_csv(paths, **kw)


def read_json_source(paths, **kw):
    import ray.data as rd

    return rd.read_json(paths, **kw)


def read_orc_source(paths, columns=None, files_per_task: int = 1):
    """ORC source (gobblin-modules/gobblin-orc analog). Ray Data has no
    built-in ORC reader, so each task decodes whole ORC files via
    pyarrow.orc — one (or ``files_per_task``) file(s) per read task, the
    same per-file task granularity the parquet path gets from row groups.
    Column pruning is pushed into the ORC reader (stripe-level projection),
    so only selected columns leave storage."""
    import os

    import ray.data as rd

    if isinstance(paths, str):
        if os.path.isdir(paths):
            files = sorted(
                os.path.join(paths, f) for f in os.listdir(paths)
                if f.endswith(".orc")
            )
        else:
            files = [paths]
    else:
        files = sorted(paths)

    def load(batch: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        import pyarrow.orc as orc

        tables = [
            orc.ORCFile(p).read(columns=columns)
            for p in batch.column("path").to_pylist()
        ]
        return pa.concat_tables(tables)

    load.__name__ = "read_orc"
    items = rd.from_items([{"path": p} for p in files])
    return items.map_batches(
        load, batch_format="pyarrow", batch_size=files_per_task
    )
