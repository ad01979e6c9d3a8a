"""Converter library: Gobblin's 1:1 / 1:0 / 1:N record converters re-expressed
as vectorized Arrow batch transforms for ``ds.map_batches``.

Reference analogs (gobblin-core unless noted):
- AvroFieldsPickConverter (.../converter/filter/AvroFieldsPickConverter.java)  -> project
- AvroProjectionConverter (gobblin-core-base, remove blacklisted fields)       -> drop_fields
- AvroFilterConverter (.../converter/filter/AvroFilterConverter.java:92)       -> filter_equals
- StringFilterConverter (.../converter/string/StringFilterConverter.java)     -> regex_filter
- JsonStringToJsonIntermediateConverter (.../converter/json/)                  -> parse_json_regex / ParseJson
- StringSplitterConverter (1:N, .../converter/string/)                        -> split_to_rows
- JsonElementConversionFactory scalar casts (.../converter/avro/)              -> cast_column & friends
- SamplingConverter (gobblin-core-base/.../SamplingConverter.java:36-42)       -> sample_mod / sample_hash
- IdentityConverter                                                            -> identity
- FlattenNestedKeyConverter                                                    -> flatten_struct

Each builder returns a ``pa.Table -> pa.Table`` callable with a stable
``__name__`` (Ray uses it for operator labels). Chain with ``chain(...)`` —
the MultiConverter analog (gobblin-runtime/.../MultiConverter.java).
"""

from __future__ import annotations

import re
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BatchFn = Callable[[pa.Table], pa.Table]


def _named(name: str, fn: BatchFn) -> BatchFn:
    fn.__name__ = name
    return fn


def set_or_append(t: pa.Table, name: str, arr) -> pa.Table:
    """Replace column ``name`` in place if present, else append it — the
    shared tail of every in-place-or-new-column converter (compress /
    decompress / encrypt / decrypt once carried four inline copies)."""
    if name in t.column_names:
        return t.set_column(t.schema.get_field_index(name), name, arr)
    return t.append_column(name, arr)


def identity() -> BatchFn:
    return _named("identity", lambda t: t)


def chain(*fns: BatchFn) -> BatchFn:
    """Compose converters left-to-right into one batch transform (one Ray
    operator, no extra block materialization between steps)."""

    def run(t: pa.Table) -> pa.Table:
        for f in fns:
            t = f(t)
        return t

    return _named("chain(" + ",".join(f.__name__ for f in fns) + ")", run)


def project(columns: list[str]) -> BatchFn:
    return _named(f"project[{','.join(columns)}]", lambda t: t.select(columns))


def drop_fields(columns: list[str]) -> BatchFn:
    def run(t: pa.Table) -> pa.Table:
        return t.drop_columns([c for c in columns if c in t.column_names])

    return _named(f"drop[{','.join(columns)}]", run)


def rename(mapping: dict[str, str]) -> BatchFn:
    def run(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.column_names])

    return _named("rename", run)


def filter_expr(expr_fn: Callable[[pa.Table], pa.ChunkedArray]) -> BatchFn:
    """1:0 converter from a vectorized boolean expression over the batch."""

    def run(t: pa.Table) -> pa.Table:
        return t.filter(pc.fill_null(expr_fn(t), False))

    return _named("filter", run)


def filter_equals(field: str, value) -> BatchFn:
    f = filter_expr(lambda t: pc.equal(t.column(field), pa.scalar(value)))
    return _named(f"filter[{field}=={value!r}]", f)


def regex_filter(field: str, pattern: str, keep_matching: bool = True) -> BatchFn:
    def run(t: pa.Table) -> pa.Table:
        m = pc.match_substring_regex(t.column(field), pattern)
        if not keep_matching:
            m = pc.invert(m)
        return t.filter(pc.fill_null(m, False))

    return _named(f"regex_filter[{field}~{pattern}]", run)


def add_column(name: str, expr_fn: Callable[[pa.Table], pa.Array]) -> BatchFn:
    def run(t: pa.Table) -> pa.Table:
        col = expr_fn(t)
        if name in t.column_names:
            return t.set_column(t.schema.get_field_index(name), name, col)
        return t.append_column(name, col)

    return _named(f"add[{name}]", run)


def cast_column(field: str, typ: pa.DataType) -> BatchFn:
    return add_column(field, lambda t: t.column(field).cast(typ))


def lower(field: str, out: str | None = None) -> BatchFn:
    return add_column(out or field, lambda t: pc.utf8_lower(t.column(field)))


def upper(field: str, out: str | None = None) -> BatchFn:
    return add_column(out or field, lambda t: pc.utf8_upper(t.column(field)))


def concat_fields(out: str, fields: list[str], sep: str = " ") -> BatchFn:
    def expr(t: pa.Table) -> pa.Array:
        return pc.binary_join_element_wise(
            *[pc.cast(t.column(f), pa.string()) for f in fields], pa.scalar(sep)
        )

    return add_column(out, expr)


def parse_json_regex(field: str, key: str, out: str, typ: pa.DataType = None) -> BatchFn:
    """Fast-path JSON scalar extraction for flat objects via a vectorized
    regex (pc.extract_regex) — the hot-path variant of ParseJson."""
    pat = rf'"{re.escape(key)}":\s*"?(?P<v>[^",}}]*)"?'

    def expr(t: pa.Table) -> pa.Array:
        ex = pc.extract_regex(t.column(field), pat)
        v = pc.struct_field(ex, "v")
        return v.cast(typ) if typ is not None else v

    return add_column(out, expr)


class ParseJson:
    """General JSON-string parser (actor-pool stage for the non-flat case):
    ``map_batches(ParseJson(field, keys), concurrency=N)``. json.loads per
    row — use ``parse_json_regex`` when the payload is flat scalars."""

    def __init__(self, field: str, keys: dict[str, pa.DataType]):
        import json

        self.field = field
        self.keys = keys
        self.loads = json.loads

    def __call__(self, t: pa.Table) -> pa.Table:
        rows = t.column(self.field).to_pylist()
        parsed = []
        for r in rows:
            try:
                p = self.loads(r) if r else {}
            except ValueError:
                p = {}
            # valid-but-non-object JSON ('[1,2]', '42', 'true', 'null')
            # has no keys to extract — null-fill instead of AttributeError
            parsed.append(p if isinstance(p, dict) else {})
        for key, typ in self.keys.items():
            t = t.append_column(key, pa.array([p.get(key) for p in parsed], typ))
        return t


def split_to_rows(field: str, pattern: str, out: str | None = None) -> BatchFn:
    """1:N converter: split ``field`` and emit one output row per token,
    repeating the other columns (vectorized explode via list flatten +
    parent-index take)."""
    out = out or field

    def run(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(t.column(field), pattern=pattern)
        lists = lists.combine_chunks() if isinstance(lists, pa.ChunkedArray) else lists
        flat = pc.list_flatten(lists)
        parents = pc.list_parent_indices(lists)
        base = t.take(parents)
        tokens = flat
        if out in base.column_names:
            return base.set_column(base.schema.get_field_index(out), out, tokens)
        return base.append_column(out, tokens)

    return _named(f"split[{field}]", run)


# Minimal grok pattern library (the usual suspects from public grok dists).
GROK_PATTERNS = {
    "INT": r"[+-]?\d+",
    "NUMBER": r"[+-]?\d+(?:\.\d+)?",
    "WORD": r"\w+",
    "NOTSPACE": r"\S+",
    "GREEDYDATA": r".*",
    "IP": r"(?:\d{1,3}\.){3}\d{1,3}",
    "TIMESTAMP_ISO8601": r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:\.\d+)?",
    "LOGLEVEL": r"(?:TRACE|DEBUG|INFO|WARN|ERROR|FATAL)",
}

_GROK_REF = re.compile(r"%\{(\w+):(\w+)\}")


def grok_expand(pattern: str) -> tuple[str, list[str]]:
    """Expand ``%{SYNTAX:name}`` references into a named-group regex.
    Returns (regex, captured field names)."""
    fields: list[str] = []

    def sub(m: re.Match) -> str:
        syntax, name = m.group(1), m.group(2)
        fields.append(name)
        return f"(?P<{name}>{GROK_PATTERNS[syntax]})"

    return _GROK_REF.sub(sub, pattern), fields


def grok_parse(
    field: str, pattern: str, types: dict[str, pa.DataType] | None = None
) -> BatchFn:
    """Grok log-line parser (GrokToJsonConverter analog,
    gobblin-modules/gobblin-grok/.../converter/GrokToJsonConverter.java):
    one vectorized ``pc.extract_regex`` pass pulls every named capture into
    its own column; non-matching rows get nulls. ``types`` optionally casts
    captures (default string)."""
    regex, names = grok_expand(pattern)
    types = types or {}

    def run(t: pa.Table) -> pa.Table:
        ex = pc.extract_regex(t.column(field), regex)
        for name in names:
            col = pc.struct_field(ex, name)
            typ = types.get(name)
            if typ is not None:
                col = col.cast(typ)
            t = t.append_column(name, col)
        return t

    return _named(f"grok[{field}]", run)


def flatten_struct(field: str, prefix: str = "") -> BatchFn:
    """Lift a struct column's children to top-level columns
    (FlattenNestedKeyConverter analog)."""

    def run(t: pa.Table) -> pa.Table:
        col = t.column(field).combine_chunks()
        for child_field in col.type:
            t = t.append_column(
                f"{prefix}{child_field.name}", pc.struct_field(col, child_field.name)
            )
        return t.drop_columns([field])

    return _named(f"flatten[{field}]", run)


def sample_mod(field: str, modulus: int, keep_below: int) -> BatchFn:
    """Deterministic 'sample': keep rows where field % modulus < keep_below.
    Oracle-parity-friendly (expressible in SQL); for statistical sampling
    use sample_hash or ds.random_sample."""
    def mod_expr(t: pa.Table):
        v = t.column(field).cast(pa.int64())
        # x - (x // m) * m  (pyarrow has no modulo kernel; valid for x >= 0)
        return pc.less(
            pc.subtract(v, pc.multiply(pc.divide(v, pa.scalar(modulus)), pa.scalar(modulus))),
            pa.scalar(keep_below),
        )

    return _named(f"sample_mod[{field}%{modulus}<{keep_below}]", filter_expr(mod_expr))


def sample_hash(field: str, ratio: float) -> BatchFn:
    """Bernoulli-style deterministic sample on a stable hash of ``field``
    (SamplingConverter analog, but reproducible across runs/processes)."""
    import pandas as pd

    threshold = int(ratio * (2**64))

    def run(t: pa.Table) -> pa.Table:
        arr = t.column(field).to_pandas().to_numpy(dtype=object, na_value=None)
        h = pd.util.hash_array(arr, categorize=False)
        return t.filter(pa.array(h < threshold))

    return _named(f"sample_hash[{field}@{ratio}]", run)


_CODEC_CACHE: dict = {}


def _codec(name: str):
    """Per-process pyarrow Codec cache: Codec objects hold a C++ handle
    and are NOT picklable, so converter closures must construct them
    lazily inside the worker, never capture them."""
    got = _CODEC_CACHE.get(name)
    if got is None:
        import pyarrow as pa

        got = _CODEC_CACHE[name] = pa.Codec(name)
    return got


def compress_column(field: str, codec: str = "gzip", out: str | None = None) -> BatchFn:
    """Compress a string/binary column into binary (writer-side of the
    UnGzipConverter pair, gobblin-core/.../converter/filter/UnGzipConverter
    .java — the reference decompresses gzip payloads in the converter
    chain; this is its inverse for round-tripping). Per-message codec =>
    per-row loop, but the pyarrow codec is C and the stage parallelizes
    across batches."""
    target = out or field

    def _one(v) -> bytes:
        codec_obj = _codec(codec)
        raw = v if isinstance(v, bytes) else str(v).encode("utf-8")
        # 8-byte big-endian decompressed-size frame: pyarrow codecs
        # (zstd/lz4/snappy, and its gzip wrapper) need the exact size at
        # decompress time.
        return len(raw).to_bytes(8, "big") + codec_obj.compress(
            raw, asbytes=True
        )

    def run(t: pa.Table) -> pa.Table:
        vals = [
            None if v is None else _one(v)
            for v in t.column(field).to_pylist()
        ]
        arr = pa.array(vals, pa.binary())
        return set_or_append(t, target, arr)

    return _named(f"compress[{field}:{codec}]", run)


def decompress_column(
    field: str, codec: str = "gzip", out: str | None = None,
    as_string: bool = True,
) -> BatchFn:
    """UnGzipConverter analog: decompress a binary column (gzip/zstd/lz4/
    snappy via the pyarrow codec registry) back to text or bytes."""
    target = out or field

    def _one(v: bytes) -> bytes:
        codec_obj = _codec(codec)
        b = bytes(v)
        size = int.from_bytes(b[:8], "big")
        return codec_obj.decompress(b[8:], decompressed_size=size, asbytes=True)

    def run(t: pa.Table) -> pa.Table:
        vals = [
            None if v is None else _one(v)
            for v in t.column(field).to_pylist()
        ]
        if as_string:
            arr = pa.array(
                [None if v is None else v.decode("utf-8") for v in vals],
                pa.string(),
            )
        else:
            arr = pa.array(vals, pa.binary())
        return set_or_append(t, target, arr)

    return _named(f"decompress[{field}:{codec}]", run)


def unpivot(id_cols: list[str], value_cols: list[str],
            name_col: str = "name", value_col: str = "value"):
    """UNPIVOT / melt: widen-to-long reshape — one output row per (input
    row, value column), carrying the column name and its value (cast to
    float64 so heterogeneous numeric measures share one column, as SQL
    UNPIVOT requires a common type). Pure per-batch reshape: no shuffle,
    output bytes = len(value_cols) x the projected input."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def run(t: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {k: t.column(k) for k in id_cols}
            cols[name_col] = pa.array([c] * t.num_rows, pa.string())
            cols[value_col] = pc.cast(t.column(c), pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    run.__name__ = f"unpivot[{len(value_cols)}]"
    return run


def _tag_side(side: int, cols: list[str]):
    import pyarrow as pa

    def f(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        return t.append_column(
            "_side", pa.array([side] * t.num_rows, pa.int32())
        )

    f.__name__ = f"tag_{side}"
    return f


def intersect_distinct(a, b, cols: list[str]):
    """SQL INTERSECT: distinct rows of ``a[cols]`` also present in ``b``.
    One exchange: both sides union through a single groupby on the key
    columns; a group survives iff both side-markers appear. (DISTINCT
    semantics, like SQL set operators.)"""
    return _set_op(a, b, cols, keep="both")


def except_distinct(a, b, cols: list[str]):
    """SQL EXCEPT: distinct rows of ``a[cols]`` absent from ``b``."""
    return _set_op(a, b, cols, keep="left_only")


def _set_op(a, b, cols: list[str], keep: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from ray.data.aggregate import Max, Min

    tagged = a.map_batches(
        _tag_side(0, cols), batch_format="pyarrow", batch_size=None
    ).union(b.map_batches(
        _tag_side(1, cols), batch_format="pyarrow", batch_size=None
    ))
    # min/max of the side marker (a=0, b=1): 0,0 = a-only; 1,1 = b-only;
    # 0,1 = both — one groupby, no second pass
    g = tagged.groupby(cols).aggregate(
        Min("_side", alias_name="_lo"), Max("_side", alias_name="_hi")
    )

    def pick(t: pa.Table) -> pa.Table:
        lo, hi = t.column("_lo"), t.column("_hi")
        zero, one = pa.scalar(0), pa.scalar(1)
        if keep == "both":
            mask = pc.and_(pc.equal(lo, zero), pc.equal(hi, one))
        else:  # left_only
            mask = pc.and_(pc.equal(lo, zero), pc.equal(hi, zero))
        return t.filter(mask).select(cols)

    pick.__name__ = f"set_op_{keep}"
    return g.map_batches(pick, batch_format="pyarrow", batch_size=None)


def json_to_typed_records(ds, field: str, spec: dict[str, str],
                          keep_cols: list[str] | None = None):
    """JSON-string -> typed-record converter under a declared Avro-style
    scalar type spec — the JsonIntermediateToAvroConverter /
    JsonElementConversionFactory analog (gobblin-core/.../converter/avro/
    JsonIntermediateToAvroConverter.java:1; the ~700-LoC factory's SCALAR
    lattice, with the same coercion posture: a string-encoded number
    converts to the declared numeric type, booleans accept true/false in
    either JSON or string form). ``spec`` maps output column name ->
    one of int | long | float | double | boolean | string | bytes |
    timestamp-micros | timestamp-millis. Nested record/array/map specs
    are rejected loudly — the documented scalar-only boundary (the lake's
    nested-type path is the struct column support in schema.py, not this
    converter). Missing keys and JSON nulls become Arrow nulls; a null
    or unparseable input row yields all-null outputs.

    Scale shape: an actor-pool stage (json.loads is per row — JSON is a
    row-major format, the same codec boundary as the WARC/Avro readers);
    output columns build once per batch via pa.array with the declared
    type. ``keep_cols`` lists input columns carried through unchanged
    (the converter otherwise REPLACES the record, like the reference's)."""
    _ARROW = {
        "int": pa.int32(), "long": pa.int64(), "float": pa.float32(),
        "double": pa.float64(), "boolean": pa.bool_(),
        "string": pa.string(), "bytes": pa.binary(),
        "timestamp-micros": pa.timestamp("us"),
        "timestamp-millis": pa.timestamp("ms"),
    }
    for k, v in spec.items():
        if v not in _ARROW:
            raise TypeError(
                f"json_to_typed_records supports the scalar lattice only "
                f"({sorted(_ARROW)}); field {k!r} declared {v!r}"
            )

    def _coerce(v, kind):
        """Per-type coercion; an unconvertible value yields NULL, never a
        raised error — one dirty row must not kill the stage (the
        reference's converter diverts such rows; here the row-policy
        layer downstream can gate on the null)."""
        if v is None:
            return None
        try:
            if kind in ("int", "long"):
                try:  # exact first: an int64 string past 2**53 survives
                    return int(v)
                except ValueError:  # decimal strings ("2.5", "1e3")
                    return int(float(v))
            if kind in ("float", "double"):
                return float(v)
            if kind == "boolean":
                if isinstance(v, bool):
                    return v
                if isinstance(v, str):
                    if v.lower() in ("true", "1"):
                        return True
                    if v.lower() in ("false", "0"):
                        return False
                    return None
                return bool(v)
            if kind == "string":
                return v if isinstance(v, str) else (
                    __import__("json").dumps(v)
                )
            if kind == "bytes":
                return v.encode("utf-8") if isinstance(v, str) else bytes(v)
            return int(v)  # timestamps arrive as epoch ints
        except (ValueError, TypeError, OverflowError):
            return None

    class TypedRecords:
        def __init__(self):
            import json

            self.loads = json.loads

        def __call__(self, t: pa.Table) -> pa.Table:
            texts = t.column(field).to_pylist()
            objs = []
            for s in texts:
                try:
                    o = self.loads(s) if s else {}
                except (ValueError, TypeError):
                    o = {}
                objs.append(o if isinstance(o, dict) else {})
            cols = {}
            for c in keep_cols or []:
                cols[c] = t.column(c)
            for name, kind in spec.items():
                vals = [_coerce(o.get(name), kind) for o in objs]
                at = _ARROW[kind]
                if kind in ("timestamp-micros", "timestamp-millis"):
                    cols[name] = pa.array(
                        vals, pa.int64()
                    ).cast(at)
                else:
                    cols[name] = pa.array(vals, at)
            return pa.table(cols)

    return ds.map_batches(TypedRecords, batch_format="pyarrow",
                          batch_size=None, concurrency=(1, 8))
