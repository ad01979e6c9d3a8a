"""From-scratch Avro object-container codec: binary encoding + container
framing, typed against Arrow schemas. Public knowledge only — the Apache
Avro 1.11 specification (binary encoding: zigzag-varint longs, length-
prefixed bytes/strings, union-index prefixes; object container files:
``Obj\\x01`` magic, metadata map with ``avro.schema``/``avro.codec``,
16-byte sync marker between blocks; ``deflate`` codec = raw RFC-1951
deflate). No avro library exists in this container, so the codec is
hand-rolled the same way the repo's Netpbm/WAV/WARC codecs are.

Reference analogs (semantics only, no code): Avro is the reference's
native record format — AvroHdfsDataWriter
(gobblin-core/src/main/java/org/apache/gobblin/writer/AvroHdfsDataWriter.java:1)
writes object-container files through DataFileWriter, and the
json→record converter family
(gobblin-core/.../converter/avro/JsonIntermediateToAvroConverter.java:1,
JsonElementConversionFactory.java scalar lattice) builds typed records
from JSON. Here the writer encodes one Arrow block per container block
(vectorized column → Python value extraction, one tight per-row encode
loop — Avro is row-oriented by construction, the same per-row boundary
as the WARC/image codecs), and the reader decodes back to Arrow.

Type lattice (Arrow <-> Avro):
  string        <-> "string"         int8/16/32 <-> "int"
  binary        <-> "bytes"          int64      <-> "long"
  bool          <-> "boolean"        float32    <-> "float"
  timestamp[us] <-> long + logicalType timestamp-micros
  timestamp[ms] <-> long + logicalType timestamp-millis
  date32        <-> int  + logicalType date
  float64       <-> "double"
  struct        <-> record (nested, named by field path)
  list<T>       <-> array<T>
The writer makes every field the nullable union ["null", T] (the lake's
additive-evolution rule makes all columns nullable); null-typed columns
(pa.null()) encode as a bare "null".

The reader accepts any spec-valid schema inside that lattice: required
(non-union) fields, which decode as non-null values, and unions of "null"
and one type in either branch order, dispatched by the index each value
carries. It rejects with TypeError, before decoding a byte, what the
lattice cannot hold: a union of two or more value types, map, enum and
fixed, and named-type references. A block that does not hold exactly its
record count, a union index out of range, or a cut-short varint or string
raises ValueError; no input decodes into shifted rows.
"""

from __future__ import annotations

import datetime as dt
import functools
import io
import itertools
import json
import struct
import zlib
from typing import Callable, NamedTuple

import pyarrow as pa

MAGIC = b"Obj\x01"
_EPOCH = dt.datetime(1970, 1, 1)
_US = dt.timedelta(microseconds=1)

# ------------------------------------------------------------ primitives


def _write_long(buf: bytearray, n: int) -> None:
    n = int(n)
    u = ((n << 1) ^ (n >> 63)) & 0xFFFFFFFFFFFFFFFF  # zigzag
    while u > 0x7F:
        buf.append((u & 0x7F) | 0x80)
        u >>= 7
    buf.append(u)


def _read_long(mv: memoryview, pos: int) -> tuple[int, int]:
    u = mv[pos]
    if u < 0x80:  # one byte: union indexes, small lengths and values
        return (u >> 1) ^ -(u & 1), pos + 1  # un-zigzag
    u &= 0x7F
    shift = 7
    while True:
        pos += 1
        b = mv[pos]
        u |= (b & 0x7F) << shift
        if not b & 0x80:
            return (u >> 1) ^ -(u & 1), pos + 1
        shift += 7


def _write_bytes(buf: bytearray, b: bytes) -> None:
    _write_long(buf, len(b))
    buf += b


def _read_bytes(mv: memoryview, pos: int) -> tuple[bytes, int]:
    n, pos = _read_long(mv, pos)
    if n < 0:
        raise ValueError(f"negative Avro length {n} at byte {pos}")
    return bytes(mv[pos:pos + n]), pos + n


# ------------------------------------------------------- schema mapping

_PRIMITIVE_TO_AVRO = {
    pa.string(): "string",
    pa.large_string(): "string",
    pa.binary(): "bytes",
    pa.large_binary(): "bytes",
    pa.bool_(): "boolean",
    pa.int8(): "int",
    pa.int16(): "int",
    pa.int32(): "int",
    pa.int64(): "long",
    pa.float32(): "float",
    pa.float64(): "double",
}


def _avro_type(t: pa.DataType, path: str) -> object:
    if t in _PRIMITIVE_TO_AVRO:
        return _PRIMITIVE_TO_AVRO[t]
    if pa.types.is_null(t):
        return "null"
    if pa.types.is_timestamp(t) and t.unit == "us":
        return {"type": "long", "logicalType": "timestamp-micros"}
    if pa.types.is_timestamp(t) and t.unit == "ms":
        return {"type": "long", "logicalType": "timestamp-millis"}
    if pa.types.is_date32(t):
        return {"type": "int", "logicalType": "date"}
    if pa.types.is_struct(t):
        return {
            "type": "record",
            "name": f"r_{path}",
            "fields": [
                {
                    "name": f.name,
                    "type": _nullable(
                        _avro_type(f.type, f"{path}_{f.name}")
                    ),
                    "default": None,
                }
                for f in t
            ],
        }
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return {
            "type": "array",
            "items": _nullable(_avro_type(t.value_type, f"{path}_item")),
        }
    raise TypeError(f"no Avro mapping for Arrow type {t} at {path!r}")


def _nullable(avro_t: object) -> object:
    """Wrap in the standard ["null", T] union — except bare "null",
    which stays bare: ["null", "null"] is an invalid Avro union (a
    union may not contain two identical branches)."""
    return avro_t if avro_t == "null" else ["null", avro_t]


def arrow_to_avro_schema(schema: pa.Schema, name: str = "Record") -> dict:
    """Arrow schema -> Avro record schema (every field a nullable union,
    matching the lake's all-columns-nullable evolution rule)."""
    fields = []
    for f in schema:
        fields.append({
            "name": f.name,
            "type": _nullable(_avro_type(f.type, f.name)),
            "default": None,
        })
    return {"type": "record", "name": name, "fields": fields}


def avro_to_arrow_schema(avro_schema: dict) -> pa.Schema:
    return pa.schema(_compile_record(json.dumps(avro_schema)).codec.arrow_type)


# ------------------------------------------------------- compiled codec


class _Codec(NamedTuple):
    """One Avro type compiled once: its Arrow type, ``encode(buf, value)``
    for a plain Python value (from Arrow ``to_pylist``),
    ``decode(mv, pos) -> (value, pos)`` and ``emit(sink, fresh)``, the
    source lines of the same decode for the generated block decoder (see
    ``_row_decoder``): they read one value at ``pos`` in ``buf``, advance
    ``pos`` and hand the value to ``sink``, a statement template with one
    ``{}``; ``fresh`` numbers the temporaries nested types need. A record
    also lists its ``(name, codec)`` fields, which the block loops walk.
    The ``decode`` closures are the reference the generated decoder is
    tested against."""

    arrow_type: pa.DataType
    encode: Callable
    decode: Callable
    emit: Callable
    fields: tuple = ()


def _varint(var: str) -> list[str]:
    """Source lines reading one zigzag varint at ``pos`` into ``var``,
    ``_read_long`` inlined (a call per value costs more than the decode)."""
    return [f"{var} = buf[pos]",
            "pos += 1",
            f"if {var} > 0x7F:",
            f"    {var} &= 0x7F",
            "    shift = 7",
            "    while True:",
            "        b = buf[pos]",
            "        pos += 1",
            f"        {var} |= (b & 0x7F) << shift",
            "        if b < 0x80:",
            "            break",
            "        shift += 7",
            f"{var} = ({var} >> 1) ^ -({var} & 1)"]


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    return ["    " * depth + line for line in lines]


def _required(arrow_type, enc, dec, emit, fields=()) -> _Codec:
    """A codec outside any union: None is an error, never a skipped value."""
    def encode(buf, v):
        if v is None:
            raise ValueError(f"None for a required Avro {arrow_type} value")
        enc(buf, v)
    return _Codec(arrow_type, encode, dec, emit, fields)


def _packed(arrow_type, fmt: str, unpack: str) -> _Codec:
    """A fixed-width little-endian float; ``unpack`` names the generated
    decoder's bound ``unpack_from`` for ``fmt``."""
    s = struct.Struct(fmt)
    return _required(
        arrow_type, lambda buf, v: buf.extend(s.pack(v)),
        lambda mv, pos: (s.unpack_from(mv, pos)[0], pos + s.size),
        lambda sink, fresh: [sink.format(f"{unpack}(buf, pos)[0]"),
                             f"pos += {s.size}"])


def _emit_long(sink, fresh) -> list[str]:
    return _varint("u") + [sink.format("u")]


def _emit_bytes(to_value: str):
    """The emitter of a length-prefixed value: ``to_value`` wraps the
    payload's byte slice."""
    def emit(sink, fresh):
        return _varint("u") + [
            "if u < 0:",
            "    raise ValueError(f'negative Avro length {u} at byte {pos}')",
            "end = pos + u",
            sink.format(to_value.format("buf[pos:end]")),
            "pos = end"]
    return emit


def _logical(arrow_type, to_int) -> _Codec:
    """A logical type on its base int/long. ``encode_block`` casts top-level
    timestamps to ints vectorized; other values arrive as datetime/date."""
    return _required(arrow_type, lambda buf, v: _write_long(
        buf, v if isinstance(v, int) else to_int(v)), _read_long, _emit_long)


def _read_string(mv: memoryview, pos: int) -> tuple[str, int]:
    b, pos = _read_bytes(mv, pos)
    return b.decode("utf-8"), pos


_NULL = _Codec(pa.null(), lambda buf, v: None, lambda mv, pos: (None, pos),
               lambda sink, fresh: [sink.format("None")])
_PRIMITIVES = {
    "null": _NULL,
    "boolean": _required(pa.bool_(), lambda buf, v: buf.append(1 if v else 0),
                         lambda mv, pos: (mv[pos] == 1, pos + 1),
                         lambda sink, fresh: [sink.format("buf[pos] == 1"),
                                              "pos += 1"]),
    "int": _required(pa.int32(), _write_long, _read_long, _emit_long),
    "long": _required(pa.int64(), _write_long, _read_long, _emit_long),
    "float": _packed(pa.float32(), "<f", "unpack_f"),
    "double": _packed(pa.float64(), "<d", "unpack_d"),
    "bytes": _required(pa.binary(), _write_bytes, _read_bytes,
                       _emit_bytes("{}")),
    "string": _required(
        pa.string(), lambda buf, v: _write_bytes(buf, v.encode("utf-8")),
        _read_string, _emit_bytes("utf8({})")),
}
# logicalType -> (the base type it annotates, codec); on any other base the
# annotation is ignored, as the spec says
_LOGICAL = {
    "timestamp-micros": ("long", _logical(
        pa.timestamp("us"), lambda v: (v - _EPOCH) // _US)),
    "timestamp-millis": ("long", _logical(
        pa.timestamp("ms"), lambda v: (v - _EPOCH) // (1000 * _US))),
    "date": ("int", _logical(
        pa.date32(), lambda v: v.toordinal() - _EPOCH.toordinal())),
}


def _union(branches: list[_Codec]) -> _Codec:
    """The one null-or-value rule, for any branch order: the value branch
    gives the Arrow type, None encodes as the null branch's index, and
    decoding dispatches on the index read."""
    values = [c for c in branches if c is not _NULL]
    if len(values) > 1:
        raise TypeError(f"Avro union of {len(values)} value types has no "
                        "Arrow column type (only null and one type)")
    value = values[0] if values else _NULL
    tags = {c is _NULL: bytes([2 * i]) for i, c in enumerate(branches)}
    null_tag, value_tag = tags.get(True), tags.get(False)
    decs = [c.decode for c in branches]

    def encode(buf, v, _enc=value.encode):
        if v is not None:
            buf += value_tag
            _enc(buf, v)
        elif null_tag is None:
            raise ValueError("None for an Avro union with no null branch")
        else:
            buf += null_tag

    def decode(mv, pos):
        ix, pos = _read_long(mv, pos)
        if not 0 <= ix < len(decs):
            raise ValueError(f"Avro union index {ix} out of range")
        return decs[ix](mv, pos)

    def emit(sink, fresh):
        # dispatch on the index's zigzag code (2 * index) as read: one
        # byte for any sane index; a longer varint is decoded and
        # re-encoded, so an index in range is never missed
        lines = ["u = buf[pos]", "pos += 1", "if u > 0x7F:",
                 "    u, pos = read_long(buf, pos - 1)",
                 "    u = 2 * u if u >= 0 else -2 * u - 1"]
        # the value branch is tested first: most values are not null
        order = sorted(range(len(branches)), key=lambda i: branches[i] is _NULL)
        for k, i in enumerate(order):
            lines += [f"{'elif' if k else 'if'} u == {2 * i}:",
                      *_indent(branches[i].emit(sink, fresh))]
        return lines + [
            "else:",
            "    raise ValueError("
            "f'Avro union index {(u >> 1) ^ -(u & 1)} out of range')"]
    return _Codec(value.arrow_type, encode, decode, emit)


def _record(fields: list[tuple[str, _Codec]]) -> _Codec:
    def encode(buf, v):
        for name, c in fields:
            c.encode(buf, v.get(name))

    def decode(mv, pos):
        out = {}
        for name, c in fields:
            out[name], pos = c.decode(mv, pos)
        return out, pos

    def emit(sink, fresh):
        k, lines, items = next(fresh), [], []
        for j, (name, c) in enumerate(fields):
            lines += c.emit(f"r{k}_{j} = {{}}", fresh)
            items.append(f"{name!r}: r{k}_{j}")
        return lines + [sink.format("{" + ", ".join(items) + "}")]
    arrow_type = pa.struct([pa.field(n, c.arrow_type) for n, c in fields])
    return _required(arrow_type, encode, decode, emit, tuple(fields))


def _array(item: _Codec) -> _Codec:
    def encode(buf, v):
        if len(v):
            _write_long(buf, len(v))
            for x in v:
                item.encode(buf, x)
        _write_long(buf, 0)

    def decode(mv, pos):
        out = []
        while True:
            n, pos = _read_long(mv, pos)
            if n == 0:
                return out, pos
            if n < 0:  # block with byte-size prefix
                _, pos = _read_long(mv, pos)
                n = -n
            for _ in range(n):
                x, pos = item.decode(mv, pos)
                out.append(x)

    def emit(sink, fresh):
        k = next(fresh)
        out, n = f"l{k}", f"n{k}"
        return [f"{out} = []", *_varint(n),
                f"while {n}:",
                f"    if {n} < 0:",  # block with byte-size prefix
                *_indent(_varint("u"), 2),
                f"        {n} = -{n}",
                f"    for _ in range({n}):",
                *_indent(item.emit(f"{out}.append({{}})", fresh), 2),
                *_indent(_varint(n)),
                sink.format(out)]
    return _required(pa.list_(item.arrow_type), encode, decode, emit)


def _compile(avro_t: object) -> _Codec:
    """The one walk over an Avro type: primitives, ``_LOGICAL``, records,
    arrays and unions of null and one type. What the Arrow lattice cannot
    hold (a union of two value types, map, enum, fixed, a named-type
    reference) raises TypeError before a byte is read."""
    if isinstance(avro_t, list):
        return _union([_compile(b) for b in avro_t])
    if isinstance(avro_t, dict):
        kind = avro_t.get("type")
        logical = _LOGICAL.get(avro_t.get("logicalType"))
        if logical and kind == logical[0]:
            return logical[1]
        if kind == "record":
            return _record([(f["name"], _compile(f["type"]))
                            for f in avro_t["fields"]])
        if kind == "array":
            return _array(_compile(avro_t["items"]))
        return _compile(kind)
    if avro_t in _PRIMITIVES:
        return _PRIMITIVES[avro_t]
    raise TypeError(f"no Arrow mapping for Avro type {avro_t!r}")


class _Record(NamedTuple):
    """A container's compiled record schema: its codec (fields, Arrow
    type, encoders) and ``decode_rows(buf, count) -> (end pos, columns)``,
    the generated block decoder."""

    codec: _Codec
    decode_rows: Callable


def _row_decoder(rec: _Codec) -> Callable:
    """Generate, ``exec`` and return ``decode_rows(buf, count)``: one
    straight-line function over the record's fields that decodes
    ``count`` records from the bytes ``buf`` into one list per top-level
    field (varints, zigzag and union dispatch inlined; values appended
    straight to the column lists) and returns ``(pos, columns)``, ``pos``
    being where the last record ended. Field names enter the source only
    as ``repr`` literals. A payload that ends early raises IndexError or
    struct.error, which ``decode_block`` turns into ValueError. A schema
    nesting deeper than Python compiles (about ten levels of arrays)
    decodes through the ``decode`` closures instead."""
    fresh = itertools.count()
    cols = range(len(rec.fields))
    body = [line for i, (_, c) in zip(cols, rec.fields)
            for line in c.emit(f"a{i}({{}})", fresh)]
    src = [
        "def decode_rows(buf, count, read_long=read_long, unpack_f=unpack_f,"
        " unpack_d=unpack_d, utf8=utf8):",
        *(f"    c{i} = []; a{i} = c{i}.append" for i in cols),
        "    pos = 0",
        "    for _ in range(count):",
        *_indent(body or ["pass"], 2),
        f"    return pos, [{''.join(f'c{i}, ' for i in cols)}]",
    ]
    scope = {"read_long": _read_long, "utf8": bytes.decode,
             "unpack_f": struct.Struct("<f").unpack_from,
             "unpack_d": struct.Struct("<d").unpack_from}
    try:
        exec(compile("\n".join(src), "<avro decode_rows>", "exec"), scope)
        return scope["decode_rows"]
    except SyntaxError:  # too many statically nested blocks
        pass
    decs = [c.decode for _, c in rec.fields]

    def decode_rows(buf, count):
        cols, pos = [[] for _ in decs], 0
        for _ in range(count):
            for dec, col in zip(decs, cols):
                v, pos = dec(buf, pos)
                col.append(v)
        return pos, cols
    return decode_rows


@functools.lru_cache(maxsize=64)
def _compile_record(schema_json: str) -> _Record:
    """A container's record schema, compiled once per schema text: one
    walk builds the codecs and the generated block decoder."""
    rec = _compile(json.loads(schema_json))
    if not pa.types.is_struct(rec.arrow_type):
        raise TypeError("an Avro container schema must be a record")
    return _Record(rec, _row_decoder(rec))


# ---------------------------------------------------------- block codec


def encode_block(table: pa.Table, avro_schema: dict) -> bytes:
    """Encode one Arrow table as the concatenated Avro binary records of a
    container block (uncompressed payload; count = table.num_rows)."""
    rec = _compile_record(json.dumps(avro_schema)).codec
    cols = []
    for name, c in rec.fields:
        col, t = table.column(name), c.arrow_type
        if pa.types.is_timestamp(t):  # tz-aware columns too
            col = col.cast(t).cast(pa.int64())
        cols.append(col.to_pylist())
    buf = bytearray()
    encs = [c.encode for _, c in rec.fields]
    for row in zip(*cols):
        for enc, v in zip(encs, row):
            enc(buf, v)
    return bytes(buf)


def decode_block(payload: bytes, count: int, avro_schema: dict) -> pa.Table:
    """Decode one container block's records into an Arrow table typed by
    the inverse lattice (timestamps come back as timestamp[us/ms] etc.)
    with the record's generated decoder. A payload that does not hold
    exactly ``count`` records raises ValueError."""
    rec = _compile_record(json.dumps(avro_schema))
    buf = bytes(payload)
    try:
        pos, cols = rec.decode_rows(buf, count)
    except (IndexError, struct.error):
        pos = len(buf) + 1
    if pos != len(buf):
        raise ValueError(f"Avro block does not hold exactly {count} records "
                         f"(stopped at byte {pos} of {len(buf)})")
    schema = pa.schema(rec.codec.arrow_type)
    return pa.Table.from_arrays(
        [pa.array(col, f.type) for col, f in zip(cols, schema)], schema=schema
    )


# -------------------------------------------------------- container file


def write_container(
    table: pa.Table,
    path_or_file,
    codec: str = "deflate",
    sync: bytes | None = None,
    rows_per_block: int = 8192,
) -> None:
    """Write one Avro object-container file. ``sync`` defaults to a
    DETERMINISTIC marker derived from the content (16 bytes of the block
    payload's blake2b) so a retried task writes byte-identical files —
    the FsDataWriter idempotence posture."""
    import hashlib

    avro_schema = arrow_to_avro_schema(table.schema)
    blocks = []
    for off in range(0, table.num_rows, rows_per_block):
        chunk = table.slice(off, rows_per_block)
        blocks.append((chunk.num_rows, encode_block(chunk, avro_schema)))
    if sync is None:
        h = hashlib.blake2b(digest_size=16)
        h.update(json.dumps(avro_schema, sort_keys=True).encode())
        for _, payload in blocks:
            h.update(payload)
        sync = h.digest()
    buf = bytearray(MAGIC)
    meta = {
        "avro.schema": json.dumps(avro_schema).encode("utf-8"),
        "avro.codec": codec.encode("utf-8"),
    }
    _write_long(buf, len(meta))
    for k, v in sorted(meta.items()):
        _write_bytes(buf, k.encode("utf-8"))
        _write_bytes(buf, v)
    _write_long(buf, 0)
    buf += sync
    for count, payload in blocks:
        if codec == "deflate":
            payload = zlib.compress(payload)[2:-4]  # raw RFC-1951 stream
        elif codec != "null":
            raise ValueError(f"unsupported avro codec {codec!r}")
        _write_long(buf, count)
        _write_long(buf, len(payload))
        buf += payload
        buf += sync
    if hasattr(path_or_file, "write"):
        path_or_file.write(bytes(buf))
    else:
        with open(path_or_file, "wb") as f:
            f.write(bytes(buf))


def _parse_header(mv: memoryview) -> tuple[dict, int]:
    """Parse the container header (magic + metadata map) -> (meta, pos);
    a header longer than ``mv`` raises IndexError."""
    if bytes(mv[:4]) != MAGIC:
        raise ValueError("not an Avro object container (bad magic)")
    pos = 4
    meta = {}
    while True:
        n, pos = _read_long(mv, pos)
        if n == 0:
            break
        if n < 0:  # size-prefixed map block
            _, pos = _read_long(mv, pos)
            n = -n
        for _ in range(n):
            k, pos = _read_bytes(mv, pos)
            v, pos = _read_bytes(mv, pos)
            meta[k.decode()] = v
    return meta, pos


def _read_header(f) -> tuple[dict, bytes]:
    """Read the header of the container open as the binary file ``f`` (at
    its start) -> (metadata, sync marker), leaving ``f`` at the first
    block. ONE implementation shared by every reader (review finding: two
    copies of the header loop can silently desync). Reads 64 KB, more
    only for a bigger header."""
    head = b""
    while True:
        more = f.read(max(1 << 16, len(head)))
        head += more
        try:
            meta, pos = _parse_header(memoryview(head))
            if len(head) >= pos + 16:
                break
        except IndexError:
            pass
        if not more:
            raise ValueError("Avro container header cut short")
    f.seek(pos + 16)
    return meta, head[pos:pos + 16]


def _read_varint(f) -> int | None:
    """One zigzag varint read from the file ``f``; None at its end."""
    u = shift = 0
    while b := f.read(1):
        u |= (b[0] & 0x7F) << shift
        if b[0] < 0x80:
            return (u >> 1) ^ -(u & 1)
        shift += 7
    if shift:
        raise ValueError("Avro varint cut short at the end of the container")
    return None


def _blocks(f, sync: bytes, wanted):
    """Walk the blocks after the header: ``(index, record count,
    payload)`` each, in file order. A block outside ``wanted`` (a set of
    indexes; None wants every block) is seeked past, its payload None and
    unread. A wanted block whose payload is cut short or is not followed
    by the sync marker raises ValueError."""
    k = 0
    while (count := _read_varint(f)) is not None:
        size = _read_varint(f)
        if size is None or size < 0 or count < 0:
            raise ValueError(f"Avro block {k} has a bad header "
                             f"(count {count}, size {size})")
        if wanted is None or k in wanted:
            payload = f.read(size)
            if len(payload) != size or f.read(16) != sync:
                raise ValueError("sync marker mismatch (corrupt block)")
            yield k, count, payload
        else:
            f.seek(size + 16, io.SEEK_CUR)
            yield k, count, None
        k += 1


def _open(path_or_bytes):
    if isinstance(path_or_bytes, (bytes, bytearray, memoryview)):
        return io.BytesIO(path_or_bytes)
    return open(path_or_bytes, "rb")


def read_container(path_or_bytes, blocks=None) -> pa.Table:
    """Read one Avro object-container file (a path or its bytes) back to
    Arrow: every block, or only the blocks whose indexes ``blocks`` lists,
    in file order — the walk seeks past the other payloads and stops after
    the last wanted block. An index the file does not have raises
    ValueError."""
    wanted = None if blocks is None else set(blocks)
    tables = []
    with _open(path_or_bytes) as f:
        meta, sync = _read_header(f)
        avro_schema = json.loads(meta["avro.schema"].decode())
        codec = meta.get("avro.codec", b"null").decode()
        for k, count, payload in _blocks(f, sync, wanted):
            if payload is None:
                continue
            if codec == "deflate":
                payload = zlib.decompress(payload, wbits=-15)
            elif codec != "null":
                raise ValueError(f"unsupported avro codec {codec!r}")
            tables.append(decode_block(payload, count, avro_schema))
            if wanted is not None:
                wanted.discard(k)
                if not wanted:
                    break
    if wanted:
        raise ValueError(f"no Avro block {min(wanted)} in the container")
    if not tables:
        return avro_to_arrow_schema(avro_schema).empty_table()
    return pa.concat_tables(tables)


def block_count(path_or_bytes) -> int:
    """How many blocks a container (a path or its bytes) holds, from the
    block headers alone: every payload is seeked past, none is read or
    inflated — what a planner needs to split a file at block
    boundaries."""
    with _open(path_or_bytes) as f:
        _, sync = _read_header(f)
        return sum(1 for _ in _blocks(f, sync, ()))


def container_schema(path: str) -> pa.Schema:
    """Read ONLY the container header (magic + metadata map) and return
    the Arrow schema — the cheap schema probe bootstrap needs before
    launching the distributed read (parquet's ``pq.read_schema``
    analog; Avro's schema lives in the file header, so this reads a few
    KB regardless of file size)."""
    with open(path, "rb") as f:
        meta, _ = _read_header(f)
    return avro_to_arrow_schema(json.loads(meta["avro.schema"].decode()))


def read_avro_source(paths, **kw):
    """Distributed Avro container source: list files, read bytes in
    parallel tasks (``read_binary_files`` — one task per file, the WARC
    source's shape), decode each container to Arrow in the task. Column
    pruning happens post-decode (Avro is row-major; there is no row-group
    projection to push down — documented format trade vs Parquet). Files
    of different vintages in one batch are unified additively and each
    conformed before the concat."""
    import ray.data as rd

    from ..schema import conform, unify_additive

    # suffix filter is the invariant export_avro's tmp naming relies on
    # (a crashed attempt's non-.avro tmp must never poison reads)
    ds = rd.read_binary_files(
        paths, include_paths=False, file_extensions=["avro"], **kw
    )

    def decode(t: pa.Table) -> pa.Table:
        parts = [read_container(b.as_py()) for b in t.column("bytes")]
        if not parts:
            return pa.table({})
        schema = unify_additive(*(p.schema for p in parts))
        return pa.concat_tables([conform(p, schema) for p in parts])

    decode.__name__ = "avro_decode"
    return ds.map_batches(decode, batch_format="pyarrow", batch_size=None)
