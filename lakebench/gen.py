"""Seeded inputs for the lake-life benchmark: a web-page snapshot and a CDC
change log, plus the writers that publish them the way a log producer must.

Every table here is a pure function of ``(spec, seed, shard index)`` and this
module imports nothing from the engine under test, so a rewrite of the
engine's own readers or codecs cannot change what the benchmark feeds it.

Event mix per shard (exact counts, so conserved totals are known up front),
with the shares FIXTURES.md fixes for the CDC log: 25 % inserts (34 % of them
minting a new url, the split ``gobblin_ray/synth.py`` uses; the rest re-crawl
a known url), 65 % updates, 10 % deletes. The updates include the hot-url
updates a skewed workload aims at a few urls, 5 % late events (warc_ts older
than every snapshot row, so they must lose last-writer-wins), 1 % exact
``(url, warc_ts)`` duplicates of an earlier event in the shard (settled by
``event_seq``), and a planted handful of invalid events (an unknown ``op``, an
empty url) that row policies must divert. Every html is 200-2000 bytes, its
length drawn uniformly, and ``text`` is the html with its tags stripped.
Shards from ``spec.schema_cut`` on carry the additive v2 column
``fetch_status``.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

T0_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z: snapshot rows start here
T1_US = T0_US + 30 * 86_400 * 1_000_000  # log events start 30 days later
LANGS = ["en", "de", "fr", "es", "zh", "ja"]
FETCH_STATUS = np.array([200, 200, 200, 301, 404, 500], np.int32)
BAD_OPS = ["upsert", "merge", "UPDATE"]
# op shares and html sizes of the CDC log, from FIXTURES.md
INSERT_SHARE, DELETE_SHARE, LATE_SHARE, DUP_SHARE = 0.25, 0.10, 0.05, 0.01
MINT_OF_INSERTS = 0.34
HTML_HEAD, HTML_TAIL = "<html><body>", "</body></html>"
HTML_BYTES = (200, 2000)

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])
EVENTS_V1 = pa.schema([
    ("event_seq", pa.int64()),
    ("op", pa.string()),
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])
EVENTS_V2 = EVENTS_V1.append(pa.field("fetch_status", pa.int32()))

_WORDS = (
    "lake table crawl page fetch index rank token event epoch bucket merge "
    "delta base scan lookup change feed compact vacuum schema column row "
    "stream batch shard watermark commit manifest exchange partition salt "
    "skew writer reader replay snapshot archive record html text lang"
).split()


@dataclass(frozen=True)
class Spec:
    """One workload's input shape. Counts are per shard unless noted."""

    name: str
    fmt: str  # "parquet" or "avro"
    pages: int  # snapshot rows
    shards: int  # log shards per round
    shard_events: int
    schema_cut: int  # first shard index that carries fetch_status (v2)
    hot: tuple  # share of ALL events aimed at each hot url (updates)
    bad_op: int  # planted invalid events: unknown op
    empty_url: int  # planted invalid events: empty url
    batch_shards: int  # shards published together before each run()
    epoch_width: int  # engine epoch width (events)
    buckets: int
    row_group: int  # parquet row-group size

    @property
    def mint(self) -> int:  # inserts that mint a new url
        return round(INSERT_SHARE * MINT_OF_INSERTS * self.shard_events)

    @property
    def reinsert(self) -> int:  # inserts of an already known url
        return round(INSERT_SHARE * self.shard_events) - self.mint

    @property
    def deletes(self) -> int:
        return round(DELETE_SHARE * self.shard_events)

    @property
    def late(self) -> int:
        return round(LATE_SHARE * self.shard_events)

    @property
    def dups(self) -> int:
        return round(DUP_SHARE * self.shard_events)

    @property
    def events(self) -> int:
        return self.shards * self.shard_events

    @property
    def invalid_per_shard(self) -> int:
        return self.bad_op + self.empty_url


def page_url(i: int) -> str:
    return f"https://site{i % 97:02d}.example.org/page/{i}"


def mint_url(shard: int, k: int) -> str:
    return f"https://new{shard}.example.org/item/{k}"


def unseen_url(k: int) -> str:
    return f"https://unseen.example.net/never/{k}"


def known_url(spec: Spec, j: int) -> str:
    """The j-th url known before any shard >= j's minting shard: snapshot
    urls first, then the urls minted by shards in order."""
    if j < spec.pages:
        return page_url(j)
    j -= spec.pages
    return mint_url(j // spec.mint, j % spec.mint)


def _texts(rng: np.random.Generator, prefixes: list[str]) -> list[str]:
    """One text per prefix, sized so that its html is 200-2000 bytes
    (uniform): the prefix, then a seeded slice of filler words."""
    filler = " ".join(_WORDS[w] for w in rng.integers(0, len(_WORDS), 1000))
    wrap = len(HTML_HEAD) + len(HTML_TAIL)
    sizes = rng.integers(HTML_BYTES[0], HTML_BYTES[1] + 1, len(prefixes)) - wrap
    offsets = rng.integers(0, len(filler) - HTML_BYTES[1], len(prefixes))
    return [(p + " " + filler[o:o + n])[:n] for p, n, o in zip(prefixes, sizes, offsets)]


def _html(texts: list) -> list:
    return [None if t is None else (HTML_HEAD + t + HTML_TAIL).encode() for t in texts]


def make_pages(spec: Spec, seed: int) -> pa.Table:
    rng = np.random.default_rng([seed, 0])
    urls = [page_url(i) for i in range(spec.pages)]
    texts = _texts(rng, [f"{u} snapshot" for u in urls])
    langs = [LANGS[k] for k in rng.integers(0, len(LANGS), spec.pages)]
    ts = T0_US + np.arange(spec.pages, dtype=np.int64) * 1_000_000
    return pa.Table.from_arrays(
        [pa.array(urls), pa.array(ts, pa.timestamp("us")),
         pa.array(_html(texts), pa.binary()), pa.array(texts), pa.array(langs)],
        schema=PAGES_SCHEMA,
    )


def hot_urls(spec: Spec, seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 99])
    idx = rng.choice(spec.pages, size=len(spec.hot), replace=False)
    return [page_url(int(i)) for i in idx]


def make_shard(spec: Spec, seed: int, shard: int) -> pa.Table:
    """Log shard ``shard`` (0-based): events ``shard*n .. shard*n + n - 1``."""
    n = spec.shard_events
    rng = np.random.default_rng([seed, 1 + shard])
    seq0 = shard * n
    seq = seq0 + np.arange(n, dtype=np.int64)
    n_known = spec.pages + shard * spec.mint  # urls minted by earlier shards

    kinds = []
    for k, share in enumerate(spec.hot):
        kinds += [f"hot{k}"] * int(round(share * n))
    kinds += (["mint"] * spec.mint + ["reinsert"] * spec.reinsert
              + ["delete"] * spec.deletes + ["late"] * spec.late
              + ["dup"] * spec.dups + ["bad_op"] * spec.bad_op
              + ["empty_url"] * spec.empty_url)
    if len(kinds) > n:
        raise ValueError(f"{spec.name}: shard of {n} events cannot hold {len(kinds)} planted events")
    kinds += ["update"] * (n - len(kinds))
    kinds = np.array(kinds, dtype=object)[rng.permutation(n)]
    plain = np.array([k in ("update", "reinsert", "mint") or k.startswith("hot")
                      for k in kinds])
    # a dup copies an EARLIER plain event of the shard: put one first
    first = int(np.flatnonzero(plain)[0])
    kinds[[0, first]], plain[[0, first]] = kinds[[first, 0]], plain[[first, 0]]

    targets = rng.integers(0, n_known, n)
    ts = T1_US + seq * 1_000_000
    late_ts = T0_US - (1 + rng.integers(0, 86_400, n)) * 1_000_000
    hot = hot_urls(spec, seed)
    urls: list = [None] * n
    ops: list = [None] * n
    minted = 0
    for i, kind in enumerate(kinds):
        if kind.startswith("hot"):
            urls[i], ops[i] = hot[int(kind[3:])], "update"
        elif kind == "mint":
            urls[i], ops[i] = mint_url(shard, minted), "insert"
            minted += 1
        elif kind == "empty_url":
            urls[i], ops[i] = "", "update"
        else:
            urls[i] = known_url(spec, int(targets[i]))
            ops[i] = {"reinsert": "insert", "delete": "delete",
                      "bad_op": BAD_OPS[i % len(BAD_OPS)]}.get(kind, "update")
            if kind == "late":
                ts[i] = late_ts[i]
    # exact (url, warc_ts) duplicates of an earlier, valid, on-time event
    plain = np.flatnonzero(plain)
    for i in np.flatnonzero(kinds == "dup"):
        earlier = plain[plain < i]
        src = int(earlier[rng.integers(0, len(earlier))])
        urls[i], ts[i], ops[i] = urls[src], ts[src], "update"

    texts = _texts(rng, [f"{u} rev {s}" for u, s in zip(urls, seq)])
    is_del = [op == "delete" for op in ops]
    texts = [None if d else t for t, d in zip(texts, is_del)]
    langs = [None if d else LANGS[k]
             for k, d in zip(rng.integers(0, len(LANGS), n), is_del)]
    cols = [pa.array(seq), pa.array(ops, pa.string()), pa.array(urls, pa.string()),
            pa.array(ts, pa.timestamp("us")), pa.array(_html(texts), pa.binary()),
            pa.array(texts, pa.string()), pa.array(langs, pa.string())]
    schema = EVENTS_V1
    if shard >= spec.schema_cut:
        status = FETCH_STATUS[rng.integers(0, len(FETCH_STATUS), n)]
        cols.append(pa.array([None if d else int(s) for s, d in zip(status, is_del)],
                             pa.int32()))
        schema = EVENTS_V2
    return pa.Table.from_arrays(cols, schema=schema)


# ------------------------------------------------------------- shard files


def parquet_bytes(table: pa.Table, row_group: int) -> bytes:
    sink = pa.BufferOutputStream()
    pq.write_table(table, sink, row_group_size=row_group, compression="zstd")
    return sink.getvalue().to_pybytes()


_AVRO_TYPES = {
    pa.int64(): "long", pa.int32(): "int", pa.string(): "string",
    pa.binary(): "bytes", pa.timestamp("us"): {"type": "long", "logicalType": "timestamp-micros"},
}


def _zigzag_varint(buf: bytearray, v: int) -> None:
    u = ((v << 1) ^ (v >> 63)) & 0xFFFFFFFFFFFFFFFF
    while u > 0x7F:
        buf.append((u & 0x7F) | 0x80)
        u >>= 7
    buf.append(u)


def avro_bytes(table: pa.Table, sync_seed: bytes, rows_per_block: int = 1000) -> bytes:
    """Avro object container (spec 1.11): every field the union
    ``["null", T]``, deflate-coded blocks, a sync marker derived from
    ``sync_seed`` so the same shard always encodes to the same bytes."""
    fields = [{"name": f.name, "type": ["null", _AVRO_TYPES[f.type]], "default": None}
              for f in table.schema]
    schema = json.dumps({"type": "record", "name": "Event", "fields": fields})
    sync = hashlib.blake2b(sync_seed, digest_size=16).digest()
    out = bytearray(b"Obj\x01")
    _zigzag_varint(out, 2)
    for k, v in (("avro.codec", b"deflate"), ("avro.schema", schema.encode())):
        _zigzag_varint(out, len(k))
        out += k.encode()
        _zigzag_varint(out, len(v))
        out += v
    _zigzag_varint(out, 0)
    out += sync
    columns = []
    for f in table.schema:
        col = table.column(f.name)
        if pa.types.is_timestamp(f.type):
            col = col.cast(pa.int64())
        columns.append((f.type, col.to_pylist()))
    for lo in range(0, table.num_rows, rows_per_block):
        hi = min(lo + rows_per_block, table.num_rows)
        block = bytearray()
        for r in range(lo, hi):
            for typ, values in columns:
                v = values[r]
                if v is None:
                    block.append(0)  # union branch 0: null
                    continue
                block.append(2)  # union branch 1, zigzag-encoded
                if typ in (pa.string(), pa.binary()):
                    raw = v.encode() if isinstance(v, str) else v
                    _zigzag_varint(block, len(raw))
                    block += raw
                else:
                    _zigzag_varint(block, v)
        packed = zlib.compress(bytes(block))[2:-4]  # raw RFC-1951 stream
        _zigzag_varint(out, hi - lo)
        _zigzag_varint(out, len(packed))
        out += packed
        out += sync
    return bytes(out)


def shard_bytes(spec: Spec, seed: int, shard: int, table: pa.Table) -> bytes:
    if spec.fmt == "avro":
        return avro_bytes(table, f"{spec.name}/{seed}/{shard}".encode())
    return parquet_bytes(table, spec.row_group)


def shard_name(spec: Spec, shard: int) -> str:
    return f"part-{shard:05d}.{'avro' if spec.fmt == 'avro' else 'parquet'}"


class LogWriter:
    """Publishes shards into an events directory the way a log producer
    must: the shard file lands (tmp + rename) before ``_meta.json`` is
    atomically replaced to announce it."""

    def __init__(self, events_dir: str):
        self.dir = events_dir
        self.shards: list[dict] = []
        os.makedirs(events_dir, exist_ok=True)

    def publish(self, entries: list[tuple[str, bytes, pa.Table, int]]) -> None:
        """``entries``: (file name, encoded bytes, table, schema version)."""
        for name, data, table, version in entries:
            path = os.path.join(self.dir, name)
            with open(path + ".tmp", "wb") as f:
                f.write(data)
            os.replace(path + ".tmp", path)
            seqs = table.column("event_seq")
            self.shards.append({
                "file": name, "min_seq": int(seqs[0].as_py()),
                "max_seq": int(seqs[-1].as_py()), "rows": table.num_rows,
                "bytes": len(data), "schema_version": version,
            })
        meta = {"shards": self.shards, "max_seq": self.shards[-1]["max_seq"]}
        tmp = os.path.join(self.dir, "_meta.json.tmp")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(self.dir, "_meta.json"))


def write_pages(table: pa.Table, path: str) -> None:
    pq.write_table(table, path, compression="zstd")
