"""Golden bytes of the Avro writer: blake2b digests of ``write_container``
output pinned across codecs and block sizes, so a rewrite of the codec's
internals cannot change a single byte the lake, the change log or a
shard export writes."""

import datetime as dt
import hashlib
import io

import pyarrow as pa
import pytest

from gobblin_ray.sources.avro import (
    arrow_to_avro_schema,
    encode_block,
    write_container,
)
from tests.test_avro import _mixed_table


def _events_table() -> pa.Table:
    return pa.table({
        "url": pa.array(["http://a/1", "http://b/2", None, "http://c/3"]),
        "warc_ts": pa.array(
            [dt.datetime(2023, 3, 4, 5, 6, 7, 890123), None,
             dt.datetime(2001, 1, 1), dt.datetime(2024, 2, 29, 12)],
            pa.timestamp("us"),
        ),
        "html": pa.array(
            [b"<p>hi</p>", b"", None, b"<b>\xff\x00</b>"], pa.binary()
        ),
        "text": pa.array(["hi", "", None, "café"]),
        "language": pa.array(["en", None, "de", "fr"]),
        "status": pa.array([200, None, 404, -1], pa.int32()),
    })


def _digest(table: pa.Table, **kw) -> str:
    buf = io.BytesIO()
    write_container(table, buf, **kw)
    return hashlib.blake2b(buf.getvalue(), digest_size=16).hexdigest()


@pytest.mark.parametrize("codec,rows_per_block,want", [
    ("deflate", 2, "8c3a3e3802515685869c4b0e01d3a732"),
    ("deflate", 1000, "6b6c79849927f97ebd710867d5fde406"),
    ("null", 2, "6b1c8549a3829b545c00746d501cf967"),
    ("null", 1000, "be93b24b3997c6e669c802c11501f13a"),
])
def test_mixed_table_container_bytes(codec, rows_per_block, want):
    got = _digest(_mixed_table(), codec=codec, rows_per_block=rows_per_block)
    assert got == want


@pytest.mark.parametrize("codec,want", [
    ("deflate", "697ab8fe880e4de04e7d3f051ff31608"),
    ("null", "01338566b12c8f10ce9489053a567629"),
])
def test_events_table_container_bytes(codec, want):
    assert _digest(_events_table(), codec=codec) == want


def test_bare_null_block_bytes():
    t = pa.table({
        "nul": pa.array([None] * 3, pa.null()),
        "k": pa.array([1, None, -2], pa.int64()),
    })
    assert encode_block(t, arrow_to_avro_schema(t.schema)) == (
        b"\x02\x02\x00\x02\x03"
    )
