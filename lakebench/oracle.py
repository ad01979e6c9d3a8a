"""Independent oracle and output checks for the lake-life benchmark.

The oracle computes last-writer-wins in DuckDB (one thread) over the
generator's Arrow tables — never over anything the engine decoded or wrote.
Winner per url is the row with the greatest ``(warc_ts, event_seq)`` among
the snapshot (``event_seq = -1``) and the valid events up to a watermark; a
url whose winner is a delete is absent. Valid means a known op, a non-empty
url and a timestamp, so the planted invalid events never win.

Each ``check_*`` returns ``None`` when the program's output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import hashlib

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

from lakebench.gen import EVENTS_V2, Spec

LIVE_COLS = ["url", "warc_ts", "html", "text", "lang", "fetch_status", "event_seq"]

# DML steps applied, in order, to both the lake and the oracle: rows whose
# ``lang`` is ``old_lang`` get ``new_lang``; rows whose ``fetch_status`` is
# ``status`` are deleted.
DML_STEPS = [("de", "xx", 404), ("fr", "yy", 500)]


def as_v2(t: pa.Table) -> pa.Table:
    if "fetch_status" not in t.column_names:
        t = t.append_column("fetch_status", pa.nulls(t.num_rows, pa.int32()))
    return t.select(EVENTS_V2.names).cast(EVENTS_V2)


class Oracle:
    def __init__(self, pages: pa.Table, shards: list[pa.Table]):
        snap = pages.append_column("event_seq", pa.array([-1] * pages.num_rows, pa.int64()))
        snap = snap.append_column("op", pa.array(["insert"] * pages.num_rows))
        rows = pa.concat_tables([as_v2(snap)] + [as_v2(s) for s in shards])
        self.con = duckdb.connect(config={"threads": 1})
        self.con.register("log_rows", rows)
        self._live: dict[int, pa.Table] = {}

    def _q(self, sql: str, *params) -> pa.Table:
        return self.con.execute(sql, list(params)).arrow()

    def _winners(self, high: int) -> str:
        return f"""
            SELECT * EXCLUDE (rn) FROM (
              SELECT *, row_number() OVER (
                PARTITION BY url ORDER BY warc_ts DESC, event_seq DESC) AS rn
              FROM log_rows
              WHERE event_seq <= {int(high)} AND op IN ('insert', 'update', 'delete')
                AND url IS NOT NULL AND length(url) > 0 AND warc_ts IS NOT NULL)
            WHERE rn = 1"""

    def live(self, high: int) -> pa.Table:
        if high not in self._live:
            self._live[high] = self._q(
                f"SELECT {', '.join(LIVE_COLS)} FROM ({self._winners(high)}) "
                "WHERE op <> 'delete' ORDER BY url")
        return self._live[high]

    def deleted_urls(self, high: int) -> list[str]:
        return self._q(f"SELECT url FROM ({self._winners(high)}) WHERE op = 'delete' "
                       "ORDER BY url").column("url").to_pylist()

    def log_counts(self, high: int) -> tuple[int, int]:
        """(events written up to ``high``, invalid ones among them)."""
        t = self._q(f"""SELECT count(*) AS n, count(*) FILTER (WHERE NOT (
                op IN ('insert', 'update', 'delete') AND length(url) > 0)) AS bad
            FROM log_rows WHERE event_seq BETWEEN 0 AND {int(high)}""")
        return t.column("n")[0].as_py(), t.column("bad")[0].as_py()

    def changes(self, old_high: int, new_high: int) -> pa.Table:
        self.con.register("old_live", self.live(old_high))
        self.con.register("new_live", self.live(new_high))
        return self._q("""
            SELECT coalesce(n.url, o.url) AS url,
                   CASE WHEN o.url IS NULL THEN 'insert'
                        WHEN n.url IS NULL THEN 'delete' ELSE 'update' END AS change_type,
                   coalesce(n.warc_ts, o.warc_ts) AS warc_ts,
                   coalesce(n.event_seq, o.event_seq) AS event_seq,
                   n.text AS text
            FROM old_live o FULL OUTER JOIN new_live n ON o.url = n.url
            WHERE o.url IS NULL OR n.url IS NULL OR o.event_seq <> n.event_seq
            ORDER BY url""")

    def after_dml(self, live: pa.Table, step: tuple) -> tuple[pa.Table, int, int]:
        """(live rows after one DML step, rows updated, rows deleted)."""
        old_lang, new_lang, status = step
        self.con.register("dml_in", live)
        updated = self._q("SELECT count(*) AS n FROM dml_in WHERE lang = ?",
                          old_lang).column("n")[0].as_py()
        deleted = self._q("SELECT count(*) AS n FROM dml_in WHERE fetch_status = ?",
                          status).column("n")[0].as_py()
        out = self._q(f"""
            SELECT * REPLACE (CASE WHEN lang = ? THEN ? ELSE lang END AS lang)
            FROM dml_in WHERE fetch_status IS NULL OR fetch_status <> {int(status)}
            ORDER BY url""", old_lang, new_lang)
        return out.cast(live.schema), updated, deleted


# ------------------------------------------------------------------ checks


def conform(got: pa.Table | None, want: pa.Table) -> pa.Table | str:
    """``got`` cast to ``want``'s columns and types, or why it cannot be.
    None (a read that returned no rows) is an empty table."""
    if got is None:
        return want.schema.empty_table()
    cols = []
    for f in want.schema:
        if f.name in got.column_names:
            cols.append(got.column(f.name).cast(f.type))
        else:
            return f"column {f.name!r} missing from the program's output"
    return pa.Table.from_arrays(cols, schema=want.schema)


def table_mismatch(got: pa.Table, want: pa.Table, what: str) -> str | None:
    """Row-for-row, byte-for-byte comparison keyed by url (order-free)."""
    got = conform(got, want)
    if isinstance(got, str):
        return f"{what}: {got}"
    got = got.sort_by("url")
    want = want.sort_by("url")
    gu, wu = got.column("url").to_pylist(), want.column("url").to_pylist()
    if gu != wu:
        extra = sorted(set(gu) - set(wu))[:1]
        missing = sorted(set(wu) - set(gu))[:1]
        return (f"{what}: {len(gu)} rows vs {len(wu)} expected; "
                f"unexpected {extra} missing {missing}")
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        if not a.equals(b):
            diff = pc.invert(pc.fill_null(pc.equal(a, b), False))
            both_null = pc.and_(pc.is_null(a), pc.is_null(b))
            bad = pc.and_(diff, pc.invert(both_null)).to_pylist()
            if True in bad:
                i = bad.index(True)
                return f"{what}: url {gu[i]!r} differs in {name!r}"
    return None


def digest(table: pa.Table) -> str:
    """Order-independent content digest of live rows."""
    t = table.select(LIVE_COLS).sort_by("url")
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def check_live(scan: pa.Table, oracle_live: pa.Table) -> str | None:
    return table_mismatch(scan, oracle_live, "live rows")


def check_lookup(found: pa.Table, oracle_live: pa.Table, asked: list[str]) -> str | None:
    want = oracle_live.filter(pc.is_in(oracle_live.column("url"), pa.array(asked)))
    return table_mismatch(found, want, "lookup")


def check_changes(feed: pa.Table, oracle_feed: pa.Table) -> str | None:
    return table_mismatch(feed, oracle_feed, "change feed")


def check_dml(result: tuple[int, int], scan: pa.Table, want: tuple) -> str | None:
    rows, updated, deleted = want
    if result != (updated, deleted):
        return f"dml: updated/deleted {result}, expected {(updated, deleted)}"
    return table_mismatch(scan, rows, "live rows after dml")


def check_compact(outstanding: int, after: pa.Table | None, oracle_live: pa.Table,
                  before: pa.Table | None = None) -> str | None:
    """``after``: a scan after ``compact_now``; ``before``, when given: the
    scan just before it."""
    if outstanding:
        return f"compact_now left {outstanding} buckets with outstanding deltas"
    reason = table_mismatch(after, oracle_live, "live rows after compact_now")
    if reason is not None:
        return reason
    if before is not None:
        was = conform(before, oracle_live)
        if isinstance(was, str) or digest(was) != digest(conform(after, oracle_live)):
            return "compact_now changed the lake's content digest"
    return None


def check_watermark(high_seq: int, head: int) -> str | None:
    return None if high_seq == head else f"manifest high_seq {high_seq} != log head {head}"


def check_counts(applied: int, diverted: int, written: int, planted: int) -> str | None:
    if applied + diverted != written:
        return f"events_applied {applied} + errors_diverted {diverted} != {written} written"
    if diverted != planted:
        return f"errors_diverted {diverted} != {planted} planted invalid events"
    return None


def check_salting(spec: Spec, salted: int) -> str | None:
    if spec.hot and salted == 0:
        return f"{spec.name}: no bucket was salted, though the log is skewed"
    if not spec.hot and salted:
        return f"{spec.name}: {salted} buckets salted on a near-uniform log"
    return None
