"""Self-test for the benchmark's inputs, oracle and checks (no Ray needed).

    python3 lakebench/selftest.py

1. The generator is a pure function of (seed, shard) and plants what it
   promises: exact invalid counts, duplicates, late events, the schema cut.
2. The DuckDB oracle agrees with a plain Python last-writer-wins fold.
3. Every check passes on the oracle's own outputs and fails on each planted
   fault: a changed text, a resurrected delete, a late event that wins, a
   missing update in the change feed, and an off-by-one count (plus a wrong
   watermark, a changed digest, wrong DML counts and wrong salting).
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from lakebench import gen  # noqa: E402
from lakebench import oracle as orc  # noqa: E402
from lakebench.run import WORKLOADS  # noqa: E402

SPEC = replace(WORKLOADS["catchup"][0], pages=400, shards=4, shard_events=600,
               schema_cut=2, batch_shards=2, epoch_width=1200)
MID = 2 * SPEC.shard_events - 1  # a watermark halfway through the log
SEED = 11


def python_lww(pages: pa.Table, shards: list[pa.Table], high: int) -> dict:
    """url -> winning row (a dict), by a straight fold in log order."""
    best: dict = {}
    rows = [dict(r, event_seq=-1, op="insert", fetch_status=None) for r in pages.to_pylist()]
    for s in shards:
        rows += [dict({"fetch_status": None}, **r) for r in s.to_pylist()]
    for r in rows:
        if r["event_seq"] > high or r["op"] not in ("insert", "update", "delete") or not r["url"]:
            continue
        cur = best.get(r["url"])
        if cur is None or (r["warc_ts"], r["event_seq"]) > (cur["warc_ts"], cur["event_seq"]):
            best[r["url"]] = r
    return {u: r for u, r in best.items() if r["op"] != "delete"}


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    pages = gen.make_pages(SPEC, SEED)
    shards = [gen.make_shard(SPEC, SEED, i) for i in range(SPEC.shards)]
    head = SPEC.events - 1

    # 1. generator
    expect(gen.make_shard(SPEC, SEED, 2).equals(shards[2]), "shard is a pure function of (seed, shard)")
    expect(not gen.make_shard(SPEC, SEED + 1, 2).equals(shards[2]), "another seed gives another shard")
    log = pa.concat_tables([orc.as_v2(s) for s in shards])
    bad = pc.sum(pc.invert(pc.and_(pc.is_in(log.column("op"), pa.array(["insert", "update", "delete"])),
                                   pc.greater(pc.utf8_length(log.column("url")), 0)))).as_py()
    expect(bad == SPEC.shards * SPEC.invalid_per_shard, f"{bad} planted invalid events")
    keys = log.group_by(["url", "warc_ts"]).aggregate([("event_seq", "count")])
    dup_pairs = pc.sum(pc.greater(keys.column("event_seq_count"), 1)).as_py()
    expect(dup_pairs >= SPEC.shards * SPEC.dups // 2, f"{dup_pairs} exact (url, warc_ts) duplicates")
    expect([("fetch_status" in s.column_names) for s in shards]
           == [i >= SPEC.schema_cut for i in range(SPEC.shards)], "fetch_status from the schema cut on")
    ops = log.column("op").to_pylist()
    expect((ops.count("insert"), ops.count("delete"))
           == (SPEC.shards * (SPEC.mint + SPEC.reinsert), SPEC.shards * SPEC.deletes)
           and SPEC.mint + SPEC.reinsert == round(gen.INSERT_SHARE * SPEC.shard_events)
           and SPEC.deletes == round(gen.DELETE_SHARE * SPEC.shard_events),
           f"{ops.count('insert')} inserts and {ops.count('delete')} deletes, as the shares say")
    html = pa.concat_arrays([pages.column("html").combine_chunks(),
                             log.column("html").combine_chunks()]).drop_null()
    text = pa.concat_arrays([pages.column("text").combine_chunks(),
                             log.column("text").combine_chunks()]).drop_null()
    sizes = pc.binary_length(html)
    lo, hi = pc.min(sizes).as_py(), pc.max(sizes).as_py()
    expect(gen.HTML_BYTES[0] <= lo and hi <= gen.HTML_BYTES[1], f"html of {lo}-{hi} bytes")
    wrapped = pc.binary_join_element_wise(gen.HTML_HEAD, text, gen.HTML_TAIL, "")
    expect(pc.all(pc.equal(html.cast(pa.string()), wrapped)).as_py(), "text is the html without tags")
    avro = gen.avro_bytes(shards[0], b"x")
    expect(avro[:4] == b"Obj\x01" and avro == gen.avro_bytes(shards[0], b"x"),
           "avro container is deterministic")

    # 2. oracle vs a plain fold
    ora = orc.Oracle(pages, shards)
    for high in (MID, head):
        want = python_lww(pages, shards, high)
        live = ora.live(high)
        got = {r["url"]: r for r in live.to_pylist()}
        same = got.keys() == want.keys() and all(
            all(got[u][c] == want[u][c] for c in orc.LIVE_COLS) for u in want)
        expect(same, f"oracle equals a plain LWW fold at watermark {high} ({len(want)} rows)")
    late_ts = pc.less(log.column("warc_ts"), pa.scalar(gen.T0_US, pa.timestamp("us")))
    late_seqs = set(log.filter(late_ts).column("event_seq").to_pylist())
    live = ora.live(head)
    expect(late_seqs and not late_seqs & set(live.column("event_seq").to_pylist()),
           f"none of {len(late_seqs)} late events wins")

    # 3. checks pass on right outputs, fail on each planted fault
    feed = ora.changes(MID, head)
    deleted = ora.deleted_urls(head)
    written, planted = ora.log_counts(head)
    expect(orc.check_live(live, live) is None, "check_live passes on the oracle's rows")
    expect(orc.check_changes(feed, feed) is None, "check_changes passes on the oracle's feed")
    expect(orc.check_counts(written - planted, planted, written, planted) is None,
           "check_counts passes on conserved counts")
    asked = live.column("url").to_pylist()[:5] + deleted[:5] + [gen.unseen_url(0)]
    expect(orc.check_lookup(live.filter(pc.is_in(live.column("url"), pa.array(asked))), live, asked)
           is None, "check_lookup passes on the oracle's rows")

    i = 7
    text = live.column("text").to_pylist()
    text[i] += " "
    changed = live.set_column(live.schema.get_field_index("text"), "text", pa.array(text))
    expect(orc.check_live(changed, live) is not None, "check_live catches a changed text")

    gone = deleted[0]
    ghost_row = log.filter(pc.equal(log.column("url"), gone)).sort_by("event_seq").slice(0, 1)
    ghost = pa.concat_tables([live, ghost_row.select(orc.LIVE_COLS).cast(live.schema)])
    expect(orc.check_live(ghost, live) is not None, "check_live catches a resurrected delete")
    expect(orc.check_lookup(ghost, live, [gone]) is not None, "check_lookup catches a resurrected delete")

    late_row = log.filter(late_ts).slice(0, 1)
    url = late_row.column("url")[0].as_py()
    winner = pa.concat_tables([live.filter(pc.not_equal(live.column("url"), url)),
                               late_row.select(orc.LIVE_COLS).cast(live.schema)])
    expect(orc.check_live(winner, live) is not None, "check_live catches a late event that wins")

    updates = pc.equal(feed.column("change_type"), "update")
    first = pc.index(updates, True).as_py()
    short = pa.concat_tables([feed.slice(0, first), feed.slice(first + 1)])
    expect(orc.check_changes(short, feed) is not None, "check_changes catches a missing update")

    expect(orc.check_counts(written - planted + 1, planted, written, planted) is not None,
           "check_counts catches an off-by-one applied count")
    expect(orc.check_counts(written - planted + 1, planted - 1, written, planted) is not None,
           "check_counts catches an off-by-one diverted count")
    expect(orc.check_watermark(head - 1, head) is not None, "check_watermark catches a lagging high_seq")
    expect(orc.check_compact(0, live, live, before=live) is None, "check_compact passes")
    expect(orc.check_compact(0, live, live, before=changed) is not None,
           "check_compact catches a changed digest")
    expect(orc.check_compact(0, changed, live) is not None,
           "check_compact catches changed rows")
    expect(orc.check_compact(1, live, live) is not None, "check_compact catches outstanding deltas")
    expect(orc.check_live(None, live) is not None and orc.check_changes(None, feed.slice(0, 0)) is None,
           "a read that returned no rows counts as zero rows")
    after, n_up, n_del = ora.after_dml(live, orc.DML_STEPS[0])
    expect(orc.check_dml((n_up, n_del), after, (after, n_up, n_del)) is None, "check_dml passes")
    expect(orc.check_dml((n_up, n_del), live, (after, n_up, n_del)) is not None,
           "check_dml catches rows the DML did not change")
    expect(orc.check_dml((n_up + 1, n_del), after, (after, n_up, n_del)) is not None,
           "check_dml catches a wrong updated count")
    expect(orc.check_salting(SPEC, 0) is not None, "check_salting wants salting on a skewed log")
    expect(orc.check_salting(replace(SPEC, hot=()), 2) is not None,
           "check_salting refuses salting on a near-uniform log")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
