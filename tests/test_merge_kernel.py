"""Unit tests for the pure-pyarrow LWW merge kernel (Ray-free).

Mirrors the reference's dedup-reducer tests (gobblin-compaction/src/test/)
plus FIXTURES.md §4 delete/tiebreak semantics."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gobblin_ray.merge import (
    base_to_pseudo_events,
    live_rows,
    lww_reduce,
    merge_base_with_events,
)
from gobblin_ray.schema import BASE_SCHEMA, conform, unify_additive

TS = lambda s: pa.scalar(s, pa.timestamp("us"))  # noqa: E731


def ev(rows):
    """rows: list of (seq, op, url, ts_us_int, text)"""
    return pa.table(
        {
            "event_seq": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "url": pa.array([r[2] for r in rows], pa.string()),
            "warc_ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
            "html": pa.array(
                [None if r[4] is None else r[4].encode() for r in rows], pa.binary()
            ),
            "text": pa.array([r[4] for r in rows], pa.string()),
            "lang": pa.array(["en" if r[4] else None for r in rows], pa.string()),
        }
    )


def final_text(base: pa.Table) -> dict:
    t = live_rows(base)
    return dict(zip(t.column("url").to_pylist(), t.column("text").to_pylist()))


def test_newer_update_wins():
    base = merge_base_with_events(None, ev([(0, "insert", "u1", 100, "old")]))
    base = merge_base_with_events(base, ev([(1, "update", "u1", 200, "new")]))
    assert final_text(base) == {"u1": "new"}


def test_late_update_loses():
    base = merge_base_with_events(None, ev([(0, "insert", "u1", 200, "cur")]))
    base = merge_base_with_events(base, ev([(1, "update", "u1", 100, "late")]))
    assert final_text(base) == {"u1": "cur"}


def test_equal_ts_tiebreak_on_event_seq():
    base = merge_base_with_events(
        None, ev([(0, "insert", "u1", 100, "a"), (1, "update", "u1", 100, "b")])
    )
    assert final_text(base) == {"u1": "b"}
    # Same pair split across two merges — associativity must hold.
    base2 = merge_base_with_events(None, ev([(1, "update", "u1", 100, "b")]))
    base2 = merge_base_with_events(base2, ev([(0, "insert", "u1", 100, "a")]))
    assert final_text(base2) == {"u1": "b"}


def test_delete_tombstone_blocks_late_resurrection():
    base = merge_base_with_events(None, ev([(0, "insert", "u1", 100, "x")]))
    base = merge_base_with_events(base, ev([(1, "delete", "u1", 300, None)]))
    assert final_text(base) == {}
    # Tombstone must be retained in the base with its LWW position…
    assert base.num_rows == 1
    assert base.column("is_deleted").to_pylist() == [True]
    # …so a later-arriving event with an OLDER warc_ts cannot resurrect.
    base = merge_base_with_events(base, ev([(2, "insert", "u1", 200, "zombie")]))
    assert final_text(base) == {}


def test_newer_insert_after_delete_resurrects():
    base = merge_base_with_events(None, ev([(0, "insert", "u1", 100, "x")]))
    base = merge_base_with_events(base, ev([(1, "delete", "u1", 200, None)]))
    base = merge_base_with_events(base, ev([(2, "insert", "u1", 300, "back")]))
    assert final_text(base) == {"u1": "back"}


def test_lww_reduce_associativity():
    rows = [
        (0, "insert", "u1", 100, "a"),
        (1, "update", "u2", 100, "b"),
        (2, "update", "u1", 150, "c"),
        (3, "delete", "u2", 120, None),
        (4, "update", "u1", 150, "d"),  # equal ts, higher seq
    ]
    all_at_once = lww_reduce(ev(rows))
    part = lww_reduce(
        pa.concat_tables([lww_reduce(ev(rows[:2])), lww_reduce(ev(rows[2:]))])
    )
    assert all_at_once.sort_by("url").equals(part.sort_by("url"))


def test_schema_evolution_null_fill():
    v2 = ev([(1, "update", "u2", 200, "new")]).append_column(
        "fetch_status", pa.array([301], pa.int32())
    )
    base = merge_base_with_events(None, ev([(0, "insert", "u1", 100, "old")]))
    base = merge_base_with_events(base, v2)
    assert "fetch_status" in base.column_names
    got = dict(
        zip(base.column("url").to_pylist(), base.column("fetch_status").to_pylist())
    )
    assert got == {"u1": None, "u2": 301}


def test_unify_additive_rejects_type_change():
    a = pa.schema([("x", pa.int64())])
    b = pa.schema([("x", pa.string())])
    with pytest.raises(TypeError):
        unify_additive(a, b)


def test_conform_orders_and_null_fills():
    t = pa.table({"b": [1], "a": ["x"]})
    s = pa.schema([("a", pa.string()), ("b", pa.int64()), ("c", pa.float64())])
    out = conform(t, s)
    assert out.column_names == ["a", "b", "c"]
    assert out.column("c").null_count == 1


def test_base_roundtrip_through_pseudo_events():
    base = merge_base_with_events(
        None, ev([(0, "insert", "u1", 100, "x"), (1, "delete", "u2", 50, None)])
    )
    again = merge_base_with_events(base, ev([])[:0])
    assert base.sort_by("url").equals(again.sort_by("url"))


def test_empty_everything():
    base = merge_base_with_events(None, ev([]))
    assert base.num_rows == 0
    assert live_rows(base).num_rows == 0


# ---------------------------------------------------------------- property-based

from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def event_stream(draw):
    """Random event stream: small url pool (forces collisions), random ts
    (forces late data + equal-ts tiebreaks), ~15% deletes, dense seqs."""
    n = draw(st.integers(1, 60))
    urls = [f"u{i}" for i in range(draw(st.integers(1, 8)))]
    rows = []
    for seq in range(n):
        url = draw(st.sampled_from(urls))
        ts = draw(st.integers(0, 20))  # tiny range -> many exact ties
        op = draw(
            st.sampled_from(["insert", "update", "update", "update", "delete"])
        )
        text = None if op == "delete" else f"{url}@{seq}"
        rows.append((seq, op, url, ts, text))
    return rows


def sequential_oracle(rows) -> dict:
    """Apply one at a time: event wins iff (ts, seq) strictly greater."""
    state: dict = {}
    for seq, op, url, ts, text in rows:
        cur = state.get(url)
        if cur is not None and (ts, seq) <= (cur[0], cur[1]):
            continue
        state[url] = (ts, seq, None if op == "delete" else text)
    return {u: v[2] for u, v in state.items() if v[2] is not None}


@settings(max_examples=120, deadline=None)
@given(event_stream())
def test_lww_matches_sequential_oracle(rows):
    base = merge_base_with_events(None, ev(rows))
    assert final_text(base) == sequential_oracle(rows)


@settings(max_examples=60, deadline=None)
@given(event_stream(), st.integers(1, 58))
def test_lww_split_point_invariance(rows, cut_raw):
    """Any split of the stream into two merges gives the same final base as
    one merge (the associativity the combiner/salting/delta design needs)."""
    cut = min(cut_raw, len(rows))
    one = merge_base_with_events(None, ev(rows))
    two = merge_base_with_events(
        merge_base_with_events(None, ev(rows[:cut])), ev(rows[cut:])
    )
    assert one.sort_by("url").equals(two.sort_by("url"))


@settings(max_examples=40, deadline=None)
@given(event_stream(), st.integers(2, 5))
def test_lww_shard_order_invariance(rows, k):
    """Events dealt round-robin into k deltas, merged in ANY order via
    merge_bases == one-shot merge (commutativity for compaction)."""
    from gobblin_ray.merge import merge_bases

    one = merge_base_with_events(None, ev(rows))
    deltas = [
        merge_base_with_events(None, ev(rows[i::k])) for i in range(k)
    ]
    merged = merge_bases(list(reversed(deltas)), one.schema)
    assert one.sort_by("url").equals(merged.sort_by("url"))


def test_stable_hash_u64_buffer_edges():
    """Arrow-buffer polynomial hash: trailing/middle empties, nulls,
    nonzero slice offsets, and chunk boundaries all agree with the
    whole-array result (regression: a reduceat index clamp used to drop
    the last byte of the segment before a trailing empty string)."""
    import numpy as np

    from gobblin_ray.engine import stable_hash_u64

    vals = ["x" * 5000, "", "tail", None, "a", "", "https://e.com/p1"]
    whole = stable_hash_u64(pa.array(vals, pa.string()))
    # chunked at every split point -> identical hashes
    for cut in range(1, len(vals)):
        ch = pa.chunked_array([
            pa.array(vals[:cut], pa.string()), pa.array(vals[cut:], pa.string())
        ])
        assert np.array_equal(stable_hash_u64(ch), whole), cut
    # null == empty string
    assert whole[3] == whole[1] == whole[5]
    # distinct non-empty values hash apart
    assert len({int(whole[i]) for i in (0, 2, 4, 6)}) == 4
    # sliced array (nonzero arr.offset) matches
    arr = pa.array(vals, pa.string())
    assert np.array_equal(stable_hash_u64(arr.slice(2, 3)), whole[2:5])
    # deterministic across calls
    assert np.array_equal(stable_hash_u64(arr), whole)


def test_unify_additive_lossless_widening():
    """Avro-style lossless promotions: wider ints/floats unify; small ints
    promote into exactly-representing floats; lossy edges still raise."""
    i32, i64 = pa.schema([("x", pa.int32())]), pa.schema([("x", pa.int64())])
    assert unify_additive(i32, i64).field("x").type == pa.int64()
    assert unify_additive(i64, i32).field("x").type == pa.int64()
    f32, f64 = pa.schema([("x", pa.float32())]), pa.schema([("x", pa.float64())])
    assert unify_additive(f32, f64).field("x").type == pa.float64()
    i16 = pa.schema([("x", pa.int16())])
    assert unify_additive(i16, f32).field("x").type == pa.float32()
    # int32 overflows float32's 24-bit mantissa -> promotes to float64
    assert unify_additive(i32, f32).field("x").type == pa.float64()
    # int64 -> double is lossy past 2^53: rejected
    with pytest.raises(TypeError):
        unify_additive(i64, f64)
    # mixed signedness: rejected (no lossless common type chosen)
    u32 = pa.schema([("x", pa.uint32())])
    with pytest.raises(TypeError):
        unify_additive(i32, u32)
    # uint32 fits float64 exactly
    assert unify_additive(u32, f32).field("x").type == pa.float64()


def test_widening_lattice_is_lossless_exhaustively():
    """For EVERY type pair the lattice accepts, casting each side's extreme
    values to the widened type and back must round-trip exactly — the
    'lossless' claim, proven over the whole numeric type set."""
    from itertools import product

    from gobblin_ray.schema import _widen

    types = [pa.int8(), pa.int16(), pa.int32(), pa.int64(),
             pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64(),
             pa.float32(), pa.float64()]
    # float16 must stay OUTSIDE the lattice: this pyarrow build cannot cast
    # halffloat up, so any promotion involving it would break conform
    for other in types:
        assert _widen(pa.float16(), other) is None
        assert _widen(other, pa.float16()) is None

    def extremes(t):
        if pa.types.is_signed_integer(t):
            lo = -(1 << (t.bit_width - 1))
            hi = (1 << (t.bit_width - 1)) - 1
            return [lo, -1, 0, 1, hi]
        if pa.types.is_unsigned_integer(t):
            return [0, 1, (1 << t.bit_width) - 1]
        import numpy as np
        info = np.finfo("float32" if t == pa.float32() else "float64")
        return [float(info.min), -1.5, 0.0, 1.5, float(info.max)]

    checked = 0
    for a, b in product(types, types):
        w = _widen(a, b)
        assert _widen(b, a) == w  # symmetric
        if w is None:
            continue
        for src in (a, b):
            vals = pa.array(extremes(src), src)
            back = vals.cast(w).cast(src)
            assert back.to_pylist() == vals.to_pylist(), (src, w)
        checked += 1
    assert checked >= 30  # the lattice actually accepts a broad set


def test_merge_bases_empty_keeps_schema():
    """All-empty inputs with an explicit schema yield an EMPTY table with
    that schema — a column-less table crashed live_rows (no is_deleted),
    reachable when a purge empties a bucket and its 0-row base is re-read."""
    from gobblin_ray.merge import live_rows, merge_bases

    out = merge_bases([BASE_SCHEMA.empty_table()], BASE_SCHEMA)
    assert out.schema.names == BASE_SCHEMA.names
    assert live_rows(out).num_rows == 0
    out2 = merge_bases([], BASE_SCHEMA)
    assert out2.schema.names == BASE_SCHEMA.names


def test_schema_registry_compatibility_modes():
    """Confluent-mode semantics over the lossless lattice: BACKWARD
    gates added fields + narrowing; FORWARD gates removals + widening;
    FULL both; _TRANSITIVE walks the whole history."""
    import pyarrow as pa
    import pytest

    from gobblin_ray.schema import (check_compatibility,
                                    compatibility_violations)

    v1 = pa.schema([pa.field("id", pa.int32(), nullable=False),
                    pa.field("name", pa.string())])
    # add a nullable field + widen id: BACKWARD ok (new reader null-fills
    # and widens old data), FORWARD not (old reader can't narrow int64)
    v2 = pa.schema([pa.field("id", pa.int64(), nullable=False),
                    pa.field("name", pa.string()),
                    pa.field("score", pa.float64())])
    assert compatibility_violations(v1, v2, "BACKWARD") == []
    assert any("does not promote" in m
               for m in compatibility_violations(v1, v2, "FORWARD"))
    assert compatibility_violations(v1, v2, "FULL") != []
    assert compatibility_violations(v1, v2, "NONE") == []

    # add a NON-nullable field: BACKWARD violation (no null default)
    v2_req = pa.schema([pa.field("id", pa.int32(), nullable=False),
                        pa.field("tag", pa.string(), nullable=False)])
    assert any("null default" in m
               for m in compatibility_violations(v1, v2_req, "BACKWARD"))

    # remove a nullable field: BACKWARD ok AND FORWARD ok (old reader
    # null-fills the gap) => FULL ok
    v2_drop = pa.schema([pa.field("id", pa.int32(), nullable=False)])
    assert compatibility_violations(v1, v2_drop, "FULL") == []
    # remove a REQUIRED field: FORWARD violation
    v2_noid = pa.schema([pa.field("name", pa.string())])
    assert any("null default" in m
               for m in compatibility_violations(v1, v2_noid, "FORWARD"))

    # transitive modes walk the whole history; plain modes check only
    # the LATEST prior schema
    v3 = pa.schema([pa.field("id", pa.int64(), nullable=False),
                    pa.field("name", pa.string()),
                    pa.field("score", pa.float32())])
    v4 = pa.schema([pa.field("id", pa.int64(), nullable=False),
                    pa.field("name", pa.string()),
                    pa.field("score", pa.float64())])
    # latest (v3) -> v4 widens float32 -> float64: FORWARD fails on v3
    assert compatibility_violations([v2, v3], v4, "FORWARD") != []
    assert compatibility_violations([v2, v3], v4, "BACKWARD") == []
    assert compatibility_violations([v2, v3], v4,
                                    "BACKWARD_TRANSITIVE") == []
    # FORWARD_TRANSITIVE: v2 (float64 reader) passes, v3 fails — and the
    # violation is labeled with which history entry it came from
    tv = compatibility_violations([v2, v3], v4, "FORWARD_TRANSITIVE")
    assert tv and all("history[1]" in m for m in tv)

    with pytest.raises(TypeError, match="not FULL-compatible"):
        check_compatibility(v1, v2, "FULL")
    with pytest.raises(ValueError):
        compatibility_violations(v1, v2, "SIDEWAYS")


_urls = st.lists(st.text(alphabet="abcdé/:.", max_size=6), unique=True,
                 max_size=40).map(lambda xs: np.array(sorted(xs), dtype=object))


@settings(max_examples=300, deadline=None)
@given(_urls, _urls)
def test_match_sorted_equals_isin(ou, nu):
    """The change-feed diff's binary-search url match returns exactly what
    the np.isin formulation over the same sorted unique urls returns,
    empty sides included."""
    from gobblin_ray.engine import _match_sorted

    ins, gone, common, old_of_common = _match_sorted(ou, nu)
    in_old = np.isin(nu, ou)
    assert np.array_equal(ins, np.flatnonzero(~in_old))
    assert np.array_equal(gone, np.flatnonzero(~np.isin(ou, nu)))
    assert np.array_equal(common, np.flatnonzero(in_old))
    assert np.array_equal(old_of_common, np.searchsorted(ou, nu[common]))
