"""Distinct-count sketch: K-Minimum-Values (bottom-k) over hashed keys.

Public-knowledge basis: the KMV / bottom-k estimator (Bar-Yossef et al.
2002, "Counting distinct elements in a data stream"): hash every value
uniformly into [0, 2^64), keep the k smallest distinct hashes, and estimate
the cardinality from the k-th smallest — E[n] ≈ (k-1) * 2^64 / h_(k),
relative standard error ~ 1/sqrt(k-2). When fewer than k distinct hashes
exist the sketch is SATURATED and the count is exact (every distinct hash
is retained).

Reference analog: the metrics subsystem's histogram/meter sketches
(gobblin-metrics-libs/gobblin-metrics-base) and the planner's need for
cheap cardinality estimates (how many distinct urls in an epoch → bucket
sizing, dedup selectivity) without a distinct-shuffle.

Scale shape — an aggregate TREE, no all-to-all: each block reduces to its
own bottom-k (vectorized unique + np.partition), the per-block candidate
sets (≤ k u64 rows each) flow through the existing partial-top-k reduce,
and the driver sees at most k values. At 10^10 rows the exchange is
O(k × blocks) hashes — bytes, not row data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 — the same public mixing
    constant family the engine's string hash uses for its finalizer."""
    with np.errstate(over="ignore"):
        z = x + _SPLITMIX_GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def hash_column_u64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic u64 hash of an int, float, or string column
    (vectorized). Floats hash their IEEE bit pattern (with -0.0 folded to
    +0.0 so SQL equality semantics hold) — truncating to int would
    collapse distinct values."""
    typ = col.type if not isinstance(col, pa.ChunkedArray) else col.type
    if (pa.types.is_string(typ) or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ) or pa.types.is_large_binary(typ)):
        # binary shares the string layout (offsets + data buffer), and
        # stable_hash_u64 walks the buffers directly
        from ..engine import stable_hash_u64

        return stable_hash_u64(col)
    v = col.to_numpy(zero_copy_only=False)
    if pa.types.is_floating(typ):
        f = v.astype(np.float64)
        f = f + 0.0  # folds -0.0 to +0.0
        return _splitmix64(f.view(np.uint64))
    return _splitmix64(v.astype(np.int64).view(np.uint64))


def _bottom_k(h: np.ndarray, k: int) -> np.ndarray:
    """k smallest DISTINCT hash values of ``h`` (all of them if fewer)."""
    u = np.unique(h)  # sorted distinct
    return u[:k]


def kmv_estimate(bottom: np.ndarray, k: int) -> float:
    """Cardinality estimate from the GLOBAL bottom-k distinct hashes.

    Saturated regime (< k distinct hashes survive): exact count — this is
    what lets the driver value-check the sketch against COUNT(DISTINCT).
    Estimation regime: (k-1) * 2^64 / h_(k) with h_(k) the k-th smallest.
    """
    bottom = np.unique(bottom)
    if len(bottom) < k:
        return float(len(bottom))
    kth = float(bottom[k - 1]) + 1.0  # h uniform on [0, 2^64)
    return (k - 1) * (2.0**64) / kth


def approx_distinct(ds, column: str, k: int = 4096) -> float:
    """End-to-end distributed distinct count of ``ds[column]``.

    Runs as a Ray Data AggregateFn — a proper aggregation TREE: each block
    accumulates to its own bottom-k of DISTINCT hashes, merges union two
    bottom-k sets and re-prune (associative + commutative, so Ray can
    partial-merge in any order), and only one ≤ k-element array ever
    reaches the driver. NOTE a plain top-k over the per-block candidate
    ROWS would be wrong: the same hash appears in many blocks and
    duplicates would crowd distinct values out of the global k (pinned by
    test_kmv_saturated_is_exact).
    """
    from ray.data.aggregate import AggregateFn

    empty = np.empty(0, dtype=np.uint64)
    agg = AggregateFn(
        init=lambda _k: empty,
        # drop_null: SQL count(DISTINCT) ignores nulls — and a nullable
        # int64 column would otherwise roundtrip through float64 in
        # to_numpy (nulls -> NaN), collapsing distinct values past 2^53
        accumulate_block=lambda acc, block: _bottom_k(
            np.concatenate(
                [acc, hash_column_u64(block.column(column).drop_null())]
            ),
            k,
        ),
        merge=lambda a, b: _bottom_k(np.concatenate([a, b]), k),
        finalize=lambda acc: kmv_estimate(acc, k),
        name="kmv_distinct",
    )
    out = ds.aggregate(agg)
    return float(out["kmv_distinct"])


# ---------------------------------------------------- frequent items (MG)

def _mg_combine(state: dict, keys, counts, k: int, err: int = 0) -> dict:
    """Fold (keys, counts) and ``err`` into a Misra-Gries summary capped at
    k counters. The summary is ``{"keys", "counts", "err"}``: parallel
    lists plus the undercount bound, a shape Ray Data holds as one Arrow
    struct (a dict keyed by the values is no Arrow type). Pruning
    subtracts the (k+1)-th largest count from every counter (the classic
    MG decrement, batched) and adds it to ``err``, the possible
    undercount of every surviving counter."""
    acc = dict(zip(state["keys"], state["counts"]))
    for key, c in zip(keys, counts):
        acc[key] = acc.get(key, 0) + int(c)
    err += int(state["err"])
    if len(acc) > k:
        vals = np.sort(np.fromiter(acc.values(), dtype=np.int64))
        cut = int(vals[len(vals) - k - 1])  # (k+1)-th largest
        acc = {key: c - cut for key, c in acc.items() if c > cut}
        err += cut
    return {"keys": list(acc), "counts": list(acc.values()), "err": err}


def heavy_hitters(ds, column: str, k: int = 8192, top_n: int = 20):
    """Distributed frequent-items sketch (Misra-Gries / space-saving
    family; Misra & Gries 1982, Metwally et al. 2005): the top-``top_n``
    values of ``ds[column]`` by count, with at most ``n_total/k`` undercount.

    Public-knowledge basis: an MG summary with k counters undercounts any
    item by at most the sum of prune decrements (<= n/k); merging two
    summaries then re-pruning keeps the bound additive (Agarwal et al.
    2012, "Mergeable summaries") — so it runs as a Ray AggregateFn TREE:
    each block folds its exact vectorized value_counts into a k-counter
    dict, merges are associative-with-bound, and O(k) state reaches the
    driver. No shuffle; contrast a groupby().count() which exchanges every
    row.

    SATURATED regime (total distinct <= k): no prune ever fires, counts are
    EXACT and deterministic — what the driver oracle checks against
    GROUP BY/ORDER BY/LIMIT. Pruned regime: counts carry ``err`` (max
    undercount) and may vary with merge order; the error BOUND still holds
    (pinned by pytest).

    Returns a pyarrow Table (value, n, err) sorted by (n desc, value asc).
    """
    from ray.data.aggregate import AggregateFn

    def acc_block(acc, block):
        vc = block.column(column).drop_null().value_counts()
        return _mg_combine(acc, vc.field("values").to_pylist(),
                           vc.field("counts").to_pylist(), k)

    agg = AggregateFn(
        init=lambda _k: {"keys": [], "counts": [], "err": 0},
        accumulate_block=acc_block,
        merge=lambda a, b: _mg_combine(a, b["keys"], b["counts"], k, b["err"]),
        finalize=lambda acc: acc,
        name="mg_heavy_hitters",
    )
    mg = ds.aggregate(agg)["mg_heavy_hitters"]
    d, err = dict(zip(mg["keys"], mg["counts"])), int(mg["err"])
    items = sorted(d.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return pa.table({
        "value": pa.array([i[0] for i in items]),
        "n": pa.array([i[1] for i in items], pa.int64()),
        "err": pa.array([err] * len(items), pa.int64()),
    })


def _md5_prefix_u64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """First 16 hex chars of md5(str(value)) as uint64 — the engine's
    SQL-replayable coin (DuckDB: CAST(('0x' || substr(md5(CAST(v AS
    VARCHAR)),1,16)) AS UBIGINT)), same family as the weighted-sample
    and stratified-sample coins. Per-value hashlib in Python — callers
    dedup the batch first so cost is O(distinct per block); production
    sketches use the vectorized ``hash_column_u64`` coin instead."""
    import hashlib

    return np.array(
        [int(hashlib.md5(str(v).encode()).hexdigest()[:16], 16)
         for v in col.to_pylist()],
        dtype=np.uint64,
    )


def kmv_bottom_k(ds, column: str, k: int, coin: str = "stable") -> np.ndarray:
    """The GLOBAL bottom-k distinct hash signature of ``ds[column]`` —
    the mergeable KMV/theta sketch STATE (not just a cardinality): a
    proper Ray aggregation tree where each block contributes its own
    bottom-k of distinct hashes and only one ≤ k array reaches the
    driver. ``coin="stable"`` uses the vectorized Arrow-buffer hash;
    ``coin="md5"`` the SQL-replayable md5-prefix coin."""
    from ray.data.aggregate import AggregateFn

    hash_fn = hash_column_u64 if coin == "stable" else _md5_prefix_u64
    empty = np.empty(0, dtype=np.uint64)
    agg = AggregateFn(
        init=lambda _k: empty,
        accumulate_block=lambda acc, block: _bottom_k(
            np.concatenate(
                [acc, hash_fn(block.column(column).drop_null().unique())]
            ),
            k,
        ),
        merge=lambda a, b: _bottom_k(np.concatenate([a, b]), k),
        finalize=lambda acc: acc,
        name="kmv_bk",
    )
    return ds.aggregate(agg)["kmv_bk"]


def kmv_set_ops(left, right, column: str, k: int = 256,
                coin: str = "stable") -> dict:
    """Distinct-set operations between two datasets WITHOUT a join — the
    DataSketches theta-sketch union/intersection posture: how many
    distinct keys does each corpus hold, how many in the union, how many
    in common, at O(k) driver state and one aggregation tree per side
    (yesterday-vs-today crawl overlap at 100 TB without shuffling either
    side). Reference analog: none (Gobblin ships no sketches); this
    extends the repo's KMV family (approx_distinct) to set algebra.

    Estimator (integer-exact so the md5 coin replays bit-identically in
    SQL): per side the bottom-k distinct-hash signature; the union
    signature is bottom-k of the merged signatures. Saturated regime
    (fewer than k distinct survive) is EXACT. Estimation regime:
    ``n = (k-1) * 2^64 // (h_(k) + 1)`` (floor division, the +1 because
    hashes are uniform on [0, 2^64)); the intersection counts union-
    signature members present in BOTH sides' signatures (n_i), giving
    ``jaccard_ppm = n_i * 1e6 // |K_U|`` and ``n_intersect = n_i *
    n_union // |K_U|``. Standard KMV error ~1/sqrt(k) on union;
    intersection error grows as the true Jaccard shrinks (documented
    theta-sketch behavior).

    Returns ``{"k", "n_left", "n_right", "n_union", "n_intersect",
    "jaccard_ppm"}``, all integers."""
    F = 1 << 64

    def _est(sig: np.ndarray) -> int:
        if len(sig) < k:
            return int(len(sig))
        return (k - 1) * F // (int(sig.max()) + 1)

    ka = kmv_bottom_k(left, column, k, coin)
    kb = kmv_bottom_k(right, column, k, coin)
    ku = _bottom_k(np.concatenate([ka, kb]), k)
    c = int(len(ku))
    n_union = _est(ku)
    n_i = int((np.isin(ku, ka) & np.isin(ku, kb)).sum())
    return {
        "k": int(k),
        "n_left": _est(ka),
        "n_right": _est(kb),
        "n_union": n_union,
        "n_intersect": (n_i * n_union // c) if c else 0,
        "jaccard_ppm": (n_i * 1_000_000 // c) if c else 0,
    }


def approx_distinct_by(ds, group_col: str, column: str, k: int = 4096):
    """PER-GROUP distinct count via the same KMV bottom-k sketch: one
    groupby exchange whose per-group payload is <= k hashes (each group's
    blocks fold to their own bottom-k before merging), not the group's
    rows — the grouped-cardinality primitive (distinct users per segment,
    distinct urls per host) that a naive ``groupby(g, col).distinct`` would
    pay a full-width shuffle for. Saturated groups (< k distinct) are
    exact, which is what the driver oracle checks against
    ``count(DISTINCT ...) GROUP BY``; the estimation-regime error bound is
    the same as ``approx_distinct`` (pinned by pytest)."""
    from ray.data.aggregate import AggregateFn

    empty = np.empty(0, dtype=np.uint64)
    agg = AggregateFn(
        init=lambda _g: empty,
        # drop_null: SQL count(DISTINCT) ignores nulls
        accumulate_block=lambda acc, block: _bottom_k(
            np.concatenate(
                [acc, hash_column_u64(block.column(column).drop_null())]
            ),
            k,
        ),
        merge=lambda a, b: _bottom_k(np.concatenate([a, b]), k),
        finalize=lambda acc: int(round(kmv_estimate(acc, k))),
        name="n_distinct",
    )
    return ds.groupby(group_col).aggregate(agg)


# ------------------------------------------------- quantile sketch (KLL-lite)

def _kll_compact(levels: list, coins: list, c: int):
    """Compact every over-full level in place: sort the buffer, promote
    every other element (starting at an alternating parity offset — the
    deterministic stand-in for KLL's random coin; Karnin-Lang-Liberty 2016
    use a fair coin, which keeps the estimator unbiased; alternating parity
    trades a negligible bias for run-to-run determinism) to the next level,
    discard the rest. An item at level i carries weight 2^i."""
    lvl = 0
    while lvl < len(levels):
        if len(levels[lvl]) <= c:
            lvl += 1
            continue
        buf = np.sort(levels[lvl])
        off = coins[lvl] & 1
        coins[lvl] += 1
        promoted = buf[off::2]
        levels[lvl] = np.empty(0, dtype=np.float64)
        if lvl + 1 == len(levels):
            levels.append(promoted)
            coins.append(0)
        else:
            levels[lvl + 1] = np.concatenate([levels[lvl + 1], promoted])
        lvl += 1
    return levels, coins


def _kll_insert(state, vals: np.ndarray, c: int):
    levels, coins = state
    levels = [np.concatenate([levels[0], vals])] + list(levels[1:])
    return _kll_compact(levels, list(coins), c)


def _kll_merge(a, b, c: int):
    la, ca = a
    lb, cb = b
    n = max(len(la), len(lb))
    levels = [
        np.concatenate([
            la[i] if i < len(la) else np.empty(0, np.float64),
            lb[i] if i < len(lb) else np.empty(0, np.float64),
        ])
        for i in range(n)
    ]
    coins = [
        (ca[i] if i < len(ca) else 0) + (cb[i] if i < len(cb) else 0)
        for i in range(n)
    ]
    return _kll_compact(levels, coins, c)


def _kll_quantiles(state, qs: list[float]) -> list[float]:
    """quantile_cont-interpolated values in the SATURATED regime (all items
    still at level 0 — exact: the sketch holds every value); weighted
    order-statistic lookup in the estimation regime."""
    levels, _ = state
    if all(len(l) == 0 for l in levels):
        return [float("nan")] * len(qs)
    if all(len(l) == 0 for l in levels[1:]):  # saturated -> exact
        v = np.sort(levels[0])
        out = []
        for q in qs:
            h = (len(v) - 1) * q
            lo = int(np.floor(h))
            hi = min(lo + 1, len(v) - 1)
            out.append(float(v[lo] + (v[hi] - v[lo]) * (h - lo)))
        return out
    vals = np.concatenate(levels)
    wts = np.concatenate([
        np.full(len(l), 2.0**i) for i, l in enumerate(levels)
    ])
    order = np.argsort(vals, kind="mergesort")
    vals, wts = vals[order], wts[order]
    cum = np.cumsum(wts)
    total = cum[-1]
    out = []
    for q in qs:
        r = q * (total - 1.0)
        idx = int(np.searchsorted(cum - 1.0, r, side="left"))
        out.append(float(vals[min(idx, len(vals) - 1)]))
    return out


def approx_quantiles(ds, column: str, qs: list[float],
                     k: int = 16384) -> list[float]:
    """Mergeable quantile sketch (KLL family; Karnin, Lang & Liberty 2016,
    "Optimal quantile approximation in streams"): per-level buffers of
    capacity ``k``; a full buffer sorts and promotes every other element
    (weight doubles per level). Runs as a Ray AggregateFn TREE — each block
    folds its values into its own sketch, merges are level-wise
    concatenate + compact, and O(k log(n/k)) floats reach the driver. No
    shuffle; contrast ``exact_quantiles``' multi-round histogram scans,
    which re-read the dataset once per refinement round — the sketch is
    the ONE-PASS path when rank error ~1/k is acceptable.

    SATURATED regime (n <= k: no compaction fired anywhere): the sketch
    holds every value and the result is EXACT quantile_cont interpolation
    — what the driver oracle checks. Estimation regime: a weighted
    order-statistic lookup; the rank-error bound is pinned by pytest.
    NaN/NULL excluded, as in SQL."""
    from ray.data.aggregate import AggregateFn

    def new_state():
        return ([np.empty(0, dtype=np.float64)], [0])

    def acc(state, block):
        if hasattr(block, "column"):  # pyarrow block
            col = block.column(column)
            v = col.drop_null().to_numpy(zero_copy_only=False)
        else:  # pandas block (e.g. from_pandas datasets)
            v = block[column].dropna().to_numpy()
        v = v.astype(np.float64)
        v = v[~np.isnan(v)]
        return _kll_insert(state, v, k)

    agg = AggregateFn(
        init=lambda _k: new_state(),
        accumulate_block=acc,
        merge=lambda a, b: _kll_merge(a, b, k),
        finalize=lambda s: s,
        name="kll",
    )
    state = ds.aggregate(agg)["kll"]
    return _kll_quantiles(state, qs)


def approx_quantiles_by(ds, group_col: str, value_col: str,
                        qs: list[float], k: int = 16384):
    """PER-GROUP one-pass quantile sketch: the grouped form of
    ``approx_quantiles`` — one groupby exchange whose per-group payload is
    the O(k log(n/k))-float KLL state, not the group's rows (contrast the
    bounded-partition ``exact_quantiles_by``, which ships every row of
    every group through the exchange). Saturated groups (n <= k) are exact
    quantile_cont — what the driver oracle checks. Returns long format:
    one row per (group, q, qv)."""
    from ray.data.aggregate import AggregateFn

    def acc(state, block):
        if hasattr(block, "column"):
            v = block.column(value_col).drop_null().to_numpy(
                zero_copy_only=False
            )
        else:
            v = block[value_col].dropna().to_numpy()
        v = v.astype(np.float64)
        return _kll_insert(state, v[~np.isnan(v)], k)

    agg = AggregateFn(
        init=lambda _g: ([np.empty(0, dtype=np.float64)], [0]),
        accumulate_block=acc,
        merge=lambda a, b: _kll_merge(a, b, k),
        finalize=lambda s: _kll_quantiles(s, qs),
        name="_qv",
    )
    wide = ds.groupby(group_col).aggregate(agg)

    def explode(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = t.column(group_col)
        lists = t.column("_qv")
        nq = len(qs)
        gi = np.repeat(np.arange(len(t)), nq)
        return pa.table({
            group_col: g.take(pa.array(gi)),
            "q": pa.array(np.tile(np.asarray(qs, np.float64), len(t))),
            "qv": pc.list_flatten(lists),
        })

    explode.__name__ = "explode_quantiles"
    return wide.map_batches(explode, batch_format="pyarrow", batch_size=None)
