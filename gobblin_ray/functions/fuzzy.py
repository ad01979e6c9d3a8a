"""Fuzzy (approximate-string) join at edit distance <= 1 via
deletion-neighborhood blocking.

The record-linkage step of the LLM-curation extension set (entity
resolution over key-ish webtext metadata: titles, author names, hosts —
linking rows whose join keys differ by one typo). The reference's join
family (SURVEY §2.5) is exact-key only; this adds the approximate tier
with the FastSS / SymSpell algorithm (Bocek et al. 2007, "Fast Similarity
Search in Large Dictionaries"): two strings are within edit distance 1
iff their 1-deletion neighborhoods intersect — s itself counts as its own
0-deletion variant — so blocking on deletion variants is COMPLETE for
ed <= 1 (every true pair shares at least one variant) and exact
per-candidate verification makes it SOUND.

Scale shape: each side explodes to at most (len+1) deletion variants per
row — built with `maxlen` VECTORIZED slice+join passes per batch, never a
Python loop over rows — hashed to u64, and ONE bounded exchange on
``hash(variant) % num_partitions`` co-locates candidates; per-partition
pandas merge generates candidate pairs, an exact ed<=1 check verifies
them (O(candidates x len), candidates already blocked down), and a final
tiny distinct collapses pairs that shared several variants. Hash
collisions only ADD candidates (verification prunes them), never lose
matches. Payload note: the string itself rides the exchange because the
verifier needs it — right-sized for key columns; for long documents use
the MinHash family (functions/dedup.py) instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _deletion_variants(t: pa.Table, id_col: str, s_col: str,
                       side: int) -> pa.Table:
    """Explode each row to its 1-deletion neighborhood:
    ``(variant_hash, id, s, side)`` — one vectorized pass per deletion
    position, not per row."""
    from .sketch import hash_column_u64

    t = t.filter(pc.is_valid(t.column(s_col)))
    s = t.column(s_col)
    ids = t.column(id_col)
    lens = pc.utf8_length(s).to_numpy(zero_copy_only=False)
    maxlen = int(lens.max()) if len(lens) else 0

    chunks = []

    def emit(variant, vids, vs):
        vh = hash_column_u64(
            variant if isinstance(variant, (pa.Array, pa.ChunkedArray))
            else pa.array(variant)
        ).view(np.int64)
        chunks.append(pa.table({
            "vh": pa.array(vh),
            "_id": vids, "_s": vs,
            "_side": pa.array(
                np.full(len(vids), side, np.int8), pa.int8()),
        }))

    emit(s, ids, s)  # the 0-deletion variant (the string itself)
    big = 2**30
    for j in range(maxlen):
        mask = lens > j
        if not mask.any():
            break
        sj = s.filter(pa.array(mask)) if not mask.all() else s
        idj = ids.filter(pa.array(mask)) if not mask.all() else ids
        var = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(sj, 0, j),
            pc.utf8_slice_codeunits(sj, j + 1, big), "",
        )
        emit(var, idj, sj)
    if not chunks:
        return pa.table({
            "vh": pa.array([], pa.int64()),
            "_id": pa.array([], ids.type), "_s": pa.array([], pa.string()),
            "_side": pa.array([], pa.int8()),
        })
    out = pa.concat_tables(chunks)
    # dedupe (vh, _id): deleting any position inside a repeated-char run
    # yields the SAME variant (zero-padded keys repeat zeros!), and the
    # duplicates multiply BOTH sides of every candidate bucket — a 5x
    # per-side duplication is a 25x merge blowup. One hash groupby here
    # keeps the exchange and the candidate merge at unique variants.
    g = out.group_by(["vh", "_id"]).aggregate(
        [("_s", "min"), ("_side", "min")])
    return pa.table({
        "vh": g.column("vh"), "_id": g.column("_id"),
        "_s": g.column("_s_min"), "_side": g.column("_side_min"),
    })


def _ed_le1_mask(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Vectorized exact ed<=1 over candidate pairs (the hot verify path —
    blocking on zero-padded / low-entropy keys yields candidates at
    ed<=2, often 100x the match count, so a Python per-pair loop here
    dominated the join wall clock). CODEPOINT-level (numpy 'U' is UTF-32;
    one fixed-width conversion per side, everything after is uint32
    matrix arithmetic), matching pyarrow's slicing
    and SQL levenshtein. Keys must not contain NUL codepoints (zero is
    the pad)."""
    n = len(sa)
    if n == 0:
        return np.zeros(0, dtype=bool)
    ua = sa.astype("U")  # one scan; max width = dtype itemsize
    ub = sb.astype("U")
    w = max(ua.dtype.itemsize, ub.dtype.itemsize, 4) // 4 + 2
    ua = ua.astype(f"U{w}")
    ub = ub.astype(f"U{w}")
    la = np.char.str_len(ua).astype(np.int64)
    lb = np.char.str_len(ub).astype(np.int64)
    A = np.frombuffer(np.ascontiguousarray(ua),
                      dtype=np.uint32).reshape(n, w)
    B = np.frombuffer(np.ascontiguousarray(ub),
                      dtype=np.uint32).reshape(n, w)
    out = np.zeros(n, dtype=bool)

    same = la == lb
    if same.any():
        # equal length: <= 1 substitution (padding matches beyond len).
        # One full-width compare, NO boolean-fancy-index copies of the
        # big matrices — this host faults fresh pages at ~5 MB/s cold, so
        # every avoided allocation is wall clock.
        out = same & ((A != B).sum(axis=1) <= 1)

    d1 = np.abs(la - lb) == 1
    if d1.any():
        # orient: X longer by one, Y shorter; delete X's codepoint at the
        # FIRST mismatch (the only viable ed-1 deletion alignment) and
        # compare the remainder in one gathered pass
        Ad, Bd = A[d1], B[d1]
        swap = (lb > la)[d1]
        X = np.where(swap[:, None], Bd, Ad)
        Y = np.where(swap[:, None], Ad, Bd)
        p = (X != Y).argmax(axis=1)  # lengths differ => mismatch exists
        cols = np.arange(w - 1)
        idx = cols[None, :] + (cols[None, :] >= p[:, None])
        X2 = np.take_along_axis(X, idx, axis=1)
        out[d1] = (X2 == Y[:, : w - 1]).all(axis=1)
    return out


def fuzzy_join_ed1(left, left_id: str, left_col: str,
                   right, right_id: str, right_col: str,
                   num_partitions: int = 64):
    """All (left, right) row pairs whose string columns are within edit
    distance 1 (codeunit-level; exact on ASCII keys). Output columns are
    ``left_id`` and ``right_id`` — pass distinct names. Null strings never
    match (SQL semantics). Returns a Dataset of DISTINCT id pairs."""
    if left_id == right_id:
        raise ValueError("left_id and right_id must be distinct names")
    from ..stages.partition import keyed_map_groups

    lv = left.map_batches(
        lambda t: _deletion_variants(t, left_id, left_col, 0),
        batch_format="pyarrow", batch_size=None,
    )
    rv = right.map_batches(
        lambda t: _deletion_variants(t, right_id, right_col, 1),
        batch_format="pyarrow", batch_size=None,
    )

    def verify(g):  # pandas partition: vh, _id, _s, _side
        import pandas as pd

        l = g[g["_side"] == 0]
        r = g[g["_side"] == 1]
        if l.empty or r.empty:
            return pd.DataFrame({left_id: pd.Series([], dtype="int64"),
                                 right_id: pd.Series([], dtype="int64")})
        # candidate generation on INTS only (vh, ids): the merge can be
        # 100x the match count, so the object strings join in AFTER the
        # pair dedup, via each id's single string
        cand = l[["vh", "_id"]].merge(
            r[["vh", "_id"]], on="vh", suffixes=("_l", "_r"))
        cand = cand.drop_duplicates(["_id_l", "_id_r"])
        smap_l = l.drop_duplicates("_id").set_index("_id")["_s"]
        smap_r = r.drop_duplicates("_id").set_index("_id")["_s"]
        ok = _ed_le1_mask(
            cand["_id_l"].map(smap_l).to_numpy(),
            cand["_id_r"].map(smap_r).to_numpy())
        hit = cand[ok]
        return pd.DataFrame({
            left_id: hit["_id_l"].astype("int64").to_numpy(),
            right_id: hit["_id_r"].astype("int64").to_numpy(),
        })

    verify.__name__ = "fuzzy_verify"
    pairs = keyed_map_groups(lv.union(rv), "vh", verify,
                             num_partitions=num_partitions)

    # pairs sharing several variants land in several partitions: global
    # distinct — but NOT via Ray groupby on the pair columns (measured
    # 77 s for 725k pairs: high-cardinality keys degenerate). One bounded
    # exchange on a pair hash, then a per-partition C++ hash groupby.
    from .sketch import _splitmix64

    def pair_hash(t: pa.Table) -> pa.Table:
        l = t.column(left_id).to_numpy(zero_copy_only=False).astype(
            np.int64).view(np.uint64)
        r = t.column(right_id).to_numpy(zero_copy_only=False).astype(
            np.int64).view(np.uint64)
        h = _splitmix64(l + np.uint64(0x9E3779B97F4A7C15) * r)
        return t.append_column("_ph", pa.array(h.view(np.int64)))

    pair_hash.__name__ = "pair_hash"

    def dedupe(t: pa.Table) -> pa.Table:
        return t.group_by([left_id, right_id]).aggregate([])

    dedupe.__name__ = "pair_distinct"
    hashed = pairs.map_batches(pair_hash, batch_format="pyarrow",
                               batch_size=None)
    return keyed_map_groups(hashed, "_ph", dedupe,
                            num_partitions=num_partitions,
                            batch_format="pyarrow")
