"""Unit tests for the training-data function suite on crafted corpora
(near-dups that actually exist, unlike the random driver testdata)."""

import numpy as np
import pyarrow as pa
import pytest

from gobblin_ray.functions import dedup as dd
from gobblin_ray.functions import multimodal as mm
from gobblin_ray.functions import text as tx
from gobblin_ray.functions.similarity import _normalize


BASE = (
    "the quick brown fox jumps over the lazy dog while the sly cat "
    "watches from the fence and the birds sing in the morning light "
    "over the quiet village where people go about their daily work"
)


def near_dup_corpus() -> pa.Table:
    docs = [
        BASE,
        BASE + " extra tail words here",  # near-dup of 0
        BASE.replace("quick", "swift"),  # near-dup of 0
        "completely different content about spark sql query engines and "
        "vectorized execution with columnar formats and late materialization",
        "yet another unrelated document discussing distributed consensus "
        "protocols like raft and paxos with leader election and quorums",
        BASE,  # exact dup of 0
    ]
    return pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                     "text": pa.array(docs)})


def test_shingle_jaccard_sanity():
    a = dd._char_shingle_hashes(BASE, 5)
    b = dd._char_shingle_hashes(BASE + " extra tail", 5)
    c = dd._char_shingle_hashes("totally different text", 5)
    assert dd.jaccard(a, a) == 1.0
    assert dd.jaccard(a, b) > 0.8
    assert dd.jaccard(a, c) < 0.1


def test_minhash_signature_similarity_tracks_jaccard():
    h = dd.MinHasher()
    s1 = h.signature(BASE)
    s2 = h.signature(BASE + " extra tail words here")
    s3 = h.signature("completely different content entirely unrelated")
    sim12 = (s1 == s2).mean()
    sim13 = (s1 == s3).mean()
    assert sim12 > 0.7
    assert sim13 < 0.2


def test_minhash_banding_emits_rows():
    h = dd.MinHasher(num_perm=64, bands=16)
    out = h(near_dup_corpus())
    assert out.num_rows == 6 * 16
    assert set(out.column_names) == {"doc_id", "band", "band_hash"}


def test_dedup_minhash_removes_near_dups(ray_session):
    import ray.data as rd

    docs = rd.from_arrow(near_dup_corpus())
    kept = dd.dedup_minhash(docs, threshold=0.7, num_perm=64, bands=16, concurrency=2)
    ids = sorted(r["doc_id"] for r in kept.take_all())
    # cluster {0,1,2,5} -> keep 0; singletons 3,4 kept
    assert ids == [0, 3, 4]


def test_dedup_minhash_byte_gate_joins_same_result(ray_session):
    """With a 1-byte broadcast budget the verify stage must fall to the
    partitioned-join attach path and still produce identical survivors."""
    import ray.data as rd

    docs = rd.from_arrow(near_dup_corpus())
    kept = dd.dedup_minhash(
        docs, threshold=0.7, num_perm=64, bands=16, concurrency=2,
        broadcast_bytes_limit=1,
    )
    ids = sorted(r["doc_id"] for r in kept.take_all())
    assert ids == [0, 3, 4]


def test_dedup_ngram_jaccard_removes_near_dups(ray_session):
    import ray.data as rd

    docs = rd.from_arrow(near_dup_corpus())
    kept = dd.dedup_ngram_jaccard(
        docs, threshold=0.7, k_anchors=4, shingle_k=5, concurrency=2
    )
    ids = sorted(r["doc_id"] for r in kept.take_all())
    # same ground truth as MinHash: cluster {0,1,2,5} -> keep 0; 3,4 kept
    assert ids == [0, 3, 4]


def test_bottomk_anchor_recall_on_planted(ray_session):
    """Blocking recall: every within-cluster pair of the planted fixture
    must surface as a candidate (anchors shared)."""
    import ray.data as rd

    from gobblin_ray import fixtures as fx

    ds = rd.read_parquet(fx.planted_neardup())
    pairs = {(r["a"], r["b"]) for r in dd.bottomk_shingle_pairs(
        ds, k_anchors=4, concurrency=2
    ).take_all()}
    assert {(0, 1), (0, 2), (3, 4)} <= pairs


def test_simhash_hamming_near_dups(ray_session):
    import ray.data as rd

    docs = rd.from_arrow(near_dup_corpus())
    pairs = dd.simhash_candidates(docs, concurrency=2).take_all()
    got = {(r["a"], r["b"]) for r in pairs}
    assert (0, 5) in got  # exact dup -> hamming 0
    for a, b in got:
        assert a < b


def test_connected_components_label_propagation(ray_session):
    import ray.data as rd

    pairs = rd.from_items([{"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 7, "b": 9}])
    comp = dd.connected_components(pairs)
    assert comp[1] == comp[2] == comp[3] == 1
    assert comp[9] == 7 and comp[7] == 7


def test_connected_components_chain(ray_session):
    """A path graph needs label flow across multiple propagation rounds."""
    import ray.data as rd

    pairs = rd.from_items([{"a": i, "b": i + 1} for i in range(10, 18)])
    comp = dd.connected_components(pairs)
    assert all(comp[i] == 10 for i in range(10, 19))


def test_simhash_skewed_bucket_bounded(ray_session):
    """Regression (round-1 gap): 1000 identical texts collapse into one
    chunk bucket; pair-gen must stay O(n*W), not O(n^2), and the dup chain
    must still connect (adjacent identical fingerprints pair up)."""
    import ray.data as rd

    n = 1000
    texts = [""] * n + [BASE]
    t = pa.table({"doc_id": pa.array(range(n + 1), pa.int64()),
                  "text": pa.array(texts)})
    pairs = dd.simhash_candidates(rd.from_arrow(t), concurrency=2).take_all()
    # Window pair-gen emits <= 4 chunks * W * n pairs, far below n^2/2.
    assert 0 < len(pairs) <= 4 * dd._SIMHASH_WINDOW * (n + 1)
    comp = dd.connected_components(
        rd.from_items([{"a": r["a"], "b": r["b"]} for r in pairs])
    )
    assert all(comp.get(i, i) == 0 for i in range(n))  # one dup cluster


def test_dedup_exact_by_hash_min_id(ray_session):
    import ray.data as rd

    t = pa.table(
        {
            "doc_id": pa.array([5, 3, 9, 1, 7], pa.int64()),
            "text": pa.array(["x", "y", "x", "x", "y"]),
        }
    )
    kept = dd.dedup_exact_by_hash(rd.from_arrow(t), "text", "doc_id").take_all()
    got = sorted((r["text"], r["doc_id"]) for r in kept)
    assert got == [("x", 1), ("y", 3)]


def test_embedding_dup_pairs_finds_planted_dup(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((50, 16)).astype(np.float32)
    vecs[7] = vecs[3] + rng.standard_normal(16).astype(np.float32) * 0.01  # planted dup
    t = pa.table(
        {
            "vec_id": pa.array(range(50), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in vecs],
                                  pa.list_(pa.float32())),
        }
    )
    pairs = dd.embedding_dup_pairs(
        rd.from_arrow(t), dim=16, threshold=0.95, n_planes=6, concurrency=2
    ).take_all()
    assert any(r["a"] == 3 and r["b"] == 7 for r in pairs)


def test_knn_brute_force_exact(ray_session):
    import ray.data as rd

    from gobblin_ray.functions.similarity import knn_brute_force

    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((200, 8)).astype(np.float64)
    t = pa.table(
        {
            "vec_id": pa.array(range(200), pa.int64()),
            "embedding": pa.array([list(v) for v in vecs], pa.list_(pa.float64())),
        }
    )
    q = vecs[:2]
    got = knn_brute_force(
        rd.from_arrow(t), q, k=5, exclude_ids={0: 0, 1: 1}
    ).take_all()
    # numpy oracle
    nv = _normalize(vecs)
    for qid in (0, 1):
        scores = nv @ nv[qid]
        scores[qid] = -np.inf
        want = np.lexsort((np.arange(200), -scores))[:5]
        mine = [r["vec_id"] for r in got if r["query_id"] == qid]
        assert mine == list(want), f"q{qid}: {mine} vs {list(want)}"


def test_quality_features_values():
    fn = tx.quality_features("text")
    t = fn(pa.table({"text": ["Hello World 123", ""]}))
    assert t.column("n_tokens").to_pylist() == [3, 1]
    assert t.column("n_chars_calc").to_pylist() == [15, 0]
    ar = t.column("alpha_ratio").to_pylist()
    assert abs(ar[0] - 12 / 15) < 1e-9


def test_token_counts_match_split_semantics():
    fn = tx.token_count()
    t = fn(pa.table({"text": ["a b  c", "single"]}))
    # split on single space: "a b  c" -> ["a","b","","c"] = 4 (SQL parity)
    assert t.column("n_tokens").to_pylist() == [4, 1]


def test_fingerprinter_matches_hashlib():
    import hashlib

    fp = tx.Fingerprinter()
    t = fp(pa.table({"doc_id": [1], "text": ["MiXeD Case"]}))
    assert t.column("fingerprint")[0].as_py() == hashlib.md5(b"mixed case").hexdigest()


def test_langid_on_real_stopwords():
    lid = tx.LangId()
    t = lid(
        pa.table(
            {
                "text": [
                    "the cat and the dog went to the park for a walk in the sun",
                    "der Hund ist nicht mit der Katze und das ist ein Problem",
                ]
            }
        )
    )
    assert t.column("lang_pred").to_pylist() == ["en", "de"]


def test_media_decode_roundtrip():
    t = mm.synth_media(16)
    dec = mm.MediaDecoder()
    out = dec(t)
    assert out.column("decode_ok").to_pylist() == [True] * 16
    assert out.column("dec_width").to_pylist() == t.column("width").to_pylist()
    assert out.column("dec_height").to_pylist() == t.column("height").to_pylist()
    assert "payload" not in out.column_names


def test_media_strict_mode_documents_stub():
    with pytest.raises(NotImplementedError):
        mm.MediaDecoder(strict=True)
    with pytest.raises(NotImplementedError):
        mm.frame_sample_stub()


def test_image_resizer_fixed_output():
    import numpy as np

    t = mm.synth_media(16)
    rs = mm.ImageResizer(out_w=8, out_h=8)
    out = rs(t)
    assert out.column("resize_ok").to_pylist() == [True] * 16
    assert "payload" not in out.column_names
    for thumb in out.column("thumb").to_pylist():
        assert len(thumb) == 64  # fixed-size rows regardless of source dims
    # Nearest-neighbor from a known image: resize of a constant image is
    # constant; resize preserves a row gradient's endpoints.
    img = np.tile(np.arange(16, dtype=np.uint8)[:, None], (1, 10))  # 16x10
    small = rs._resize(img)
    assert small.shape == (8, 8)
    assert small[0, 0] == 0 and small[-1, 0] == 14  # rows 0, 2, ..., 14
    with pytest.raises(NotImplementedError):
        mm.ImageResizer(strict=True)


def test_resize_pipeline(ray_session):
    import ray.data as rd

    out = mm.resize_pipeline(rd.from_arrow(mm.synth_media(64)), concurrency=2)
    df = out.to_pandas()
    assert len(df) == 64 and df["resize_ok"].all()
    assert (df["thumb_luma"] > 0).all()


def test_byte_histogram_normalized():
    t = mm.synth_media(4)
    out = mm.ByteHistogram()(t)
    for row in out.column("byte_hist").to_pylist():
        assert abs(sum(row) - 1.0) < 1e-9


def test_suggest_batch_size_bounds():
    assert mm.suggest_batch_size(100_000) >= 16
    assert mm.suggest_batch_size(1) <= 64 * 2**20


def test_media_decode_pipeline(ray_session):
    import ray.data as rd

    out = mm.decode_pipeline(rd.from_arrow(mm.synth_media(64)), concurrency=2)
    df = out.to_pandas()
    assert len(df) == 64 and df["decode_ok"].all()


def test_frame_sampler_stride_and_rows(ray_session):
    """1:N frame sampling: per-video row fan-out matches the stride/cap
    policy; frame features come from the decoded frames."""
    import ray.data as rd

    vids = mm.synth_video(24)
    out = mm.frame_sample_pipeline(
        rd.from_arrow(vids), stride=4, max_frames=8, concurrency=2
    ).to_pandas()
    # Recompute expected per-video sample counts from the container header.
    import numpy as np

    for mid, payload in zip(vids.column("media_id").to_pylist(),
                            vids.column("payload").to_pylist()):
        n_frames = int.from_bytes(payload[8:12], "big")
        want = min(len(range(0, n_frames, 4)), 8)
        got = out[out["media_id"] == mid]
        assert len(got) == want
        assert list(got["frame_index"]) == [4 * j for j in range(want)]
    assert (out["frame_width"] > 0).all() and (out["mean_luma"] >= 0).all()


def test_frame_sampler_strict_documents_stub():
    with pytest.raises(NotImplementedError):
        mm.FrameSampler(strict=True)


def test_knn_ivf_probe_all_matches_brute_force(ray_session):
    """IVF with nprobe == n_cells probes everything, so it must reproduce
    exact brute-force top-k; with nprobe=1 it returns a (possibly lossy)
    subset scored identically."""
    import ray.data as rd

    from gobblin_ray.functions import similarity as sim

    rng = np.random.default_rng(11)
    vecs = rng.standard_normal((200, 16))
    t = pa.table({
        "vec_id": pa.array(range(200), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float64())),
    })
    q = vecs[:2]
    C = sim.kmeans_fit(vecs[:64], n_cells=8)
    ivf_all = sim.knn_ivf(
        rd.from_arrow(t), q, C, k=5, nprobe=8, concurrency=2
    ).take_all()
    brute = sim.knn_brute_force(rd.from_arrow(t), q, k=5).take_all()
    key = lambda r: (r["query_id"], r["vec_id"], round(r["score"], 9))  # noqa: E731
    assert sorted(map(key, ivf_all)) == sorted(map(key, brute))
    # deterministic fit: same sample -> same centroids
    assert np.array_equal(C, sim.kmeans_fit(vecs[:64], n_cells=8))
    # nprobe=1 scores form a subset of the full candidate relation
    ivf_1 = sim.knn_ivf(rd.from_arrow(t), q, C, k=5, nprobe=1,
                        concurrency=2).take_all()
    assert 0 < len(ivf_1) <= len(brute)


def test_connected_components_nonconvergence_raises(ray_session):
    """Exhausting max_rounds must raise (silent inconsistent labels would
    mean unobservable under-dedup), and enough rounds must succeed."""
    import ray.data as rd

    pairs = rd.from_items([{"a": i, "b": i + 1} for i in range(20, 26)])
    with pytest.raises(RuntimeError, match="did not converge"):
        dd.connected_components(pairs, max_rounds=1)
    comp = dd.connected_components(pairs, max_rounds=20)
    assert all(comp[i] == 20 for i in range(20, 27))


def test_redact_pii_patterns():
    t = pa.table({"text": [
        "mail bob@x.co or b.smith+tag@sub.domain.org now",
        "call 555-123-4567 / +1 555 123 4567 / (555) 123 4567",
        "host 192.168.0.1 but not v1.2.3.4 (no word boundary)",
        "ssn 123-45-6789",
        None,
    ]})
    out = tx.redact_pii("text")(t).column("text").to_pylist()
    assert out[0] == "mail <EMAIL> or <EMAIL> now"
    assert out[1].count("<PHONE>") == 3
    assert "<IPV4>" in out[2] and "v1.2.3.4" in out[2]
    assert out[3] == "ssn <SSN>"
    assert out[4] is None
    # kinds filter: only emails touched
    out2 = tx.redact_pii("text", kinds=["email"])(t).column("text").to_pylist()
    assert "<EMAIL>" in out2[0] and "555-123-4567" in out2[1]


def test_canonicalize_url_rules():
    cases = {
        "HTTPS://Site.COM/Path/?utm_source=a&q=1#f": "https://site.com/Path?q=1",
        "https://a.b/c/d/": "https://a.b/c/d",
        "http://H.io/?utm_x=1": "http://h.io/",
        "https://x.y/p?a=1&utm_z=2": "https://x.y/p?a=1",
        # interior utm param: neighbors keep their own delimiters
        # (regression: a blanket '?' substitution made this '?a=1?b=3')
        "https://x.y/p?a=1&utm_z=2&b=3": "https://x.y/p?a=1&b=3",
        "https://x.y/p?utm_a=1&utm_b=2&q=3": "https://x.y/p?q=3",
        "https://x.y/p?utm_a=1&utm_b=2": "https://x.y/p",
        "https://root.io/": "https://root.io/",
        "not a url": "not a url",
    }
    t = pa.table({"url": list(cases)})
    got = tx.canonicalize_url("url")(t).column("url").to_pylist()
    assert got == list(cases.values())


def test_dedup_exact_incremental_cross_run(ray_session, tmp_path):
    """Cross-run dedup against the persistent hash index: run 2 keeps only
    never-seen texts; an identical run 3 keeps nothing; the index files
    are content-fingerprinted (a replayed run rewrites identical files,
    no duplicates)."""
    import os

    import ray.data as rd

    idx = str(tmp_path / "idx")
    t1 = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["alpha", "beta", "alpha"]),  # within-run dup too
    })
    out1 = dd.dedup_exact_incremental(
        rd.from_arrow(t1), idx, num_partitions=4
    ).materialize()
    assert sorted(r["doc_id"] for r in out1.take_all()) == [0, 1]
    t2 = pa.table({
        "doc_id": pa.array([10, 11, 12], pa.int64()),
        "text": pa.array(["alpha", "gamma", "beta"]),
    })
    out2 = dd.dedup_exact_incremental(
        rd.from_arrow(t2), idx, num_partitions=4
    ).materialize()
    assert [r["text"] for r in out2.take_all()] == ["gamma"]
    # replaying run 2 contributes nothing new (index remembers gamma)
    out3 = dd.dedup_exact_incremental(
        rd.from_arrow(t2), idx, num_partitions=4
    ).materialize()
    assert out3.count() == 0
    files = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(idx) for f in fs
    )
    assert files and all(f.endswith(".parquet") for f in files)


def test_dedup_incremental_double_consumption(ray_session, tmp_path):
    """Consuming the LAZY returned dataset twice must yield the same rows:
    the membership check reads a driver-time snapshot of the prior index,
    so a re-execution can't see this run's own index write and silently
    drop everything as 'already seen'."""
    import ray.data as rd

    idx = str(tmp_path / "idx2")
    t = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["alpha", "beta"]),
    })
    out = dd.dedup_exact_incremental(rd.from_arrow(t), idx, num_partitions=2)
    first = sorted(r["doc_id"] for r in out.take_all())   # executes + writes
    second = sorted(r["doc_id"] for r in out.take_all())  # re-executes
    assert first == second == [0, 1]


# ---------------------------------------------------------------- KMV sketch

def test_kmv_saturated_is_exact(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from gobblin_ray.functions.sketch import approx_distinct

    rng = np.random.default_rng(2)
    vals = rng.integers(0, 700, 20_000)  # 700 possible < k
    ds = rd.from_arrow(pa.table({"x": pa.array(vals)})).repartition(8)
    est = approx_distinct(ds, "x", k=4096)
    assert est == float(pd.Series(vals).nunique())


def test_kmv_estimation_regime(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gobblin_ray.functions.sketch import approx_distinct

    n = 200_000  # distinct ints >> k -> estimation regime
    ds = rd.from_arrow(pa.table({"x": pa.array(np.arange(n))})).repartition(8)
    est = approx_distinct(ds, "x", k=1024)
    # deterministic hash -> deterministic estimate; rse ~ 1/sqrt(k-2) = 3.1%
    assert abs(est / n - 1.0) < 0.10, est


def test_kmv_string_column_and_merge_parity(ray_session):
    """The distributed bottom-k must equal a single-pass numpy bottom-k
    over the same hashes (merge plumbing loses nothing), and string keys
    hash through the engine's buffer hash."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gobblin_ray.functions.sketch import (
        approx_distinct, hash_column_u64, kmv_estimate,
    )

    vals = [f"user-{i % 5000}" for i in range(30_000)]
    col = pa.array(vals, pa.string())
    ds = rd.from_arrow(pa.table({"x": col})).repartition(7)
    est = approx_distinct(ds, "x", k=512)
    h = np.unique(hash_column_u64(col))
    want = kmv_estimate(h[:512], 512)
    assert est == want


# ------------------------------------------------------------ exact quantiles

def test_exact_quantiles_matches_numpy(ray_session):
    """Linear-interpolation parity with np.quantile, including heavy
    duplicates (degenerate bins) and a tiny collect threshold that forces
    several refinement rounds."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gobblin_ray.functions.quantiles import exact_quantiles

    rng = np.random.default_rng(5)
    v = np.concatenate([
        rng.standard_normal(20_000) * 100,
        np.full(5_000, 42.0),          # heavy duplicate spike
        rng.uniform(-1e6, 1e6, 5_000),
    ])
    ds = rd.from_arrow(pa.table({"value": pa.array(v)})).repartition(8)
    qs = [0.0, 0.1, 0.5, 0.42, 0.9, 0.999, 1.0]
    got = exact_quantiles(ds, "value", qs, B=64, collect_threshold=500)
    want = np.quantile(v, qs)  # default linear == quantile_cont
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_exact_quantiles_excludes_nans(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gobblin_ray.functions.quantiles import exact_quantiles

    v = np.array([1.0, np.nan, 3.0, np.nan, 2.0])
    ds = rd.from_arrow(pa.table({"value": pa.array(v)}))
    got = exact_quantiles(ds, "value", [0.5], B=8, collect_threshold=2)
    assert got == [2.0]


# ------------------------------------------------------------- real codecs

def test_pnm_codec_roundtrip_and_comments():
    import numpy as np

    from gobblin_ray.functions.multimodal import AutoCodec, PnmCodec

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (13, 27), dtype=np.uint8)
    pgm = PnmCodec.encode_pgm(img)
    assert pgm.startswith(b"P5\n27 13\n255\n")
    np.testing.assert_array_equal(PnmCodec().decode(pgm), img)
    # header comments (valid Netpbm) must parse
    commented = b"P5\n# made by a test\n27 13\n# sizes above\n255\n" + img.tobytes()
    np.testing.assert_array_equal(PnmCodec().decode(commented), img)
    # P6 decodes to exact channel-mean luminance
    rgb = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
    lum = PnmCodec().decode(PnmCodec.encode_ppm(rgb))
    np.testing.assert_allclose(lum, rgb.astype(np.float64).mean(axis=2))
    # AutoCodec sniffs real PNM vs the legacy fake format; unknown raises
    np.testing.assert_array_equal(AutoCodec().decode(pgm), img)
    with pytest.raises(NotImplementedError):
        AutoCodec().decode(b"\x89PNG\r\n\x1a\n....")


def test_wav_codec_roundtrip_and_features():
    import numpy as np

    from gobblin_ray.functions.multimodal import WavCodec

    rng = np.random.default_rng(8)
    x = rng.integers(-3000, 3000, 4321).astype(np.int16)
    payload = WavCodec.encode(x, 16_000)
    assert payload[:4] == b"RIFF" and payload[8:12] == b"WAVE"  # real RIFF
    y, rate = WavCodec().decode(payload)
    assert rate == 16_000
    np.testing.assert_array_equal(y, x)


def test_heavy_hitters_saturated_is_exact(ray_session):
    """Distinct <= k: the MG sketch never prunes — counts are exact, err=0,
    and the top-n matches a full groupby count."""
    import pandas as pd
    import ray.data as rd

    from gobblin_ray.functions.sketch import heavy_hitters

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 200, 20_000)
    ds = rd.from_arrow(pa.table({"u": pa.array(vals, pa.int64())})).repartition(8)
    got = heavy_hitters(ds, "u", k=1024, top_n=10).to_pandas()
    want = (
        pd.Series(vals).value_counts().rename_axis("u").reset_index(name="n")
        .sort_values(["n", "u"], ascending=[False, True]).head(10)
        .reset_index(drop=True)
    )
    assert (got["err"] == 0).all()
    assert list(got["value"]) == list(want["u"])
    assert list(got["n"]) == list(want["n"])


def test_heavy_hitters_pruned_error_bound(ray_session):
    """Pruned regime (distinct >> k): every reported count is within
    [true - err, true], err <= n_total/k, and a true heavy item
    (freq > n/k) is never evicted — the MG guarantee."""
    import pandas as pd
    import ray.data as rd

    from gobblin_ray.functions.sketch import heavy_hitters

    rng = np.random.default_rng(5)
    n_total = 50_000
    # one planted heavy hitter (10%) over a long uniform tail
    tail = rng.integers(1000, 9000, n_total)
    heavy = np.full(n_total // 10, 7, dtype=np.int64)
    vals = np.concatenate([tail, heavy])
    rng.shuffle(vals)
    k = 64
    ds = rd.from_arrow(pa.table({"u": pa.array(vals, pa.int64())})).repartition(8)
    got = heavy_hitters(ds, "u", k=k, top_n=5).to_pandas()
    true = pd.Series(vals).value_counts()
    err = int(got["err"].iloc[0])
    assert 0 < err <= len(vals) // k + 1
    assert 7 in set(got["value"])  # freq 10% >> n/k: must survive
    for _, r in got.iterrows():
        t = int(true.get(r["value"], 0))
        assert t - err <= r["n"] <= t


def test_heavy_hitters_logs_no_arrow_conversion_error(ray_session, capfd):
    """The Misra-Gries state is an Arrow value, so Ray Data's workers do
    not fall back to pickling it and log no ArrowConversionError (int
    keys: a value-keyed dict is no Arrow struct). Worker output reaches
    the driver through Ray's log monitor; a task printing a marker after
    the aggregation bounds the wait for it."""
    import time

    import ray
    import ray.data as rd

    from gobblin_ray.functions.sketch import heavy_hitters

    vals = np.repeat(np.arange(10, dtype=np.int64), np.arange(1, 11))
    ds = rd.from_arrow(pa.table({"u": vals})).repartition(4)
    got = heavy_hitters(ds, "u", k=4, top_n=2)
    assert got.column("value").to_pylist()[0] == 9

    @ray.remote
    def marker():
        print("heavy-hitters-log-marker", flush=True)

    ray.get(marker.remote())
    seen = ""
    deadline = time.time() + 30
    while "heavy-hitters-log-marker" not in seen and time.time() < deadline:
        time.sleep(0.2)
        out, err = capfd.readouterr()
        seen += out + err
    assert "heavy-hitters-log-marker" in seen
    assert "ArrowConversionError" not in seen


def test_repetition_signals_crafted():
    """Hand-checkable repetition fractions on crafted docs + parity with a
    brute-force Python gram counter on random repetitive text."""
    from collections import Counter

    from gobblin_ray.functions.text import repetition_signals

    docs = [
        "a a a b",                 # uni 3/4; bigrams [aa,aa,ab] -> 2/3; tri [aaa,aab] dup 0
        "x y x y x y",             # uni 3/6; bigrams xy,yx,xy,yx,xy -> 3/5; tris all dup: 4/4
        "all distinct tokens here now",  # 1/5, 1/4, 0
    ]
    t = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    out = repetition_signals("text")(t)
    assert out.column("top_unigram_frac").to_pylist() == [3 / 4, 3 / 6, 1 / 5]
    assert out.column("top_bigram_frac").to_pylist() == [2 / 3, 3 / 5, 1 / 4]
    assert out.column("dup_trigram_frac").to_pylist() == [0.0, 1.0, 0.0]

    rng = np.random.default_rng(6)
    texts = [
        " ".join(rng.choice(["a", "b", "c", "d", "e"], rng.integers(3, 40)))
        for _ in range(50)
    ]
    t = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = repetition_signals("text")(t)
    for i, s in enumerate(texts):
        w = s.split(" ")
        uni = Counter(w)
        bi = Counter(zip(w, w[1:]))
        tri = Counter(zip(w, w[1:], w[2:]))
        assert out.column("top_unigram_frac")[i].as_py() == (
            max(uni.values()) / len(w)
        )
        assert out.column("top_bigram_frac")[i].as_py() == (
            (max(bi.values()) / (len(w) - 1)) if len(w) >= 2 else 0.0
        )
        dup = sum(c for c in tri.values() if c >= 2)
        assert out.column("dup_trigram_frac")[i].as_py() == (
            (dup / (len(w) - 2)) if len(w) >= 3 else 0.0
        )


def test_tfidf_top_terms_crafted(ray_session):
    """Known tf*ln(N/df) ranking on a crafted corpus."""
    import math

    import ray.data as rd

    from gobblin_ray.functions.text import tfidf_top_terms

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "apple apple banana",
            "banana cherry",
            "cherry cherry cherry date",
        ]),
    })
    out = (tfidf_top_terms(rd.from_arrow(t).repartition(2), k=2).to_pandas()
           .sort_values(["doc_id", "score", "term"],
                        ascending=[True, False, True]).reset_index(drop=True))
    # doc0: apple tf=2 df=1 -> 2*ln3; banana tf=1 df=2 -> ln1.5
    assert list(out[out.doc_id == 0]["term"]) == ["apple", "banana"]
    assert out[out.doc_id == 0]["score"].iloc[0] == round(2 * math.log(3), 4)
    # doc2: cherry tf=3 df=2 -> 3*ln1.5 ~ 1.2164 > date ln3 ~ 1.0986
    assert list(out[out.doc_id == 2]["term"]) == ["cherry", "date"]
    assert (out.groupby("doc_id").size() == 2).all()


def test_exact_quantiles_by_matches_duckdb(ray_session):
    """Per-group quantiles == quantile_cont per group (linear
    interpolation), incl. a single-row group."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from gobblin_ray.functions.quantiles import exact_quantiles_by

    rng = np.random.default_rng(15)
    df = pd.DataFrame({
        "g": list(rng.choice(["a", "b", "c"], 999)) + ["solo"],
        "v": rng.standard_normal(1000),
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(5)
    got = (exact_quantiles_by(ds, "g", "v", [0.25, 0.5, 0.99]).to_pandas()
           .sort_values(["g", "q"]).reset_index(drop=True))
    want = duckdb.sql(
        "SELECT * FROM ("
        "SELECT g, 0.25 AS q, quantile_cont(v, 0.25) AS qv FROM df GROUP BY g"
        " UNION ALL "
        "SELECT g, 0.5, quantile_cont(v, 0.5) FROM df GROUP BY g"
        " UNION ALL "
        "SELECT g, 0.99, quantile_cont(v, 0.99) FROM df GROUP BY g"
        ") ORDER BY g, q"
    ).df()
    pd.testing.assert_frame_equal(got, want)


def test_dedup_lines_matches_bruteforce(ray_session):
    """Random multi-line corpus: distributed line dedup == a sequential
    keep-first-instance replay (incl. within-doc dups and all-dup docs)."""
    import pandas as pd
    import ray.data as rd

    from gobblin_ray.functions.text import dedup_lines

    rng = np.random.default_rng(21)
    pool = [f"line {i}" for i in range(30)]  # small pool -> many collisions
    docs = []
    for d in range(60):
        k = rng.integers(1, 8)
        docs.append((d, "\n".join(rng.choice(pool, k))))
    t = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    })

    seen, want = set(), {}
    for d, text in docs:
        kept = []
        for line in text.split("\n"):
            if line not in seen:
                seen.add(line)
                kept.append(line)
        if kept:
            want[d] = "\n".join(kept)

    got = (
        dedup_lines(rd.from_arrow(t).repartition(7), num_partitions=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert dict(zip(got["doc_id"], got["text"])) == want


def test_profile_columns_with_nulls(ray_session):
    """Profiler counts nulls, exact distinct when saturated, min/max over
    non-null values only; string columns get null ranges."""
    import ray.data as rd

    from gobblin_ray.functions.profile import profile_columns

    t = pa.table({
        "a": pa.array([1, 2, 2, None, 5], pa.int64()),
        "s": pa.array(["x", None, "y", "x", None], pa.string()),
        "f": pa.array([1.5, -2.0, None, 1.5, 0.0], pa.float64()),
    })
    got = profile_columns(
        rd.from_arrow(t).repartition(3), ["a", "s", "f"], numeric=["a", "f"],
        k=64,
    ).to_pandas().set_index("col")
    assert got.loc["a", "n"] == 5 and got.loc["a", "n_null"] == 1
    assert got.loc["a", "n_distinct"] == 3
    assert (got.loc["a", "min_v"], got.loc["a", "max_v"]) == (1.0, 5.0)
    assert got.loc["s", "n_null"] == 2 and got.loc["s", "n_distinct"] == 2
    assert np.isnan(got.loc["s", "min_v"]) and np.isnan(got.loc["s", "max_v"])
    assert got.loc["f", "n_distinct"] == 3
    assert (got.loc["f", "min_v"], got.loc["f", "max_v"]) == (-2.0, 1.5)


def test_pack_sequences_bin_invariants(ray_session):
    """Contiguous packing invariants: bins are contiguous doc-id ranges in
    order; every bin except possibly the last STARTS below the budget
    boundary it fills; per-doc assignment matches a sequential replay."""
    import ray.data as rd

    from gobblin_ray.functions.text import pack_sequences

    rng = np.random.default_rng(17)
    texts = [" ".join(["w"] * int(n)) for n in rng.integers(5, 120, 200)]
    t = pa.table({
        "doc_id": pa.array(range(200), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    budget = 500
    got = (pack_sequences(rd.from_arrow(t).repartition(6), budget=budget)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    cum = 0
    for _, r in got.iterrows():
        assert r["bin_id"] == cum // budget
        cum += r["n_tokens"]
    # contiguity: bin ids are non-decreasing in doc order
    assert (np.diff(got["bin_id"].to_numpy()) >= 0).all()


def test_inverted_index_cap_and_exact_df(ray_session):
    """max_postings truncates posting lists to the first K doc ids while df
    stays exact; uncapped lists are complete and sorted."""
    import ray.data as rd

    from gobblin_ray.functions.text import build_inverted_index

    docs = [(i, "hot " + f"uniq{i}") for i in range(10)]
    t = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    })
    ds = rd.from_arrow(t).repartition(4)
    full = {r["term"]: r for r in
            build_inverted_index(ds, num_partitions=4).take_all()}
    assert full["hot"]["df"] == 10
    assert full["hot"]["postings"] == ",".join(map(str, range(10)))
    assert full["uniq3"]["postings"] == "3"

    capped = {r["term"]: r for r in
              build_inverted_index(ds, num_partitions=4,
                                   max_postings=3).take_all()}
    assert capped["hot"]["df"] == 10  # df exact despite truncation
    assert capped["hot"]["postings"] == "0,1,2"


def test_neardup_incremental_replay_drops_everything(ray_session, tmp_path):
    """After a run's survivors are indexed, replaying the SAME snapshot
    drops every doc (all are now near-dups of the index) — the crash/replay
    posture of the incremental contract; and a fresh variant of an indexed
    doc also drops."""
    import ray.data as rd

    from gobblin_ray.fixtures import planted_neardup_runs
    from gobblin_ray.functions.dedup import dedup_minhash_incremental

    import pyarrow.parquet as pq

    t = pq.read_table(planted_neardup_runs())
    run1 = pa.Table.from_pylist(
        [r for r in t.to_pylist() if r["run"] == 1]
    )
    index = str(tmp_path / "idx")
    kept1 = dedup_minhash_incremental(
        rd.from_arrow(run1).repartition(3), index
    ).to_pandas()
    assert set(kept1["doc_id"]) == {0, 2, 3, 4}  # within-run dup 1 dropped

    replay = dedup_minhash_incremental(
        rd.from_arrow(run1).repartition(2), index
    ).to_pandas()
    assert len(replay) == 0  # everything already indexed

    variant = pa.table({
        "doc_id": pa.array([99], pa.int64()),
        "text": pa.array(
            [run1.column("text")[0].as_py().replace("lazy", "sleepy")]
        ),
        "cluster_id": pa.array([0], pa.int64()),
        "run": pa.array([3], pa.int64()),
    })
    kept3 = dedup_minhash_incremental(
        rd.from_arrow(variant), index
    ).to_pandas()
    assert len(kept3) == 0  # near-dup of indexed doc 0


def test_decontaminate_span_semantics(ray_session):
    """Only docs containing a FULL k-token eval span drop: partial overlap
    (k-1 shared tokens), boundary-straddling mixes, and short docs all
    survive."""
    import ray.data as rd

    from gobblin_ray.functions.text import decontaminate

    ev = "e1 e2 e3 e4"  # k = 4: exactly one eval window
    docs = [
        (0, "a b " + ev + " c"),        # contains the full span -> drop
        (1, "a e1 e2 e3 b c d"),        # only 3 of 4 tokens -> keep
        (2, ev.replace("e4", "x4")),    # k-1 prefix only -> keep
        (3, "e1 e2"),                   # shorter than k -> keep
        (4, "clean text entirely"),     # -> keep
        (5, ev),                        # the eval text itself -> drop
    ]
    t = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    })
    kept = decontaminate(rd.from_arrow(t).repartition(3), [ev], k=4).to_pandas()
    assert sorted(kept["doc_id"]) == [1, 2, 3, 4]


def test_kll_sketch_estimation_rank_bound(ray_session):
    """Estimation regime (k << n): every estimated quantile's true RANK is
    within 2% of the requested rank; the distributed AggregateFn path and
    the sequential insert path both honor the bound."""
    import numpy as np
    import pandas as pd
    import ray

    from gobblin_ray.functions.sketch import approx_quantiles

    rng = np.random.default_rng(11)
    data = rng.normal(50.0, 20.0, 120_000)
    ds = ray.data.from_pandas(pd.DataFrame({"v": data})).repartition(16)
    qs = [0.1, 0.5, 0.9, 0.99]
    est = approx_quantiles(ds, "v", qs, k=512)
    srt = np.sort(data)
    for q, e in zip(qs, est):
        rank = np.searchsorted(srt, e) / len(srt)
        assert abs(rank - q) < 0.02, (q, e, rank)


def test_kll_sketch_saturated_is_exact(ray_session):
    """n <= k: no compaction fires, result == quantile_cont exactly."""
    import numpy as np
    import pandas as pd
    import ray

    from gobblin_ray.functions.sketch import approx_quantiles

    data = np.array([1.0, 3.0, 5.0, 7.0, 11.0])
    ds = ray.data.from_pandas(pd.DataFrame({"v": data})).repartition(3)
    got = approx_quantiles(ds, "v", [0.0, 0.25, 0.5, 1.0], k=64)
    assert got == [1.0, 3.0, 5.0, 11.0]


def test_diff_by_key_nulls_and_equal(ray_session):
    """Null-vs-value in a compare column is a mismatch; null-vs-null is
    equal; identical tables diff to empty."""
    import pandas as pd
    import ray

    from gobblin_ray.functions.profile import diff_by_key

    l = pd.DataFrame({
        "id": [1, 2, 3, 4],
        "v": [1.0, None, 3.0, None],
        "s": ["a", "b", "c", "d"],
    })
    r = pd.DataFrame({
        "id": [1, 2, 3, 5],
        "v": [1.0, 2.0, 3.0, 9.0],
        "s": ["a", "b", "x", "e"],
    })
    out = (
        diff_by_key(ray.data.from_pandas(l), ray.data.from_pandas(r),
                    "id", ["v", "s"])
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert list(out["id"]) == [2, 3, 4, 5]
    assert list(out["status"]) == [
        "mismatch", "mismatch", "left_only", "right_only",
    ]
    same = diff_by_key(
        ray.data.from_pandas(l), ray.data.from_pandas(l), "id", ["v", "s"]
    ).to_pandas()
    assert len(same) == 0


def test_strip_html_tags_entities_whitespace(ray_session):
    """script/style subtrees (with tags inside) drop whole, comments
    drop, entities unescape (amp last), whitespace collapses."""
    import ray.data as rd

    from gobblin_ray.functions.text import strip_html

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "html": pa.array([
            '<div><script>if (a<b) { x("<p>") }</script>Hi\n\n <b>there</b>'
            '<!-- note\nmultiline --></div>',
            "<style>a>b{x:1}</style>&amp;lt; stays &lt;escaped&gt;"
            " &quot;q&quot;&nbsp;&#39;s&#39;",
            "plain   text\twith\nspace",
        ]),
    })
    got = (rd.from_arrow(t)
           .map_batches(strip_html("html", "clean_text"),
                        batch_format="pyarrow", batch_size=None)
           .to_pandas().sort_values("doc_id")["clean_text"].tolist())
    # '&amp;lt;' -> '&lt;' (amp unescapes LAST so the result is the
    # literal entity text, not a double-unescape to '<')
    assert got == [
        "Hi there",
        '&lt; stays <escaped> "q" \'s\'',
        "plain text with space",
    ]


def test_pagerank_integer_semantics(ray_session):
    """Crafted graph: dangling node (no out-edges), zero-in-degree node,
    parallel edges, phantom src — vs a sequential integer reference."""
    import ray.data as rd

    from gobblin_ray.functions.graph import pagerank

    nodes = [0, 1, 2, 3, 4]  # 4 = no in-edges; 3 = dangling (no out)
    edges = [(0, 1), (0, 1), (0, 2), (1, 2), (2, 0), (4, 0), (9, 1)]
    S, K = 1_000_000_000, 3
    r = {v: S for v in nodes}
    for _ in range(K):
        s = {v: 0 for v in nodes}
        deg = {}
        for a, _b in edges:
            deg[a] = deg.get(a, 0) + 1
        for a, b in edges:
            if a in r and b in s:
                s[b] += r[a] // deg[a]
        r = {v: (S * 15) // 100 + (85 * s[v]) // 100 for v in nodes}
    got = pagerank(
        rd.from_arrow(pa.table({"node": pa.array(nodes, pa.int64())})),
        rd.from_arrow(pa.table({
            "src": pa.array([a for a, _ in edges], pa.int64()),
            "dst": pa.array([b for _, b in edges], pa.int64()),
        })).repartition(3),
        iterations=K, num_partitions=4,
    ).to_pandas().set_index("node")["pr"].to_dict()
    assert got == r


def test_mad_outliers_flags_and_nulls(ray_session):
    """Hampel flags the planted spike, not the bulk; a null value rides
    through with a null flag (SQL comparison-with-NULL semantics)."""
    import ray.data as rd

    from gobblin_ray.functions.quantiles import mad_outliers

    t = pa.table({
        "k": pa.array([1] * 9 + [1, 2, 2], pa.int64()),
        "id": pa.array(list(range(12)), pa.int64()),
        "v": pa.array([10.0, 11, 9, 10, 12, 8, 10, 11, 9, 1000.0,
                       5.0, None]),
    })
    import pandas as pd

    got = (mad_outliers(rd.from_arrow(t).repartition(3), "k", "v", k=3.0,
                        num_partitions=2)
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert bool(got.loc[9, "is_outlier"])           # the 1000.0 spike
    assert not got.loc[:8, "is_outlier"].any()      # bulk stays clean
    assert pd.isna(got.loc[11, "is_outlier"])       # null value -> null flag


def test_count_triangles_matches_brute_force(ray_session):
    """Triangle count on a random DIRTY edge list (duplicates, reversed
    copies, self-loops) == the O(n^3) brute force; empty graph -> 0."""
    import itertools

    import ray.data as rd

    from gobblin_ray.functions.graph import count_triangles

    rng = np.random.default_rng(77)
    n = 40
    base = rng.integers(0, n, size=(260, 2))
    dirty = np.concatenate([
        base,
        base[:, ::-1][:80],                 # reversed duplicates
        base[:50],                          # exact duplicates
        np.stack([np.arange(5), np.arange(5)], axis=1),  # self-loops
    ])
    edges = rd.from_arrow(pa.table({
        "a": pa.array(dirty[:, 0].astype(np.int64)),
        "b": pa.array(dirty[:, 1].astype(np.int64)),
    })).repartition(4)
    got = count_triangles(edges, num_partitions=7).take_all()[0]["triangles"]

    eset = {(min(a, b), max(a, b)) for a, b in dirty.tolist() if a != b}
    adj = {v: set() for v in range(n)}
    for a, b in eset:
        adj[a].add(b), adj[b].add(a)
    want = sum(
        1 for x, y, z in itertools.combinations(range(n), 3)
        if y in adj[x] and z in adj[x] and z in adj[y]
    )
    assert got == want and want > 0

    empty = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64())}))
    assert count_triangles(empty).take_all()[0]["triangles"] == 0


def test_badwords_filter_word_boundaries(ray_session):
    """Blocklisted words kill docs as whole tokens only; null text drops;
    regex metacharacters in the blocklist are escaped."""
    import ray.data as rd

    from gobblin_ray.functions.text import badwords_filter

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "a slow query", "slowly but surely", "nothing here",
            None, "c++ is fine",
        ], pa.string()),
    })
    kept = (rd.from_arrow(t)
            .map_batches(badwords_filter(("slow", "c++")),
                         batch_format="pyarrow", batch_size=None)
            .to_pandas())
    # 0 killed (token), 1 kept ('slowly' is not 'slow'), 3 (null) dropped.
    # 4 is KEPT: 'c++' is escaped (no regex repeat error at compile), but
    # \b cannot anchor after a non-word char — an inherent limit of
    # word-boundary blocklists for punctuation terms.
    assert kept["doc_id"].tolist() == [1, 2, 4]


def test_select_cluster_representatives_tiebreak_and_empty(ray_session):
    import ray.data as rd
    import pyarrow.compute as pc

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["aaaa", "bbbbbb", "cccc", "dd", "solo"], pa.string()),
    }))

    def length_score(sub):
        return pc.utf8_length(sub.column("text")).to_numpy(
            zero_copy_only=False).astype("float64")

    # cluster {0,1,2}: 1 wins on length; cluster {3}: none (singleton via
    # no pairs); tie between 0 and 2 would break to min id if 1 absent.
    pairs = rd.from_arrow(pa.table({
        "a": pa.array([0, 1], pa.int64()),
        "b": pa.array([1, 2], pa.int64()),
    }))
    kept = dd.select_cluster_representatives(docs, pairs, length_score)
    assert sorted(kept.to_pandas()["doc_id"]) == [1, 3, 4]

    # tie on score -> min id wins (0 vs 2, both length 4)
    pairs2 = rd.from_arrow(pa.table({
        "a": pa.array([0], pa.int64()),
        "b": pa.array([2], pa.int64()),
    }))
    kept2 = dd.select_cluster_representatives(docs, pairs2, length_score)
    assert sorted(kept2.to_pandas()["doc_id"]) == [0, 1, 3, 4]

    # no confirmed pairs -> identity
    empty = rd.from_arrow(pa.table({
        "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
    }))
    kept3 = dd.select_cluster_representatives(docs, empty, length_score)
    assert sorted(kept3.to_pandas()["doc_id"]) == [0, 1, 2, 3, 4]


def test_fk_audit_semantics(ray_session):
    """Orphan accounting: NULL FKs excluded (SQL constraint semantics),
    parent-only keys never count, duplicate child rows of one orphan key
    count as rows but one key, intact edge reports zero."""
    import ray.data as rd

    from gobblin_ray.functions.profile import fk_audit

    child = pa.table({"fk": pa.array([1, 1, 2, 3, None, 9, 9, 9],
                                     pa.int64())})
    parent = pa.table({"pk": pa.array([1, 2, 4, 5], pa.int64())})
    out = fk_audit(rd.from_arrow(child).repartition(3), "fk",
                   rd.from_arrow(parent).repartition(2), "pk", "c->p")
    r = out.to_pylist()[0]
    # non-null child rows: 7; orphans: fk=3 (1 row) + fk=9 (3 rows)
    assert r == {"edge": "c->p", "n_child": 7,
                 "n_orphan_rows": 4, "n_orphan_keys": 2}

    ok = fk_audit(rd.from_arrow(parent), "pk",
                  rd.from_arrow(parent), "pk", "self")
    assert ok.to_pylist()[0] == {
        "edge": "self", "n_child": 4, "n_orphan_rows": 0,
        "n_orphan_keys": 0}


def test_fuzzy_join_ed1_matches_bruteforce(ray_session):
    """Deletion-neighborhood blocking + exact verify reproduces the full
    brute-force DP edit-distance <= 1 pair set over random short strings
    (empty strings, dup strings, inserts/deletes/substitutions, nulls)."""
    import ray.data as rd

    from gobblin_ray.functions.fuzzy import fuzzy_join_ed1

    def ed(a, b):
        la, lb = len(a), len(b)
        d = np.arange(lb + 1)
        for i in range(1, la + 1):
            prev, d[0] = d[0], i
            for j in range(1, lb + 1):
                cur = min(d[j] + 1, d[j - 1] + 1,
                          prev + (a[i - 1] != b[j - 1]))
                prev, d[j] = d[j], cur
        return d[lb]

    rng = np.random.default_rng(11)
    alpha = np.array(list("abc"))

    def rand_str():
        n = int(rng.integers(0, 6))
        return "".join(rng.choice(alpha, n))

    ls = [rand_str() for _ in range(80)] + [None]
    rs = [rand_str() for _ in range(80)] + [None, ""]
    want = {(i, j) for i, a in enumerate(ls) for j, b in enumerate(rs)
            if a is not None and b is not None and ed(a, b) <= 1}

    left = rd.from_arrow(pa.table({
        "lid": pa.array(range(len(ls)), pa.int64()),
        "ls": pa.array(ls, pa.string())})).repartition(3)
    right = rd.from_arrow(pa.table({
        "rid": pa.array(range(len(rs)), pa.int64()),
        "rs": pa.array(rs, pa.string())})).repartition(4)
    out = fuzzy_join_ed1(left, "lid", "ls", right, "rid", "rs",
                         num_partitions=8).to_pandas()
    got = set(zip(out["lid"], out["rid"]))
    assert got == want and len(out) == len(got)


def test_constraint_kinds_and_null_semantics():
    """Spec validation + per-kind vectorized checks: nulls fail every
    kind, missing column fails all rows, exempt rows and already-failed
    rows are never re-annotated, first name in sorted order wins."""
    from gobblin_ray.constraints import (annotate_violations, validate_spec,
                                         _ok_mask)

    with pytest.raises(ValueError):
        validate_spec({"kind": "in_set", "column": "c", "values": []})
    with pytest.raises(ValueError):
        validate_spec({"kind": "range", "column": "c"})
    with pytest.raises(ValueError):
        validate_spec({"kind": "regex", "column": "c", "pattern": "("})

    t = pa.table({
        "v": pa.array([1, 5, None, 50], pa.int64()),
        "s": pa.array(["ok", "meh", None, "ok"], pa.string()),
    })
    assert list(_ok_mask({"kind": "not_null", "column": "v"}, t)) == \
        [True, True, False, True]
    assert list(_ok_mask({"kind": "range", "column": "v",
                          "lo": 0, "hi": 10}, t)) == \
        [True, True, False, False]
    assert list(_ok_mask({"kind": "in_set", "column": "s",
                          "values": ["ok"]}, t)) == \
        [True, False, False, True]
    assert list(_ok_mask({"kind": "regex", "column": "s",
                          "pattern": "^ok$"}, t)) == \
        [True, False, False, True]
    assert list(_ok_mask({"kind": "not_null", "column": "zzz"}, t)) == \
        [False] * 4

    err = np.array([None, "prior", None, None], dtype=object)
    exempt = np.array([False, False, True, False])
    out = annotate_violations(
        {"b_set": {"kind": "in_set", "column": "s", "values": ["ok"]},
         "a_range": {"kind": "range", "column": "v", "lo": 0, "hi": 10}},
        t, err, exempt)
    # row0 passes both; row1 keeps its prior reason; row2 exempt;
    # row3 fails both -> first sorted name (a_range) wins
    assert list(out) == [None, "prior", None, "constraint:a_range"]


def test_ssjoin_rejects_out_of_range_ids(ray_session):
    """The 2^40 id-offset trick is guarded: negative or >= 2^40 ids fail
    loudly instead of silently colliding across sides."""
    import ray.data as rd

    from gobblin_ray.functions.dedup import similarity_join_jaccard

    bad = rd.from_arrow(pa.table({
        "doc_id": pa.array([-1], pa.int64()),
        "text": pa.array(["abc def ghi jkl"], pa.string())}))
    ok = rd.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["abc def ghi jkl"], pa.string())}))
    with pytest.raises(Exception, match="2\\^40"):
        similarity_join_jaccard(bad, ok, concurrency=(1, 2)).count()


def test_bfs_distances_matches_brute_force(ray_session):
    """Multi-source BFS on a crafted directed graph vs a driver-side BFS:
    cycles, a node reachable two ways (min wins), an unreachable node, a
    source that is also reachable from another source (dist stays 0), and
    a max_depth cutoff."""
    import collections

    import ray.data as rd

    from gobblin_ray.functions.graph import bfs_distances

    edges = [(0, 1), (1, 2), (2, 0),        # cycle
             (1, 3), (3, 4), (0, 4),        # 4 reachable at dist 2 via 0
             (5, 6), (6, 5),                # separate cycle, src 5
             (4, 5),                        # bridges the two
             (7, 8)]                        # 7/8 unreachable from sources
    sources = [0, 5]

    def brute(max_depth):
        adj = collections.defaultdict(list)
        for s, t in edges:
            adj[s].append(t)
        dist = {s: 0 for s in sources}
        frontier = list(sources)
        for k in range(max_depth):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = k + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    e_ds = rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edges], pa.int64()),
        "dst": pa.array([b for _, b in edges], pa.int64()),
    }))
    s_ds = rd.from_arrow(pa.table({"node": pa.array(sources, pa.int64())}))

    for depth in (1, 2, 16):
        got = {r["node"]: r["dist"]
               for r in bfs_distances(e_ds, s_ds, max_depth=depth,
                                      num_partitions=3).take_all()}
        assert got == brute(depth), f"depth={depth}"
    full = brute(16)
    assert 7 not in full and 8 not in full  # unreachable stays absent
    assert full[5] == 0  # source beats the path through 4


def test_char_entropy_edge_cases():
    """Unit entropy values, null/empty text dropped (incl. the pc.all-
    ignores-nulls guard), unicode fallback path, sliced batches."""
    from gobblin_ray.functions.text import char_entropy

    f = char_entropy()
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["aaaa", "ab", "abcd", None, ""], pa.string()),
    })
    got = f(t).to_pydict()
    assert got == {"doc_id": [0, 1, 2], "h": [0.0, 1.0, 2.0]}
    # a slice whose window contains the null row must still drop it
    assert f(t.slice(1, 3)).to_pydict() == {"doc_id": [1, 2],
                                            "h": [1.0, 2.0]}
    # all-invalid batch -> typed empty
    e = f(t.slice(3, 2))
    assert e.num_rows == 0 and e.schema.names == ["doc_id", "h"]
    # non-ASCII batch takes the utf-32 fallback; 'héé' = {h:1, é:2}
    u = f(pa.table({"doc_id": pa.array([7], pa.int64()),
                    "text": pa.array(["héé"], pa.string())}))
    assert u.to_pydict()["h"] == [0.9183]
    # large_string has 64-bit offsets — the 32-bit buffer walk would
    # silently misparse it; must cast, not corrupt
    ls = f(pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                     "text": pa.array(["aaaa", "ab"], pa.large_string())}))
    assert ls.to_pydict() == {"doc_id": [0, 1], "h": [0.0, 1.0]}


def test_kmv_set_ops_regimes(ray_session):
    """kmv_set_ops: saturated regime is EXACT for every output; the
    estimation regime lands within the ~1/sqrt(k) KMV envelope; results
    are identical across block layouts (mergeable signature) and both
    coins agree in the saturated regime."""
    import ray.data as rd

    from gobblin_ray.functions.sketch import kmv_set_ops

    # saturated: 300 vs 280 distinct with 180 common, k large
    a = pa.table({"v": pa.array(list(range(0, 300)), pa.int64())})
    b = pa.table({"v": pa.array(list(range(120, 400)), pa.int64())})
    for coin in ("stable", "md5"):
        out = kmv_set_ops(rd.from_arrow(a).repartition(7),
                          rd.from_arrow(b).repartition(3),
                          "v", k=4096, coin=coin)
        assert (out["n_left"], out["n_right"], out["n_union"],
                out["n_intersect"]) == (300, 280, 400, 180), coin
        assert out["jaccard_ppm"] == 180 * 1_000_000 // 400

    # estimation: 60k vs 60k distinct, 20k common, k=512
    rng = np.random.default_rng(7)
    left_ids = np.arange(0, 60_000)
    right_ids = np.arange(40_000, 100_000)
    la = pa.table({"v": pa.array(rng.permutation(left_ids), pa.int64())})
    rb = pa.table({"v": pa.array(rng.permutation(right_ids), pa.int64())})
    est = kmv_set_ops(rd.from_arrow(la).repartition(9),
                      rd.from_arrow(rb).repartition(4), "v", k=512)
    assert abs(est["n_union"] - 100_000) < 100_000 * 0.2
    assert abs(est["n_intersect"] - 20_000) < 20_000 * 0.5
    # block-layout invariance: same signature whatever the partitioning
    est2 = kmv_set_ops(rd.from_arrow(la).repartition(2),
                       rd.from_arrow(rb).repartition(11), "v", k=512)
    assert est == est2


def test_resolve_chains_cycles_and_brute_force(ray_session):
    """Pointer doubling must match a sequential walk on a mixed graph:
    plain chains resolve (final dst + exact hop counts); a self-loop, a
    3-cycle, and a chain DRAINING into the cycle all come back with null
    final_dst/hops under on_cycle='null', and raise under 'raise'."""
    import numpy as np
    import pytest
    import ray.data as rd

    from gobblin_ray.functions.graph import resolve_chains

    edges = {
        # chain 1 -> 2 -> 3 -> 4 (4 terminal)
        1: 2, 2: 3, 3: 4,
        # self-loop
        10: 10,
        # 3-cycle 20 -> 21 -> 22 -> 20, plus a drain 30 -> 31 -> 20
        20: 21, 21: 22, 22: 20, 30: 31, 31: 20,
        # alias into the chain
        40: 2,
    }
    ds = rd.from_arrow(pa.table({
        "src": pa.array(list(edges), pa.int64()),
        "dst": pa.array(list(edges.values()), pa.int64()),
    }))

    got = {r["node"]: (r["final_dst"], r["hops"])
           for r in resolve_chains(ds, num_partitions=4).take_all()}

    def walk(n):
        hops = 0
        seen = set()
        while n in edges:
            if n in seen:
                return (None, None)
            seen.add(n)
            n = edges[n]
            hops += 1
            if hops > len(edges) + 1:
                return (None, None)
        return (n, hops)

    want = {s: walk(s) for s in edges}
    assert got == want
    assert got[1] == (4, 3) and got[40] == (4, 3)
    assert got[10] == (None, None) and got[30] == (None, None)

    ds2 = rd.from_arrow(pa.table({
        "src": pa.array(list(edges), pa.int64()),
        "dst": pa.array(list(edges.values()), pa.int64()),
    }))
    with pytest.raises(ValueError, match="cycle"):
        resolve_chains(ds2, num_partitions=4, on_cycle="raise").take_all()


def test_warc_parser_format_edges(ray_session):
    """The Content-Length walker must survive payloads embedding the
    record magic / CRLF runs / empty bodies, filter non-response
    records, and RAISE on truncation (work-unit contract)."""
    import os

    import pytest

    from gobblin_ray.fixtures import WARC_DIR, planted_warc
    from gobblin_ray.sources.warc import parse_warc_bytes, read_warc

    warc_dir, _ = planted_warc()
    ds = read_warc(warc_dir, record_type="response", payload_as="text")
    rows = ds.take_all()
    assert len(rows) == 120
    by_url = {r["url"]: r["payload"] for r in rows}
    assert by_url["https://warc0.example/page000"] == \
        "page 0 embeds WARC/1.0\r\n magic and\r\n\r\nblanks"
    assert by_url["https://warc1.example/page011"] == ""

    # keep-all mode includes warcinfo + request records
    all_rows = read_warc(warc_dir, record_type=None).take_all()
    assert len(all_rows) == 243

    # truncation raises with the file offset
    p = os.path.join(WARC_DIR, "crawl-00.warc")
    data = open(p, "rb").read()
    with pytest.raises(ValueError, match="WARC parse error"):
        parse_warc_bytes(data[:-3], "t")
    with pytest.raises(ValueError, match="record magic"):
        parse_warc_bytes(b"GZIP" + data, "t")


def test_warc_write_read_roundtrip(ray_session, tmp_path):
    """write_warc -> read_warc round-trips records exactly, including
    empty payloads, CRLF-bearing payloads, and payloads embedding the
    record magic."""
    import ray.data as rd

    from gobblin_ray.sources.warc import read_warc, write_warc

    rows = [
        {"url": f"https://x.example/{i}",
         "warc_date": f"2026-03-{i + 1:02d}T00:00:00Z",
         "payload": p}
        for i, p in enumerate([
            "plain body", "", "has\r\nCRLF and\r\n\r\nblank",
            "embeds WARC/1.0\r\n magic", "unicode ünïcødé",
        ])
    ]
    out = str(tmp_path / "out_warc")
    lineage = write_warc(rd.from_items(rows), out,
                         payload_col="payload").take_all()
    assert sum(r["records"] for r in lineage) == len(rows)

    back = read_warc(out, record_type="response",
                     payload_as="text").take_all()
    got = {(r["url"], r["warc_date"], r["payload"]) for r in back}
    want = {(r["url"], r["warc_date"], r["payload"]) for r in rows}
    assert got == want


def test_product_quantize_partition_invariant(ray_session):
    """PQ codes are identical for any batching; reconstruction from the
    codebooks is closer than a random codebook assignment (sanity that
    the Lloyd fit actually optimizes)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gobblin_ray.functions.similarity import pq_kmeans, product_quantize

    rng = np.random.default_rng(13)
    mat = rng.standard_normal((300, 16))
    t = pa.table({
        "vec_id": pa.array(range(300), pa.int64()),
        "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
    })
    train = np.vstack(
        t.column("embedding").to_pylist()
    ).astype(np.float64)
    a = product_quantize(rd.from_arrow(t).repartition(7), train,
                         m=4, k=8).take_all()
    b = product_quantize(rd.from_arrow(t).repartition(2), train,
                         m=4, k=8).take_all()
    key = lambda r: r["vec_id"]  # noqa: E731
    assert sorted(a, key=key) == sorted(b, key=key)
    # fit sanity: per-subspace quantization error beats centroid[0]-only
    d = 4
    err_pq = err_naive = 0.0
    books = [pq_kmeans(train[:, i * d:(i + 1) * d], 8) for i in range(4)]
    for r in a:
        codes = [int(x) for x in r["pq_code"].split(",")]
        row = train[r["vec_id"]]
        for i in range(4):
            sub = row[i * d:(i + 1) * d]
            err_pq += float(((sub - books[i][codes[i]]) ** 2).sum())
            err_naive += float(((sub - books[i][0]) ** 2).sum())
    assert err_pq < err_naive


def test_phash_pairs_match_bruteforce(ray_session):
    """Distributed perceptual-hash near-dup == sequential brute force at
    the same radius, for ANY input partitioning (the banded kernel's
    radius-3 recall is exact by pigeonhole), and a corrupt payload is
    dropped without killing the stage."""
    import ray.data as rd

    t = pa.table({"doc_id": pa.array(list(range(60)), pa.int64())})
    media_t = mm.planted_neardup_media_batch(t)
    codec = mm.PnmCodec()
    fps = [
        mm.ahash64(codec.decode(p))
        for p in media_t.column("payload").to_pylist()
    ]
    ids = media_t.column("media_id").to_numpy(zero_copy_only=False)
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            h = bin(int(fps[i]) ^ int(fps[j])).count("1")
            if h <= 3:
                want.add((int(ids[i]), int(ids[j]), h))
    assert want  # planted groups make the truth non-trivial
    for parts in (2, 7):
        got = {
            (r["a"], r["b"], r["hamming"])
            for r in mm.phash_pairs(
                rd.from_arrow(media_t).repartition(parts), concurrency=2
            ).take_all()
        }
        assert got == want
    # corrupt one payload: stage drops the row, pairs among the rest hold
    bad = media_t.set_column(
        media_t.schema.get_field_index("payload"),
        "payload",
        pa.array(
            [b"not an image"] + media_t.column("payload").to_pylist()[1:],
            pa.binary(),
        ),
    )
    got_bad = {
        (r["a"], r["b"], r["hamming"])
        for r in mm.phash_pairs(rd.from_arrow(bad), concurrency=2).take_all()
    }
    assert got_bad == {p for p in want if 0 not in (p[0], p[1])}


def test_video_dup_pairs_match_bruteforce(ray_session):
    """Distributed shared-frame video near-dup == sequential replay for
    any partitioning, and the stop-frame cutoff drops over-common
    hashes from BOTH sides identically."""
    import collections

    import ray.data as rd

    t = pa.table({"doc_id": pa.array(list(range(30)), pa.int64())})
    media_t = mm.planted_neardup_video_batch(t)
    rows = mm.VideoFrameHasher(stride=1, max_frames=8)(media_t)
    by_hash = collections.defaultdict(list)
    for mid, fh in zip(rows.column("media_id").to_pylist(),
                       rows.column("fhash").to_pylist()):
        by_hash[fh].append(mid)
    want = collections.Counter()
    for members in by_hash.values():
        if 2 <= len(members) <= 64:
            ms = sorted(members)
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    want[(ms[i], ms[j])] += 1
    want_set = {(a, b, c) for (a, b), c in want.items() if c >= 2}
    assert want_set  # planted groups share >= 4 frames
    for parts in (2, 5):
        got = {
            (r["a"], r["b"], r["shared"])
            for r in mm.video_dup_pairs(
                rd.from_arrow(media_t).repartition(parts),
                min_shared=2, concurrency=2,
            ).take_all()
        }
        assert got == want_set


def test_hamming_candidate_pairs_random_parity(ray_session):
    """The generic banded kernel == brute force at radius 3 on random
    fingerprint sets (buckets stay under the triangle cap), across
    seeds and partitionings."""
    import ray.data as rd

    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        n = 300
        fps = rng.integers(0, 2 ** 63, n, dtype=np.int64)
        # plant near pairs: clones of random rows with 0-3 flipped bits
        for i in range(0, 60, 2):
            src = fps[rng.integers(0, n)]
            for _ in range(int(rng.integers(0, 4))):
                src ^= np.int64(1) << np.int64(rng.integers(0, 63))
            fps[i] = src
        want = set()
        u = fps.view(np.uint64)
        for i in range(n):
            x = u[i] ^ u[i + 1:]
            ham = dd._popcount(x)
            for off in np.flatnonzero(ham <= 3):
                j = i + 1 + int(off)
                want.add((i, j, int(ham[off])))
        t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                      "fp": pa.array(fps)})
        got = {
            (r["a"], r["b"], r["hamming"])
            for r in dd.hamming_candidate_pairs(
                rd.from_arrow(t).repartition(4), "fp", num_partitions=5
            ).take_all()
        }
        assert got == want, f"seed {seed}"


def test_remove_dup_spans_matches_bruteforce_and_partitioning(ray_session):
    """Span removal (Lee et al. 2022 fixed-k ExactSubstr): distributed
    rewrite equals the obvious sequential dict-of-span-text replay, on any
    repartitioning — and a planted case pins the canonical-kept /
    overlap-union contract."""
    import ray.data as rd

    k = 3
    rng = np.random.default_rng(11)
    vocab = np.array("a b c d e f g h i j".split())
    docs = []
    for d in range(40):
        n = int(rng.integers(2, 30))
        docs.append((d, " ".join(rng.choice(vocab, n))))
    # planted: doc 100 and 101 share an exact 3-token run; doc 100 is
    # canonical (smaller id), doc 101 loses those tokens
    docs.append((100, "zz yy xx ww vv"))
    docs.append((101, "qq zz yy xx pp"))
    docs.append((102, None))  # null text -> "" on both sides
    t = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.string()),
    })

    # sequential replay: dict keyed on span TEXT, first (doc,pos) kept
    occ: dict = {}
    for d, text in docs:
        toks = (text or "").split(" ")
        for p in range(len(toks) - k + 1):
            occ.setdefault(" ".join(toks[p:p + k]), []).append((d, p))
    removed: dict = {}
    for lst in occ.values():
        for d, p in sorted(lst)[1:] if len(lst) >= 2 else []:
            removed.setdefault(d, []).append(p)
    want = {}
    for d, text in docs:
        toks = (text or "").split(" ")
        cover = np.zeros(len(toks) + 1, np.int64)
        for p in removed.get(d, []):
            cover[p] += 1
            cover[min(p + k, len(toks))] -= 1
        keep = np.cumsum(cover[:-1]) == 0
        want[d] = " ".join(tok for tok, m in zip(toks, keep) if m)

    for parts in (1, 7):
        got = {
            r["doc_id"]: r["text_clean"]
            for r in tx.remove_dup_spans(
                rd.from_arrow(t).repartition(parts), "text", "doc_id",
                k=k, num_parts=4,
            ).take_all()
        }
        assert got == want, f"parts={parts}"
    assert want[100] == "zz yy xx ww vv"  # canonical occurrence kept
    assert want[101] == "qq pp"


def test_ivfpq_incremental_rebuild_adds_nothing(ray_session, tmp_path):
    """A replayed ivfpq_index_build over an already-indexed corpus appends
    zero rows (per-cell prior-id snapshot + content-named files), and the
    persisted model is reloaded rather than refit."""
    import ray.data as rd

    from gobblin_ray.functions.similarity import (ivfpq_fit_or_load,
                                                  ivfpq_index_build)

    rng = np.random.default_rng(5)
    n, dim = 64, 16
    mat = rng.normal(size=(n, dim))
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
    })
    idx = str(tmp_path / "ivfpq")
    ds = rd.from_arrow(t)
    r1 = ivfpq_index_build(ds, idx, train_matrix=mat, n_cells=4, m=4, ks=8)
    assert r1["rows"] == n
    r2 = ivfpq_index_build(ds, idx)  # replay: model reloaded, nothing new
    assert r2["rows"] == 0
    C1, B1 = ivfpq_fit_or_load(idx, None)
    C2, B2 = ivfpq_fit_or_load(idx, mat[:10])  # train ignored: model exists
    assert np.array_equal(C1, C2) and np.array_equal(B1, B2)


def test_factorize_cooc_sparse_semantics(ray_session):
    """Sparse nonzero-triplet factorization (round-5 scale path):
    (1) bit-identical under any triplet input order (the internal
    (row, col) sort + bincount accumulation is the determinism
    contract); (2) matches the dense kernel to float tolerance when the
    matrix is fully dense (same objective, different summation order);
    (3) the distributed trainer is bit-identical across repartitionings
    with the sparse path engaged (vocab > 500)."""
    import ray.data as rd

    from gobblin_ray.functions.train import (cooc_embed_train,
                                             factorize_cooc,
                                             factorize_cooc_sparse)

    rng = np.random.default_rng(11)
    V = 30
    # unique (r, c) pairs, ~40% dense
    all_pairs = [(i, j) for i in range(V) for j in range(V)]
    pick = rng.choice(len(all_pairs), size=350, replace=False)
    r = np.array([all_pairs[k][0] for k in pick], np.int64)
    c = np.array([all_pairs[k][1] for k in pick], np.int64)
    n = rng.integers(1, 50, size=len(pick)).astype(np.int64)
    e1 = factorize_cooc_sparse(r, c, n, V, iters=25)
    perm = rng.permutation(len(r))
    e2 = factorize_cooc_sparse(r[perm], c[perm], n[perm], V, iters=25)
    assert (e1 == e2).all()  # bit-identical, any input order

    # fully dense triplets == dense kernel (float tolerance)
    C = rng.integers(1, 20, size=(V, V)).astype(np.int64)
    rr, cc = np.divmod(np.arange(V * V), V)
    dense = factorize_cooc(C, iters=25)
    sparse = factorize_cooc_sparse(rr, cc, C.ravel(), V, iters=25)
    assert np.allclose(dense, sparse, rtol=1e-9, atol=1e-12)

    # distributed: partitioning-invariant with the sparse path engaged
    words = [f"tok{i:04d}" for i in range(600)]
    docs = [" ".join(words[i:i + 12]) for i in range(0, 600, 4)]
    tbl = pa.table({"text": pa.array(docs)})
    outs = []
    for parts in (2, 7):
        got = cooc_embed_train(
            rd.from_arrow(tbl).repartition(parts),
            vocab_size=600, window=2, dim=8, iters=10,
        )
        assert got.num_rows == 600
        outs.append(got)
    assert outs[0].equals(outs[1])
