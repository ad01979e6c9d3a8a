"""Text analysis for webtext pipelines: language-ID, quality scoring,
token counting, fingerprinting. All column derivations are vectorized
(pyarrow.compute); the only per-row work is md5 (no Arrow kernel exists),
kept in an actor-pool-friendly callable.

SQL-parity notes (for the DuckDB oracle): token_count splits on a single
space exactly like ``array_length(string_split(text, ' '))``; alpha_ratio
mirrors ``length(regexp_replace(text,'[^a-z ]','','g'))``-style arithmetic;
fingerprints use md5 so ``md5(lower(text))`` matches byte-for-byte.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Tiny public stopword lists (language-ID heuristic evidence).
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "von", "zu"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "pour", "que"},
    "es": {"el", "la", "los", "de", "y", "un", "una", "es", "por", "que"},
    "zh": set(),  # no-space script: detected by CJK char ratio instead
}


def token_count(text_col: str = "text", out: str = "n_tokens"):
    """Whitespace token count == array_length(string_split(text, ' '))."""

    def run(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(t.column(text_col), pattern=" "))
        return t.append_column(out, n.cast(pa.int64()))

    run.__name__ = f"token_count[{text_col}]"
    return run


def char_count(text_col: str = "text", out: str = "n_chars_calc"):
    def run(t: pa.Table) -> pa.Table:
        return t.append_column(
            out, pc.utf8_length(t.column(text_col)).cast(pa.int64())
        )

    run.__name__ = f"char_count[{text_col}]"
    return run


def bpe_ish_token_count(text_col: str = "text", out: str = "n_bpe_tokens"):
    """BPE-ish token estimate: count matches of a GPT-2-style pre-tokenizer
    regex (words / numbers / punctuation runs) — vectorized via
    pc.count_substring_regex."""
    pattern = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"

    def run(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(t.column(text_col), pattern)
        return t.append_column(out, n.cast(pa.int64()))

    run.__name__ = "bpe_ish_token_count"
    return run


def quality_features(text_col: str = "text"):
    """Vectorized quality features: n_tokens, n_chars_calc, avg_token_len,
    alpha_ratio (lowercase-alpha+space chars / total), upper_ratio."""

    def run(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        n_chars = pc.utf8_length(text).cast(pa.int64())
        n_tokens = pc.list_value_length(pc.split_pattern(text, pattern=" ")).cast(
            pa.int64()
        )
        alpha = pc.utf8_length(
            pc.replace_substring_regex(pc.utf8_lower(text), "[^a-z ]", "")
        ).cast(pa.int64())
        safe_chars = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64()))
        safe_toks = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64()))
        t = t.append_column("n_tokens", n_tokens)
        t = t.append_column("n_chars_calc", n_chars)
        t = t.append_column(
            "avg_token_len",
            pc.divide(pc.cast(n_chars, pa.float64()), pc.cast(safe_toks, pa.float64())),
        )
        t = t.append_column(
            "alpha_ratio",
            pc.divide(pc.cast(alpha, pa.float64()), pc.cast(safe_chars, pa.float64())),
        )
        return t

    run.__name__ = "quality_features"
    return run


def quality_score(text_col: str = "text", out: str = "quality"):
    """Composite score in [0,1]: alpha-ratio weighted, penalizing very short
    documents and degenerate token lengths. SQL-expressible arithmetic."""
    feats = quality_features(text_col)

    def run(t: pa.Table) -> pa.Table:
        t = feats(t)
        len_term = pc.min_element_wise(
            pc.divide(pc.cast(t.column("n_tokens"), pa.float64()), pa.scalar(100.0)),
            pa.scalar(1.0),
        )
        score = pc.multiply(
            pc.multiply(t.column("alpha_ratio"), len_term), pa.scalar(1.0)
        )
        return t.append_column(out, score)

    run.__name__ = "quality_score"
    return run


class LangId:
    """Actor-pool stage: stopword + script heuristic language ID.

    ``__init__`` compiles token tables once per actor; ``__call__`` scores
    each language by stopword hit-rate (CJK char ratio for zh) and emits
    ``lang_pred`` + ``lang_conf``. Heuristic (no model download) — the
    plumbing (actor pool, batch shape) is the deliverable; swap in fastText
    where models are available."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        # Arrow value_set per language, built once per actor.
        self.langs = [k for k, v in STOPWORDS.items() if v]
        self.value_sets = {k: pa.array(sorted(STOPWORDS[k])) for k in self.langs}

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Fully vectorized (round-1 flag was a per-row per-token loop):
        # explode tokens once, one pc.is_in per language, per-doc hit sums
        # via bincount over the tokens' parent-row indices.
        text = pc.fill_null(
            pc.utf8_lower(batch.column(self.text_col).cast(pa.string())), ""
        )
        n_docs = len(text)
        tokens = pc.split_pattern_regex(text, r"\s+")
        flat = pc.list_flatten(tokens).combine_chunks()
        parents = pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)
        n_tok = np.maximum(
            pc.list_value_length(tokens).to_numpy(zero_copy_only=False), 1
        ).astype(np.float64)
        scores = np.zeros((len(self.langs) + 1, n_docs), dtype=np.float64)
        for li, lang in enumerate(self.langs):
            hits = pc.is_in(flat, value_set=self.value_sets[lang]).to_numpy(
                zero_copy_only=False
            )
            scores[li] = (
                np.bincount(parents, weights=hits, minlength=n_docs) / n_tok
            )
        # zh: CJK char ratio (no-space script), vectorized regex count.
        cjk = pc.count_substring_regex(text, "[一-鿿]").to_numpy(
            zero_copy_only=False
        )
        n_chars = np.maximum(
            pc.utf8_length(text).to_numpy(zero_copy_only=False), 1
        ).astype(np.float64)
        scores[len(self.langs)] = cjk / n_chars
        best = np.argmax(scores, axis=0)  # first max wins, same order as dict
        conf = scores[best, np.arange(n_docs)]
        all_langs = np.array(self.langs + ["zh"], dtype=object)
        preds = np.where(conf > 0, all_langs[best], "und")
        return batch.append_column(
            "lang_pred", pa.array(preds, pa.string())
        ).append_column("lang_conf", pa.array(conf, pa.float64()))


class Fingerprinter:
    """md5 content fingerprint (matches DuckDB ``md5(...)``), optionally on
    normalized text (lower). Per-row hashlib — no Arrow md5 kernel — so this
    runs as an actor-pool stage sized by ``concurrency``."""

    def __init__(self, text_col: str = "text", out: str = "fingerprint",
                 normalize: bool = True):
        self.text_col, self.out, self.normalize = text_col, out, normalize

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        if self.normalize:
            col = pc.utf8_lower(col)
        fps = [
            hashlib.md5((s or "").encode("utf-8")).hexdigest() for s in col.to_pylist()
        ]
        return batch.append_column(self.out, pa.array(fps, pa.string()))


def token_window_spans(text_col: str = "text", id_col: str = "doc_id",
                       k: int = 5):
    """Explode each document into its k-consecutive-whitespace-token spans —
    the candidate stage of exact-substring dedup (the fixed-k approximation
    of suffix-array span dedup used in LLM-data pipelines): any span seen in
    two documents is duplicated training text.

    Fully vectorized across the batch: all docs' tokens are flattened into
    ONE array, and the k-token join runs as a single Arrow
    ``binary_join_element_wise`` over k shifted views with a doc-boundary
    mask (no per-doc Python loop). Emits (id_col, span) rows; at scale the
    downstream groupby should key on a span HASH, not the span text."""

    def run(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        n = len(flat)
        if n == 0 or n < k:
            return pa.table({
                id_col: pa.array([], t.schema.field(id_col).type),
                "span": pa.array([], pa.string()),
            })
        # doc index of every flat token, and a mask of window starts whose
        # k tokens all belong to the same doc
        doc_of = np.repeat(np.arange(len(lens)), lens)
        starts = doc_of[: n - k + 1] == doc_of[k - 1 :]
        parts = [flat.slice(j, n - k + 1) for j in range(k)]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, " ")
        idx = np.flatnonzero(starts)
        return pa.table({
            id_col: pa.array(ids[doc_of[idx]]),
            "span": joined.take(pa.array(idx)),
        })

    run.__name__ = f"token_window_spans[k={k}]"
    return run


def repetition_signals(text_col: str = "text",
                       grams: tuple[int, ...] = (1, 2, 3)):
    """Gopher-style repetition quality signals (public knowledge: Rae et
    al. 2021, "Scaling Language Models: ... Gopher", App. A1.1 repetition
    filters): per document, the fraction of tokens taken by the most
    frequent unigram (``top_unigram_frac``), by the most frequent bigram
    over bigram slots (``top_bigram_frac``), and the fraction of trigram
    slots occupied by trigrams appearing >= 2 times (``dup_trigram_frac``).
    High values mark boilerplate/spam for LLM-data filtering.

    Fully vectorized across the batch, no per-doc Python: ONE token explode
    (split + list_flatten + parent indices), n-gram identity via chained
    64-bit token-hash mixing over shifted views (a window is a gram only if
    all members share a doc), then ONE lexsort + run-length pass gives
    per-(doc, gram) counts; per-doc max / dup sums come from
    ``np.maximum.reduceat`` / ``np.add.reduceat`` on the run boundaries.
    Gram identity by 64-bit hash: within-doc collision probability is
    ~g^2/2^65 per doc (g = grams per doc) — negligible, and only ever
    UNDER-reports distinctness.

    ``grams`` selects which signals to compute (1 -> top_unigram_frac,
    2 -> top_bigram_frac, 3 -> dup_trigram_frac) — a gate that thresholds
    only one signal should not pay the other grams' lexsort passes."""
    from ..engine import stable_hash_u64

    def run(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n_docs = len(lens)
        doc_of = np.repeat(np.arange(n_docs), lens)
        h = stable_hash_u64(flat) if len(flat) else np.empty(0, np.uint64)

        def gram_stats(n: int):
            """(per-doc max gram count, per-doc dup-instance sum, slots)."""
            slots = np.maximum(lens - (n - 1), 0)
            max_per = np.zeros(n_docs, np.int64)
            dup_per = np.zeros(n_docs, np.int64)
            # the ONE chained window-hash kernel (shared with
            # decontaminate's eval hashing — same constants, same
            # doc-boundary mask; a second inline copy once risked
            # silently de-synchronizing gram identity)
            ghash, gdoc = _token_window_hashes(h, doc_of, n)
            if not len(ghash):
                return max_per, dup_per, slots
            order = np.lexsort((ghash, gdoc))
            gd, gv = gdoc[order], ghash[order]
            new_run = np.ones(len(gd), bool)
            new_run[1:] = (gd[1:] != gd[:-1]) | (gv[1:] != gv[:-1])
            run_starts = np.flatnonzero(new_run)
            run_counts = np.diff(np.append(run_starts, len(gd)))
            run_doc = gd[run_starts]
            doc_starts = np.flatnonzero(
                np.r_[True, run_doc[1:] != run_doc[:-1]]
            )
            present = run_doc[doc_starts]
            max_per[present] = np.maximum.reduceat(run_counts, doc_starts)
            dup_per[present] = np.add.reduceat(
                np.where(run_counts >= 2, run_counts, 0), doc_starts
            )
            return max_per, dup_per, slots

        def frac(num, den):
            return np.where(den > 0, num / np.maximum(den, 1), 0.0)

        t2 = t
        if 1 in grams:
            u_max, _, u_slots = gram_stats(1)
            t2 = t2.append_column(
                "top_unigram_frac", pa.array(frac(u_max, u_slots), pa.float64())
            )
        if 2 in grams:
            b_max, _, b_slots = gram_stats(2)
            t2 = t2.append_column(
                "top_bigram_frac", pa.array(frac(b_max, b_slots), pa.float64())
            )
        if 3 in grams:
            _, t_dup, t_slots = gram_stats(3)
            t2 = t2.append_column(
                "dup_trigram_frac", pa.array(frac(t_dup, t_slots), pa.float64())
            )
        return t2

    run.__name__ = "repetition_signals"
    return run


def tfidf_top_terms(ds, text_col: str = "text", id_col: str = "doc_id",
                    k: int = 3):
    """TF-IDF keyword extraction: the top-``k`` terms per document by
    ``tf * ln(N / df)`` (raw term count x inverse document frequency —
    the classic Salton & Buckley 1988 weighting), deterministic tiebreak
    (rounded score desc, term asc).

    Two passes, Ray-Data-shaped:
    1. DF: one vectorized explode per batch -> per-batch (term, partial_df)
       combiner (a term counts once per doc) -> ONE small groupby(term)
       exchange -> the vocabulary-sized DF table is ray.put ONCE.
       Partitioning assumption: the vocab fits the driver/object store
       (true for word-level vocab; at 10^9+ sub-word vocab keep DF as a
       Dataset and swap the broadcast for a partitioned join on term).
    2. Score: per batch, per-doc term counts (pandas C groupby over the
       exploded view), Arrow hash-join against the broadcast DF, score,
       round, and head-k per doc — every doc's terms live in its own row,
       so the top-k never crosses a batch boundary.
    """
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    # sentinel term carries the batch's doc count through the same DF pass,
    # so N never needs a separate ds.count() execution ("\x00" cannot
    # appear in a space-split token stream read from parquet text)
    _DOCS = "\x00__n_docs__"

    def _explode(t: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return pd.DataFrame({
            "doc": ids[parents] if len(parents) else np.empty(0, ids.dtype),
            "term": flat.to_pandas(),
        })

    def partial_df(t: pa.Table) -> pa.Table:
        g = _explode(t).drop_duplicates()  # a term counts once per doc
        vc = g["term"].value_counts(sort=False)
        return pa.table({
            "term": pa.array(
                list(vc.index.to_numpy()) + [_DOCS], pa.string()
            ),
            "partial_df": pa.array(
                list(vc.to_numpy()) + [t.num_rows], pa.int64()
            ),
        })

    partial_df.__name__ = "partial_df"
    df_pd = (
        ds.map_batches(partial_df, batch_format="pyarrow", batch_size=None)
        .groupby("term").aggregate(Sum("partial_df", alias_name="df"))
        .to_pandas()
    )
    n_docs = int(df_pd.loc[df_pd["term"] == _DOCS, "df"].iloc[0])
    df_pd = df_pd[df_pd["term"] != _DOCS]
    df_table = pa.Table.from_pandas(df_pd).select(["term", "df"])
    df_ref = ray.put(df_table)

    id_type = ds.schema().base_schema.field(id_col).type

    class ScoreTopK:
        def __init__(self):
            self.df = ray.get(df_ref)  # once per worker process

        def __call__(self, batch: pa.Table) -> pa.Table:
            g = _explode(batch)
            tf = g.groupby(["doc", "term"], sort=False).size().reset_index(
                name="tf"
            )
            t = pa.table({
                "doc": pa.array(tf["doc"].to_numpy()),
                "term": pa.array(tf["term"].to_numpy(), pa.string()),
                "tf": pa.array(tf["tf"].to_numpy(), pa.int64()),
            }).join(self.df, keys=["term"])
            score = t.column("tf").to_numpy(zero_copy_only=False) * np.log(
                n_docs / t.column("df").to_numpy(zero_copy_only=False)
            )
            from ..kernels import duck_round

            score = duck_round(score, 4)  # DuckDB-parity half-away round
            out = t.to_pandas()
            out["score"] = score
            out = (
                out.sort_values(["doc", "score", "term"],
                                ascending=[True, False, True])
                .groupby("doc", sort=False).head(k)
            )
            return pa.table({
                id_col: pa.array(out["doc"].to_numpy()).cast(id_type),
                "term": pa.array(out["term"].to_numpy(), pa.string()),
                "score": pa.array(out["score"].to_numpy(), pa.float64()),
            })

    return ds.map_batches(
        ScoreTopK, batch_format="pyarrow", batch_size=None, concurrency=(1, 8)
    )


def dedup_lines(ds, text_col: str = "text", id_col: str = "doc_id",
                num_partitions: int = 64):
    """Corpus-wide LINE-level dedup (public knowledge: CCNet, Wenzek et al.
    2020 — paragraph/line dedup removes boilerplate like cookie banners and
    footers before model training): keep the FIRST instance (lexicographic
    min (doc_id, line_idx)) of every distinct line across the corpus,
    rebuild each document from its surviving lines, and drop documents that
    lose every line. Duplicate lines WITHIN a doc dedup under the same rule.

    Two bounded exchanges; line TEXT never rides a shuffle (the span-dedup
    lesson):
    1. loser detection — explode each doc into (hash64(line), doc_id,
       line_idx) triples, partition on ``hash % P``, and inside each
       partition one lexsort marks the first (doc, idx) per hash as winner;
       everything else becomes a LOSER triple (3 ints/row).
    2. rebuild — docs and loser triples ride ONE union exchange on
       ``hash(doc_id) % P``; each partition re-splits its docs, drops loser
       indices with a vectorized pandas anti-merge, rebuilds the list
       offsets and re-joins lines with ``pc.binary_join`` — no per-doc
       Python.

    Line identity is the engine's 64-bit content hash: collision odds are
    ~(distinct lines)^2 / 2^65 (negligible below ~10^8 lines; swap a
    128-bit hash at full web scale). Partitioning assumption: one doc
    partition's texts fit in a worker."""
    import pandas as pd

    from ..engine import stable_hash_u64
    from ..stages.partition import key_partition

    P = num_partitions

    def _explode_lines(t: pa.Table):
        lines = pc.split_pattern(t.column(text_col).fill_null(""), pattern="\n")
        flat = pc.list_flatten(lines).combine_chunks()
        lens = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        parents = np.repeat(np.arange(len(lens)), lens)
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]]) if len(lens) else (
            np.empty(0, np.int64)
        )
        idx = np.arange(len(flat), dtype=np.int64) - np.repeat(offs, lens)
        return flat, lens, parents, idx

    def triples(t: pa.Table) -> pa.Table:
        flat, _, parents, idx = _explode_lines(t)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        h = stable_hash_u64(flat) if len(flat) else np.empty(0, np.uint64)
        return pa.table({
            "_lh": pa.array(h.view(np.int64)),
            id_col: pa.array(ids[parents]),
            "_li": pa.array(idx),
            "_lp": pa.array((h % np.uint64(P)).astype(np.int64)),
        })

    triples.__name__ = "line_triples"

    def losers(g: pa.Table) -> pa.Table:
        lh = g.column("_lh").to_numpy(zero_copy_only=False)
        doc = g.column(id_col).to_numpy(zero_copy_only=False)
        li = g.column("_li").to_numpy(zero_copy_only=False)
        order = np.lexsort((li, doc, lh))
        first = np.ones(len(order), bool)
        first[1:] = lh[order][1:] != lh[order][:-1]
        lose = order[~first]
        return pa.table({
            id_col: pa.array(doc[lose]),
            "_li": pa.array(li[lose]),
        })

    losers.__name__ = "line_losers"
    loser_ds = (
        ds.map_batches(triples, batch_format="pyarrow", batch_size=None)
        .groupby("_lp").map_groups(losers, batch_format="pyarrow")
    )

    id_type = ds.schema().base_schema.field(id_col).type
    union_schema = pa.schema([
        (id_col, id_type), (text_col, pa.string()),
        ("_li", pa.int64()), ("_side", pa.string()),
    ])

    def tag(side: str):
        def f(t: pa.Table) -> pa.Table:
            from ..schema import conform

            t = t.append_column("_side", pa.array([side] * t.num_rows))
            t = conform(t, union_schema)
            return t.append_column(
                "_dp", pa.array(key_partition(t.column(id_col), P))
            )

        f.__name__ = f"tag_{side}"
        return f

    d_tag = ds.select_columns([id_col, text_col]).map_batches(
        tag("d"), batch_format="pyarrow", batch_size=None
    )
    x_tag = loser_ds.map_batches(tag("x"), batch_format="pyarrow",
                                 batch_size=None)

    def rebuild(g: pa.Table) -> pa.Table:
        side = g.column("_side").to_numpy(zero_copy_only=False)
        docs = g.filter(pa.array(side == "d"))
        lose = g.filter(pa.array(side == "x"))
        empty = pa.table({
            id_col: pa.array([], id_type), text_col: pa.array([], pa.string()),
        })
        if docs.num_rows == 0:
            return empty
        flat, _, parents, idx = _explode_lines(docs)
        ids = docs.column(id_col).to_numpy(zero_copy_only=False)
        fk = pd.DataFrame({"d": ids[parents], "i": idx})
        lk = pd.DataFrame({
            "d": lose.column(id_col).to_numpy(zero_copy_only=False),
            "i": lose.column("_li").to_numpy(zero_copy_only=False),
        })
        keep = (
            fk.merge(lk, on=["d", "i"], how="left", indicator=True)["_merge"]
            == "left_only"
        ).to_numpy()
        kept_counts = np.bincount(parents[keep], minlength=docs.num_rows)
        offsets = np.concatenate([[0], np.cumsum(kept_counts)])
        kept_lines = flat.filter(pa.array(keep))
        la = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), kept_lines
        )
        joined = pc.binary_join(la, "\n")
        out = pa.table({
            id_col: docs.column(id_col), text_col: joined,
        })
        return out.filter(pa.array(kept_counts > 0))

    rebuild.__name__ = "rebuild_docs"
    return d_tag.union(x_tag).groupby("_dp").map_groups(
        rebuild, batch_format="pyarrow"
    )


def unigram_logprob_score(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Unigram language-model quality score: per document, the mean
    negative log-probability of its tokens under the CORPUS unigram
    distribution (the cheap stand-in for the KenLM perplexity filter CCNet
    runs — Wenzek et al. 2020 §4.3; low scores = common/boilerplate text,
    high scores = rare-token noise, both ends get filtered).

    Same two-pass shape as TF-IDF: (1) corpus token counts via a per-batch
    combiner + ONE small groupby(term) exchange, broadcast once (vocab-
    sized; partitioned join at 10^9-token vocab); (2) per batch, explode
    tokens, Arrow hash-join against the broadcast counts, and a bincount
    over parent rows averages -ln(count/total) per doc — no per-row
    Python. Every corpus token has count >= 1, so no smoothing term is
    needed for self-scoring."""
    import ray
    from ray.data.aggregate import Sum

    def partial_counts(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        vc = flat.value_counts()
        return pa.table({
            "term": vc.field("values"),
            "partial_n": vc.field("counts").cast(pa.int64()),
        })

    partial_counts.__name__ = "partial_counts"
    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow", batch_size=None)
        .groupby("term").aggregate(Sum("partial_n", alias_name="n"))
        .to_pandas()
    )
    total = float(counts["n"].sum())
    counts_ref = ray.put(pa.Table.from_pandas(counts).select(["term", "n"]))

    class Score:
        def __init__(self):
            self.counts = ray.get(counts_ref)  # once per worker process

        def __call__(self, batch: pa.Table) -> pa.Table:
            toks = pc.split_pattern(
                batch.column(text_col).fill_null(""), pattern=" "
            )
            flat = pc.list_flatten(toks).combine_chunks()
            parents = pc.list_parent_indices(toks).to_numpy(
                zero_copy_only=False
            )
            n_tok = np.maximum(
                pc.list_value_length(toks).to_numpy(zero_copy_only=False), 1
            ).astype(np.float64)
            joined = pa.table({
                "term": flat,
                "_pos": pa.array(np.arange(len(flat), dtype=np.int64)),
            }).join(self.counts, keys=["term"])
            # join reorders rows: scatter -ln p back to token positions
            pos = joined.column("_pos").to_numpy(zero_copy_only=False)
            neglogp = np.empty(len(flat), np.float64)
            neglogp[pos] = -np.log(
                joined.column("n").to_numpy(zero_copy_only=False) / total
            )
            score = (
                np.bincount(parents, weights=neglogp, minlength=batch.num_rows)
                / n_tok
            )
            return pa.table({
                id_col: batch.column(id_col),
                "lm_score": pa.array(score, pa.float64()),
            })

    return ds.map_batches(
        Score, batch_format="pyarrow", batch_size=None, concurrency=(1, 8)
    )


def pack_sequences(ds, text_col: str = "text", id_col: str = "doc_id",
                   budget: int = 4096):
    """Sequence packing for LLM training: assign documents (in ``id_col``
    order) to contiguous fixed-token-budget bins — bin boundary wherever
    the running token count crosses ``budget`` (the standard contiguous
    packing that concatenates docs into training sequences; Raffel et al.
    2020 T5 "packing"). Returns one row per doc: (id, n_tokens, bin_id).

    Distributed-scan shape: a HIERARCHICAL PREFIX SUM over the ordered
    key (the round-5 scale fix — the earlier version held the whole
    (id, n_tokens) projection on the driver and broadcast an O(docs)
    doc->bin map, 160 GB at 10^10 docs). Pass 1 projects each doc to
    (id, n_tokens) — 16 bytes/doc — and SORTS by id (one range-partition
    exchange of the tiny projection; sorted datasets enumerate blocks in
    key order). Pass 2 is the two-level scan: per-block token sums come
    back to the driver (O(blocks) ints), the driver prefix-sums the
    block offsets, and one task per block assigns
    ``bin_id = (block_offset + local_exclusive_cumsum) // budget``
    vectorized. Nothing O(docs) ever lives on the driver or broadcasts.
    """
    import ray
    import ray.data as rd

    def doc_tokens(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        ).cast(pa.int64())
        return pa.table({id_col: t.column(id_col), "n_tokens": n})

    doc_tokens.__name__ = "doc_tokens"
    proj = (
        ds.map_batches(doc_tokens, batch_format="pyarrow", batch_size=None)
        .sort(id_col)
        .materialize()
    )
    refs = proj.to_arrow_refs()

    @ray.remote(num_cpus=0.25)
    def block_sum(t: pa.Table) -> int:
        if t.num_rows == 0:
            return 0
        return int(
            pc.sum(t.column("n_tokens")).as_py() or 0
        )

    sums = np.array(ray.get([block_sum.remote(r) for r in refs]), np.int64)
    offsets = np.concatenate([[0], np.cumsum(sums)[:-1]])

    @ray.remote(num_cpus=0.25)
    def assign_bins(t: pa.Table, off: int) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "bin_id": pa.array([], pa.int64()),
            })
        toks = t.column("n_tokens").to_numpy(zero_copy_only=False)
        excl = off + np.concatenate([[0], np.cumsum(toks)[:-1]])
        return t.append_column("bin_id", pa.array(excl // int(budget)))

    return rd.from_arrow_refs([
        assign_bins.remote(r, int(o)) for r, o in zip(refs, offsets)
    ])


def build_inverted_index(ds, text_col: str = "text", id_col: str = "doc_id",
                         num_partitions: int = 64,
                         max_postings: int | None = None):
    """Inverted index: one row per term with its document frequency and the
    sorted posting list (comma-joined doc ids) — the search-side artifact a
    webtext pipeline materializes next to the corpus.

    Scale shape: (term, doc) pairs dedup WITHIN each batch before the one
    bounded exchange on ``hash(term) % num_partitions``; inside a partition
    one lexsort + run-length pass builds every posting list vectorized
    (ListArray offsets + ``pc.binary_join`` — no per-term Python). The skew
    hazard is stopword-grade terms (posting list ~ corpus size):
    ``max_postings`` caps each list to the first K doc ids while ``df``
    stays exact — the standard head-truncation; hash-split hot terms if
    full lists are required."""
    import pandas as pd

    from .sketch import hash_column_u64

    P = num_partitions
    id_type = ds.schema().base_schema.field(id_col).type

    def pairs(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        g = pd.DataFrame({
            "term": flat.to_pandas(),
            "doc": ids[parents] if len(parents) else np.empty(0, ids.dtype),
        }).drop_duplicates()
        term_arr = pa.array(g["term"].to_numpy(), pa.string())
        return pa.table({
            "term": term_arr,
            "doc": pa.array(g["doc"].to_numpy()).cast(id_type),
            "_tp": pa.array(
                (hash_column_u64(term_arr) % np.uint64(P)).astype(np.int64)
            ),
        })

    pairs.__name__ = "term_doc_pairs"

    def assemble(g: pa.Table) -> pa.Table:
        from ..kernels import runlength_join

        term = g.column("term").to_numpy(zero_copy_only=False)
        doc = g.column("doc").to_numpy(zero_copy_only=False)
        firsts, counts, joined = runlength_join(
            term, doc, ",", cap=max_postings
        )
        return pa.table({
            "term": pa.array(firsts, pa.string()),
            "df": pa.array(counts, pa.int64()),
            "postings": joined,
        })

    assemble.__name__ = "assemble_postings"
    return (
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)
        .groupby("_tp").map_groups(assemble, batch_format="pyarrow")
    )


_WIN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _token_window_hashes(h: np.ndarray, doc_of: np.ndarray, k: int):
    """Chained 64-bit hashes of every k-consecutive-token window that lies
    fully inside one doc (the repetition-signals mixing, shared here so
    driver-side eval hashing and worker-side doc hashing agree bit-for-
    bit). Returns (window_hashes, window_doc_index)."""
    m = len(h) - k + 1
    if m <= 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    gh = h[:m].copy()
    with np.errstate(over="ignore"):
        for j in range(1, k):
            gh = (gh * np.uint64(0x100000001B3)) ^ (h[j:j + m] + _WIN_GAMMA)
    ok = doc_of[:m] == doc_of[k - 1:]
    idx = np.flatnonzero(ok)
    return gh[idx], doc_of[idx]


def decontaminate(ds, eval_texts: list[str], text_col: str = "text",
                  id_col: str = "doc_id", k: int = 8):
    """Benchmark decontamination (public practice: Brown et al. 2020 GPT-3
    App. C; The Pile; Dodge et al. 2021 C4 audit): DROP any training doc
    sharing a ``k``-consecutive-token span with the eval set — the filter
    every serious LLM-data pipeline runs before training.

    Scale shape: the eval side is benchmark-sized, so its window hashes
    compute on the driver and broadcast ONCE (``ray.put`` of a sorted u64
    array — a few MB for all public benchmarks combined); each batch
    explodes its docs' tokens once, builds window hashes with the shared
    chained-mixing kernel (no span text materialized — the span-dedup
    lesson), and drops docs via one vectorized ``np.isin`` against the
    broadcast array. No shuffle at all. 64-bit span identity over-drops a
    doc with probability ~(doc windows x eval windows)/2^64 — harmless in
    this direction (a dropped clean doc, never a kept contaminated one,
    modulo the same odds)."""
    import ray

    from ..engine import stable_hash_u64

    ev_hashes = []
    for s in eval_texts:
        toks = pa.array((s or "").split(" "), pa.string())
        h = stable_hash_u64(toks)
        w, _ = _token_window_hashes(h, np.zeros(len(h), np.int64), k)
        ev_hashes.append(w)
    eval_set = np.unique(np.concatenate(ev_hashes)) if ev_hashes else (
        np.empty(0, np.uint64)
    )
    eval_ref = ray.put(eval_set)

    class DropContaminated:
        def __init__(self):
            self.eval_hashes = ray.get(eval_ref)  # once per worker

        def __call__(self, t: pa.Table) -> pa.Table:
            toks = pc.split_pattern(
                t.column(text_col).fill_null(""), pattern=" "
            )
            flat = pc.list_flatten(toks).combine_chunks()
            lens = pc.list_value_length(toks).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            doc_of = np.repeat(np.arange(len(lens)), lens)
            h = stable_hash_u64(flat) if len(flat) else np.empty(0, np.uint64)
            w, wdoc = _token_window_hashes(h, doc_of, k)
            hits = np.isin(w, self.eval_hashes)
            bad = np.zeros(t.num_rows, bool)
            if hits.any():
                bad[np.unique(wdoc[hits])] = True
            return t.filter(pa.array(~bad))

    return ds.map_batches(
        DropContaminated, batch_format="pyarrow", batch_size=None,
        concurrency=(1, 8),
    )


def remove_dup_spans(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    num_parts: int = 32,
    keep_cols: tuple = (),
):
    """Exact-substring span REMOVAL (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better", ExactSubstr semantics at
    the fixed-``k`` window approximation; the reference's rewrite posture
    is its compaction jobs, gobblin-compaction/.../mapreduce/): every
    ``k``-consecutive-token span occurring >= 2 times in the corpus keeps
    its ONE canonical occurrence — the lexicographically smallest
    (doc, pos) — and every other occurrence's tokens are excised from
    their documents. Returns (id_col, text_clean) for every input doc; a
    doc's surviving tokens re-join with single spaces (tokens = single-
    space split on both the detect and rewrite sides). A token covered by
    ANY removed occurrence window drops, so a canonical occurrence can
    still lose tokens to a different overlapping removed span — the
    well-defined union-of-intervals contract the sequential oracle
    replays.

    Scale shape (the span-dedup lesson, see dup_spans_documents): span
    TEXT never leaves the explode stage — each occurrence ships as
    (doc, pos, 2x64-bit span hash) = 20 B/span on exchange 1 (partition
    by h1 % num_parts, per-partition sort + boundary-detect finds dup
    groups and emits only the NON-canonical occurrences). Exchange 2
    co-partitions those removal rows with the docs by doc % num_parts
    (the change-join-base merge shape, engine.py:707) and rewrites each
    affected doc with one numpy interval-coverage pass; untouched docs
    stream through the partition unmodified. At 10^10 spans the 128-bit
    birthday odds are ~1e-19 — removal keyed on the hash pair is exact in
    practice."""
    import pandas as pd

    def span_occ(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        n = len(flat)
        empty = pa.table({
            "doc": pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
            "h1": pa.array([], pa.int64()),
            "h2": pa.array([], pa.int64()),
            "_sp": pa.array([], pa.int32()),
        })
        if n < k:
            return empty
        doc_of = np.repeat(np.arange(len(lens)), lens)
        starts = doc_of[: n - k + 1] == doc_of[k - 1:]
        idx = np.flatnonzero(starts)
        if not len(idx):
            return empty
        # span text materializes only transiently inside this stage, for
        # the same double pandas siphash the detection query uses
        parts = [flat.slice(j, n - k + 1) for j in range(k)]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, " ")
        spans = joined.take(pa.array(idx)).to_pandas().to_numpy(
            dtype=object, na_value=""
        )
        h1 = pd.util.hash_array(spans, categorize=False)
        h2 = pd.util.hash_array(
            spans, categorize=False, hash_key="1b3c5d7f9a0e2c4d"
        )
        first_flat = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos = idx - first_flat[doc_of[idx]]
        return pa.table({
            "doc": pa.array(ids[doc_of[idx]].astype(np.int64)),
            "pos": pa.array(pos.astype(np.int64)),
            "h1": pa.array(h1.view(np.int64)),
            "h2": pa.array(h2.view(np.int64)),
            "_sp": pa.array((h1 % num_parts).astype(np.int32)),
        })

    span_occ.__name__ = f"span_occurrences[k={k}]"

    def removals(g: pa.Table) -> pa.Table:
        g = g.sort_by([
            ("h1", "ascending"), ("h2", "ascending"),
            ("doc", "ascending"), ("pos", "ascending"),
        ])
        h1 = g.column("h1").to_numpy(zero_copy_only=False)
        h2 = g.column("h2").to_numpy(zero_copy_only=False)
        new_span = (np.diff(h1, prepend=h1[0] - 1) != 0) | (
            np.diff(h2, prepend=h2[0] - 1) != 0
        )
        span_ids = np.cumsum(new_span) - 1
        occ = np.bincount(span_ids)
        dup = occ[span_ids] >= 2  # occurrence belongs to a duplicated span
        keep = dup & ~new_span  # non-canonical occurrences only
        out = g.filter(pa.array(keep))
        return pa.table({
            "doc": out.column("doc"),
            "pos": out.column("pos"),
        })

    removals.__name__ = "noncanonical_dup_occurrences"
    rem = (
        ds.map_batches(span_occ, batch_format="pyarrow", batch_size=None)
        .groupby("_sp")
        .map_groups(removals, batch_format="pyarrow")
    )

    # keep-col types resolved DRIVER-side from the dataset schema: the
    # rem/doc partition stages run in workers, so a type map populated by
    # one stage's closure would never reach the other's
    keep_types: dict = {}
    if keep_cols:
        reserved = {text_col, id_col, "doc", "pos", "_dp", "text_clean"}
        bad = [c for c in keep_cols if c in reserved]
        if bad:
            # overwriting the internal discriminator columns would turn
            # null-text docs into phantom removal rows (silent data loss)
            raise ValueError(
                f"keep_cols {bad} collide with reserved columns {sorted(reserved)}"
            )
        sch = ds.schema()
        pa_sch = getattr(sch, "base_schema", None)
        if pa_sch is None:
            raise ValueError("remove_dup_spans: cannot resolve keep_cols "
                             "types from the dataset schema")
        keep_types = {c: pa_sch.field(c).type for c in keep_cols}

    def rem_part(t: pa.Table) -> pa.Table:
        doc = t.column("doc").to_numpy(zero_copy_only=False)
        cols = {
            "doc": t.column("doc"),
            "pos": t.column("pos"),
            "text": pa.nulls(t.num_rows, pa.string()),
        }
        for c in keep_cols:
            cols[c] = pa.nulls(t.num_rows, keep_types[c])
        cols["_dp"] = pa.array((doc % num_parts).astype(np.int32))
        return pa.table(cols)

    rem_part.__name__ = "removal_rows"

    def doc_part(t: pa.Table) -> pa.Table:
        doc = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {
            "doc": pa.array(doc),
            "pos": pa.nulls(t.num_rows, pa.int64()),
            # null text -> "" (same normalization the detect side applies);
            # a null here would make the rewrite stage misread the doc row
            # as a removal row (rows are told apart by text validity)
            "text": t.column(text_col).cast(pa.string()).fill_null(""),
        }
        for c in keep_cols:
            cols[c] = t.column(c)
        cols["_dp"] = pa.array((doc % num_parts).astype(np.int32))
        return pa.table(cols)

    doc_part.__name__ = "doc_rows"

    def rewrite(g: pa.Table) -> pa.Table:
        is_doc = pc.is_valid(g.column("text")).to_numpy(zero_copy_only=False)
        docs = g.filter(pa.array(is_doc))
        rems = g.filter(pa.array(~is_doc))
        d_ids = docs.column("doc").to_numpy(zero_copy_only=False)
        if rems.num_rows == 0:
            cols = {id_col: pa.array(d_ids),
                    "text_clean": docs.column("text")}
            for c in keep_cols:
                cols[c] = docs.column(c)
            return pa.table(cols)
        r = rems.sort_by([("doc", "ascending"), ("pos", "ascending")])
        r_doc = r.column("doc").to_numpy(zero_copy_only=False)
        r_pos = r.column("pos").to_numpy(zero_copy_only=False)
        lo = np.searchsorted(r_doc, d_ids, side="left")
        hi = np.searchsorted(r_doc, d_ids, side="right")
        texts = docs.column("text").to_pylist()
        out = list(texts)  # untouched docs pass through unchanged
        for i in np.flatnonzero(hi > lo):
            toks = texts[i].split(" ")
            cover = np.zeros(len(toks) + 1, np.int64)
            p = r_pos[lo[i]:hi[i]]
            np.add.at(cover, p, 1)
            np.subtract.at(cover, np.minimum(p + k, len(toks)), 1)
            keep_mask = np.cumsum(cover[:-1]) == 0
            out[i] = " ".join(
                tok for tok, m in zip(toks, keep_mask) if m
            )
        cols = {
            id_col: pa.array(d_ids),
            "text_clean": pa.array(out, pa.string()),
        }
        for c in keep_cols:
            cols[c] = docs.column(c)
        return pa.table(cols)

    rewrite.__name__ = "rewrite_docs"
    both = rem.map_batches(
        rem_part, batch_format="pyarrow", batch_size=None
    ).union(
        ds.map_batches(doc_part, batch_format="pyarrow", batch_size=None)
    )
    return both.groupby("_dp").map_groups(rewrite, batch_format="pyarrow")


_PII_PATTERNS = [
    # order matters: emails before bare domains; longest-match patterns
    # first. RE2 syntax (pyarrow and DuckDB both run RE2, so the SQL
    # oracle can apply the IDENTICAL patterns).
    ("email", r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"),
    ("phone", r"(\+?[0-9]{1,3}[ .\-])?\(?[0-9]{3}\)?[ .\-][0-9]{3}[ .\-][0-9]{4}\b"),
    ("ipv4", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"),
    ("ssn", r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b"),
]


def redact_pii(text_col: str = "text", out: str | None = None,
               kinds: list[str] | None = None):
    """PII scrubbing for LLM training text: replace emails / phone numbers
    / IPv4 addresses / SSN-shaped ids with ``<KIND>`` tokens. Fully
    vectorized: one ``pc.replace_substring_regex`` pass per pattern over
    the whole batch (RE2, compiled once per call site). The pattern set is
    the pragmatic fast pass LLM pipelines run at ingest; a recall-critical
    deployment layers an NER model behind the same stage signature."""
    target = out or text_col
    pats = [(k, p) for k, p in _PII_PATTERNS if kinds is None or k in kinds]

    def run(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        for kind, pat in pats:
            col = pc.replace_substring_regex(
                col, pattern=pat, replacement=f"<{kind.upper()}>"
            )
        if target == text_col:
            return t.set_column(t.schema.get_field_index(text_col), target, col)
        return t.append_column(target, col)

    run.__name__ = "redact_pii"
    return run


def canonicalize_url(url_col: str = "url", out: str | None = None):
    """URL canonicalization (webtext dedup pre-pass): lowercase scheme +
    host, strip the fragment, strip a trailing slash on the path, drop
    common tracking query params (utm_*), collapse an empty query. Pure
    RE2 string surgery — vectorized and SQL-mirrorable; NOT a full RFC
    3986 normalizer (no percent-decoding or port folding), documented."""
    target = out or url_col

    def run(t: pa.Table) -> pa.Table:
        col = pc.cast(t.column(url_col), pa.string())
        # fragment off first so later patterns see the bare url
        col = pc.replace_substring_regex(col, pattern=r"#.*$", replacement="")
        # drop utm_* params, preserving the neighbors' delimiters:
        # '&utm_x=y' vanishes (interior/trailing &-led), '?utm_x=y&' hands
        # its '?' to the next param, '?utm_x=y' at end drops the '?'.
        # (A single '?'-substitution for all three corrupted interior
        # params: '?a=1&utm_z=2&b=3' became '?a=1?b=3' — round-3 review.)
        col = pc.replace_substring_regex(
            col, pattern=r"&utm_[A-Za-z0-9_]*=[^&#]*", replacement=""
        )
        col = pc.replace_substring_regex(
            col, pattern=r"\?utm_[A-Za-z0-9_]*=[^&#]*&", replacement="?"
        )
        col = pc.replace_substring_regex(
            col, pattern=r"\?utm_[A-Za-z0-9_]*=[^&#]*$", replacement=""
        )
        # lowercase scheme://host prefix by splitting it off
        scheme_host = pc.extract_regex(
            col, pattern=r"^(?P<sh>[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*)(?P<rest>.*)$"
        )
        sh = pc.utf8_lower(pc.struct_field(scheme_host, "sh"))
        rest = pc.struct_field(scheme_host, "rest")
        rejoined = pc.binary_join_element_wise(sh, rest, "")
        col = pc.if_else(pc.is_valid(rejoined), rejoined, col)
        # trailing slash on a non-root path
        col = pc.replace_substring_regex(
            col, pattern=r"(//[^/?#]+(?:/[^?#]*[^/?#]))/(\?|$)", replacement=r"\1\2"
        )
        if target == url_col:
            return t.set_column(t.schema.get_field_index(url_col), target, col)
        return t.append_column(target, col)

    run.__name__ = "canonicalize_url"
    return run


def chunk_token_windows(text_col: str = "text", id_col: str = "doc_id",
                        chunk: int = 32, stride: int = 24):
    """Split each document into overlapping token windows — the chunking
    stage of retrieval / RAG indexing pipelines (window of ``chunk``
    whitespace tokens starting every ``stride`` tokens; the final windows
    may be shorter, and a document shorter than one chunk yields exactly
    one window). Emits (id_col, chunk_id, n_tokens, chunk) rows, 1:N.

    Fully vectorized across the batch (same flatten discipline as
    ``token_window_spans``): ONE token explode for all docs, per-doc chunk
    counts by closed form (ceil(len/stride)), gather indices built from two
    ``np.repeat``/``arange`` passes, and chunk text re-assembled with a
    single Arrow ``binary_join`` over a ListArray — no per-doc Python.
    Stateless per-batch map: no shuffle; at 100 TB this runs at read
    speed and the k-fold byte inflation goes straight to the sink."""

    if stride <= 0 or chunk <= 0:
        raise ValueError("chunk and stride must be positive")

    def run(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern(t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        id_type = t.schema.field(id_col).type
        empty = pa.table({
            id_col: pa.array([], id_type),
            "chunk_id": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "chunk": pa.array([], pa.string()),
        })
        if len(flat) == 0:
            return empty
        doc_starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        # windows start at 0, stride, ... while start < len (len==0 -> none)
        n_chunks = -(-lens // stride) * (lens > 0)
        total_chunks = int(n_chunks.sum())
        if total_chunks == 0:
            return empty
        chunk_doc = np.repeat(np.arange(len(lens)), n_chunks)
        first = np.concatenate([[0], np.cumsum(n_chunks)[:-1]])
        local = np.arange(total_chunks) - first[chunk_doc]  # 0,1,.. per doc
        starts = local * stride
        clen = np.minimum(chunk, lens[chunk_doc] - starts).astype(np.int64)
        # gather indices: for chunk c, doc_starts[doc] + starts[c] + offset
        total_toks = int(clen.sum())
        cfirst = np.concatenate([[0], np.cumsum(clen)[:-1]])
        within = np.arange(total_toks) - np.repeat(cfirst, clen)
        gather = np.repeat(doc_starts[chunk_doc] + starts, clen) + within
        values = flat.take(pa.array(gather))
        offsets = np.concatenate([[0], np.cumsum(clen)]).astype(np.int32)
        lists = pa.ListArray.from_arrays(pa.array(offsets), values)
        text = pc.binary_join(lists, " ")
        return pa.table({
            id_col: pa.array(ids[chunk_doc]),
            "chunk_id": pa.array(local.astype(np.int64)),
            "n_tokens": pa.array(clen),
            "chunk": text,
        })

    run.__name__ = f"chunk_tokens[{chunk}/{stride}]"
    return run


def normalize_text(text_col: str = "text", out: str = "norm_text"):
    """Webtext normalization converter: Unicode NFC + lowercase +
    ASCII-whitespace collapse + space trim — the canonicalization step
    most LLM-prep dedup/quality stages assume upstream (and the string
    analog of the reference's schema-normalizing converters). Per batch,
    no shuffle; RE2 ``\\s`` (ASCII) and plain-space trim are chosen
    deliberately so the result is bit-identical to
    ``trim(regexp_replace(lower(nfc_normalize(x)), '\\s+', ' ', 'g'))``
    in DuckDB.

    NFC path: this pyarrow build's ``utf8_normalize`` is a NO-OP
    (verified: every form returns combining sequences unchanged), so
    composition falls back to ``unicodedata.normalize`` — but only for
    the rows that need it: ASCII-only strings (byte length == codepoint
    length, one vectorized compare) are NFC by definition and never
    leave the Arrow path, so on mostly-ASCII webtext the Python cost is
    proportional to the non-ASCII minority."""

    def run(t: pa.Table) -> pa.Table:
        s = t.column(text_col)
        arr = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
        non_ascii = pc.and_kleene(
            pc.is_valid(arr),
            pc.not_equal(pc.binary_length(arr), pc.utf8_length(arr)),
        )
        n_non = pc.sum(pc.cast(non_ascii, pa.int64())).as_py() or 0
        if n_non:
            import unicodedata

            fixed = pa.array(
                [unicodedata.normalize("NFC", v)
                 for v in arr.filter(non_ascii).to_pylist()],
                pa.string(),
            )
            arr = pc.replace_with_mask(
                arr, pc.fill_null(non_ascii, False), fixed
            )
        arr = pc.utf8_lower(arr)
        arr = pc.replace_substring_regex(arr, pattern=r"\s+",
                                         replacement=" ")
        arr = pc.utf8_trim(arr, characters=" ")
        return t.append_column(out, arr)

    run.__name__ = "normalize_text"
    return run


def strip_html(text_col: str = "html", out: str = "clean_text"):
    """Common-Crawl-style HTML → text extraction (the WET-file step of
    the classic webtext pipeline; Gobblin analog: the string-converter
    family, gobblin-core converter.string.*): drop <script>/<style>
    subtrees and comments, strip remaining tags, unescape the core
    entity set, collapse whitespace. Per batch, fully vectorized RE2
    (``pc.replace_substring_regex``) — no shuffle, no Python rows.

    Every pattern is RE2 (no backreferences — script and style are two
    passes) with inline ``(?is)`` flags, and entities are literal
    replaces, so the result is bit-identical to the same
    ``regexp_replace(..., 'g')`` / ``replace(...)`` chain in DuckDB.
    Real codecs (lxml/bs4) aren't in this container; this is the exact,
    oracle-checkable vectorized core a tree-based extractor would wrap."""

    _TAG_PASSES = [
        (r"(?is)<script[^>]*>.*?</script>", " "),
        (r"(?is)<style[^>]*>.*?</style>", " "),
        (r"(?s)<!--.*?-->", " "),
        (r"(?s)<[^>]*>", " "),
    ]
    _ENTITIES = [
        ("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
        ("&#39;", "'"), ("&nbsp;", " "), ("&amp;", "&"),
    ]

    def run(t: pa.Table) -> pa.Table:
        arr = t.column(text_col)
        for pat, repl in _TAG_PASSES:
            arr = pc.replace_substring_regex(arr, pattern=pat,
                                             replacement=repl)
        for ent, ch in _ENTITIES:
            arr = pc.replace_substring(arr, pattern=ent, replacement=ch)
        arr = pc.replace_substring_regex(arr, pattern=r"\s+",
                                         replacement=" ")
        arr = pc.utf8_trim(arr, characters=" ")
        return t.append_column(out, arr)

    run.__name__ = "strip_html"
    return run


def badwords_filter(words, text_col: str = "text"):
    """C4-style bad-words document filter (Raffel et al. 2020 §2.2 drop
    any page containing a word from the blocklist; same posture as the
    reference's row-level FAIL policies, content- instead of
    schema-driven): ONE RE2 word-boundary alternation evaluated
    vectorized per batch over the Arrow column — no shuffle, no per-row
    Python; the blocklist compiles into the pattern once at pipeline
    build (for 100k+-word lists swap the regex for token-explode +
    ``pc.is_in``, the shape langid uses). Word-boundary semantics: a
    blocklisted word matches whole tokens only ('slow' does not kill
    'slowly'). Null text drops (SQL ``WHERE NOT regexp_matches(..)``
    parity). Returns the KEPT rows."""
    import re as _re

    if not words:
        raise ValueError("badwords_filter needs a non-empty blocklist")
    pat = r"\b(" + "|".join(sorted(_re.escape(w) for w in words)) + r")\b"
    # RE2 rejects some PCRE constructs Python accepts — probe with a
    # one-element array (the empty array skips pattern compilation).
    pc.match_substring_regex(pa.array([""], pa.string()), pat)

    def run(t: pa.Table) -> pa.Table:
        hit = pc.match_substring_regex(
            pc.cast(t.column(text_col), pa.string()), pat
        )
        return t.filter(pc.invert(pc.fill_null(hit, True)))

    run.__name__ = "badwords_filter"
    return run


def bm25_topk(ds, query_terms: list[str], text_col: str = "text",
              id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
              topk: int = 20, digits: int = 4):
    """Okapi BM25 ranked retrieval for one query termset (Robertson &
    Zaragoza 2009; the +1 Lucene idf form ln(1 + (N-df+.5)/(df+.5)) so
    every idf stays positive) — the ranking step over the inverted-index
    family (build_inverted_index gives the index; this gives the scores).

    Two passes, tfidf_top_terms' shape:
    1. Stats: a per-batch combiner emits (term, partial_df) for the QUERY
       terms only, plus sentinel rows carrying doc count and total token
       count -> one O(|Q|) groupby exchange -> the driver derives idf_t
       (math.log on |Q| scalars, libm-parity with SQL ln; rounded
       half-away to 8 digits on BOTH sides so the libm question never
       reaches the hash compare) and avgdl.
    2. Score: per batch, |Q| vectorized equal+bincount passes give each
       doc's tf vector; the BM25 sum accumulates in query-term order with
       the exact association the oracle SQL spells out; half-away
       rounding; per-block partial top-k -> tiny final sort on
       (score desc, id asc). No shuffle beyond the O(|Q|) stats exchange
       and the k-rows-per-block top-k.
    """
    import math

    from ray.data.aggregate import Sum

    from ..stages.sorts import top_k

    _N = "\x00__n_docs__"
    _L = "\x00__total_len__"

    def _split(t: pa.Table):
        toks = pc.split_pattern(
            t.column(text_col).fill_null(""), pattern=" ")
        flat = pc.list_flatten(toks).combine_chunks()
        parents = pc.list_parent_indices(toks).to_numpy(
            zero_copy_only=False)
        return toks, flat, parents

    def partial_stats(t: pa.Table) -> pa.Table:
        _, flat, parents = _split(t)
        terms, vals = [], []
        for q in query_terms:
            m = pc.equal(flat, pa.scalar(q)).to_numpy(
                zero_copy_only=False).astype(bool)
            terms.append(q)
            vals.append(int(np.unique(parents[m]).size))
        terms += [_N, _L]
        vals += [t.num_rows, int(len(flat))]
        return pa.table({"term": pa.array(terms, pa.string()),
                         "pdf": pa.array(vals, pa.int64())})

    partial_stats.__name__ = "bm25_stats"
    st = (ds.map_batches(partial_stats, batch_format="pyarrow",
                         batch_size=None)
          .groupby("term").aggregate(Sum("pdf", alias_name="v"))
          .to_pandas())
    sv = dict(zip(st["term"], st["v"]))
    n_docs, total_len = int(sv[_N]), int(sv[_L])
    avgdl = total_len / n_docs
    from ..kernels import duck_round

    def _r8(x: float) -> float:
        return float(duck_round(x, 8))

    idf = [
        _r8(math.log((n_docs - int(sv.get(q, 0)) + 0.5)
                     / (int(sv.get(q, 0)) + 0.5) + 1.0))
        for q in query_terms
    ]
    def score(t: pa.Table) -> pa.Table:
        toks, flat, parents = _split(t)
        n = t.num_rows
        dl = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.float64)
        denom_base = k1 * ((1.0 - b) + (b * dl) / avgdl)
        s = np.zeros(n, np.float64)
        for q, w in zip(query_terms, idf):
            m = pc.equal(flat, pa.scalar(q)).to_numpy(
                zero_copy_only=False).astype(bool)
            tf = np.bincount(parents[m], minlength=n).astype(np.float64)
            s = s + w * (tf * (k1 + 1.0)) / (tf + denom_base)
        s = duck_round(s, digits)
        return pa.table({id_col: t.column(id_col),
                         "score": pa.array(s, pa.float64())})

    score.__name__ = "bm25_score"
    scored = ds.map_batches(score, batch_format="pyarrow",
                            batch_size=None)
    return top_k(scored, topk, by=["score", id_col],
                 descending=[True, False])


def char_entropy(id_col: str = "doc_id", text_col: str = "text",
                 out: str = "h", digits: int = 4):
    """Per-document Shannon character entropy in BITS (unigram codepoint
    distribution): ``H = log2(n) - (sum_c k_c*log2(k_c)) / n`` — the
    low-diversity / gibberish screen next to the repetition-signal family
    (Rae et al. 2021 'Gopher' screens on symbol diversity; unigram
    entropy is the oracle-checkable core; a keyboard-mash or
    single-char-padded page scores far below natural text). Returns a
    per-batch callable emitting (id_col, out); null/empty text rows are
    DROPPED (they have no distribution — the SQL oracle's WHERE matches).

    Vectorized per batch, no shuffle: ONE pass over the Arrow string
    column's raw data buffer. ASCII batches (byte count == codepoint
    count, the webtext common case) read codepoints straight from the
    UTF-8 buffer zero-copy; any non-ASCII batch falls back to one
    utf-32 decode of the batch's concatenated text. Per-doc counts via
    np.unique over (doc_idx << 21 | codepoint) composite keys (codepoints
    < 0x110000 fit 21 bits) + one reduceat — no per-doc Python.

    DuckDB parity: the same ``log2(n) - sum(k*log2(k))/n`` expression,
    ``round(.., digits)`` both sides (half-away, kernels.duck_round);
    the engine sums per-doc contributions in ascending-codepoint order
    while SQL's aggregate order is unspecified — both orders land on the
    same rounded value (association error ~1e-15 against a 10^-digits
    grid)."""
    from ..kernels import duck_round

    def run(t: pa.Table) -> pa.Table:
        s = t.column(text_col)
        # fill_null: a null text makes the AND null, and pc.all IGNORES
        # nulls — the guard must see it as False or the filter is skipped
        valid = pc.fill_null(pc.and_(pc.is_valid(s),
                                     pc.greater(pc.utf8_length(s), 0)),
                             False)
        if not pc.all(valid).as_py():
            t = t.filter(valid)
            s = t.column(text_col)
        n = t.num_rows
        if n == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             out: pa.array([], pa.float64())})
        arr = s.combine_chunks()
        if not pa.types.is_string(arr.type):
            # the buffer walk below assumes 32-bit offsets; large_string
            # (64-bit offsets) would be silently misparsed — cast (cheap
            # at bounded batch sizes; >2GB batches must be resized)
            arr = arr.cast(pa.string())
        off = np.frombuffer(arr.buffers()[1], np.int32)[
            arr.offset: arr.offset + n + 1]
        data = np.frombuffer(arr.buffers()[2], np.uint8)[off[0]: off[-1]]
        byte_lens = np.diff(off).astype(np.int64)
        if (data < 128).all():  # ASCII fast path: bytes ARE codepoints
            cp = data.astype(np.int64)
            lens = byte_lens
        else:
            joined = "".join(arr.to_pylist())
            cp = np.frombuffer(joined.encode("utf-32-le"),
                               np.uint32).astype(np.int64)
            lens = pc.utf8_length(arr).to_numpy(
                zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        uniq, counts = np.unique((doc_idx << 21) | cp, return_counts=True)
        doc_of = uniq >> 21
        starts = np.flatnonzero(np.concatenate(
            [[True], doc_of[1:] != doc_of[:-1]]))
        k = counts.astype(np.float64)
        sums = np.add.reduceat(k * np.log2(k), starts)
        nn = lens.astype(np.float64)
        h = duck_round(np.log2(nn) - sums / nn, digits)
        return pa.table({
            id_col: t.column(id_col).cast(pa.int64()),
            out: pa.array(h, pa.float64()),
        })

    run.__name__ = "char_entropy"
    return run


def compression_ratio(id_col: str = "doc_id", text_col: str = "text",
                      level: int = 6):
    """Per-document zlib compression ratio (compressed_bytes / raw_bytes)
    — the Gopher-family "compressibility" quality screen: highly
    repetitive/templated pages compress far below ~0.4, incompressible
    noise sits near (or, for SHORT documents, above) 1.0 — zlib's fixed
    ~8-12 byte header means a 5-byte doc can report ratio >2, so pair an
    upper-tail filter with a ``raw_len`` floor. Complements
    ``char_entropy`` (symbol diversity) with sequence-level redundancy.

    Per-row ``zlib.compress`` is the documented trade-off (no vectorized
    deflate kernel — same posture as the md5 fingerprint stage); the C
    deflate dominates per-row cost and the stateless transform runs as a
    plain task-pool ``map_batches`` (no per-worker setup to amortize, so
    no actor pool needed), parallel across batches. Empty/null texts
    report ratio 0.0 (nothing to compress). zlib output is deterministic
    for a fixed level within one zlib build, which the oracle sidecar
    shares.

    Returns (id_col, raw_len int64, ratio float64)."""
    import zlib

    def run(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pylist()
        raw = np.empty(len(texts), np.int64)
        comp = np.empty(len(texts), np.int64)
        for i, s in enumerate(texts):
            b = (s or "").encode()
            raw[i] = len(b)
            comp[i] = len(zlib.compress(b, level)) if b else 0
        ratio = np.where(raw > 0, comp / np.maximum(raw, 1), 0.0)
        return pa.table({
            id_col: t.column(id_col),
            "raw_len": pa.array(raw),
            "ratio": pa.array(ratio, pa.float64()),
        })

    run.__name__ = "compression_ratio"
    return run
