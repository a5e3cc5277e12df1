"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine — first-class components of a web-scale training-data
pipeline (the reference delegates all dedup to destination key constraints,
WriterUtil.java:110-167; here we own it, SURVEY.md §2.4).

Scale shapes:
  * exact        — hash column in map_batches → groupby(hash) keep-first:
                   one shuffle of (hash, id) pairs only.
  * MinHash+LSH  — per-batch signature computation (numpy), flat-map to
                   (band_id, band_hash, doc_id) rows, groupby band bucket →
                   candidate pairs, verify Jaccard. Only signatures shuffle.
  * SimHash      — 64-bit signature per doc; candidates share one of four
                   16-bit chunks (Hamming ≤ r by pigeonhole).
  * embedding    — blockwise cosine against a broadcast (ray.put) matrix —
                   no shuffle; the LSH/IVF variant buckets first at scale.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def add_content_key(batch: pa.Table, col: str = "text", out: str = "content_key") -> pa.Table:
    """md5 hex of the column (matches DuckDB md5() for the oracle).

    Hashes the Arrow UTF-8 buffer bytes directly (cast to binary, iterate
    scalars as bytes) — no str-decode + re-encode round trip per row; md5
    itself has no vectorized kernel anywhere in the stack."""
    import hashlib

    md5 = hashlib.md5
    vals = [md5(v).hexdigest() if v is not None else ""
            for v in batch[col].cast(pa.binary()).to_pylist()]
    return batch.append_column(out, pa.array(vals, pa.string()))


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id"):
    """Keep the min-id row per distinct content. Winner selection is a
    C-speed tree aggregate (content keys ≈ rows — exactly the cardinality
    regime where a groupby().map_groups keep-first collapses, ~8k groups/s);
    winners then pull their full rows back via one inner hash join."""
    from ..stages.hashagg import tree_aggregate

    keyed = ds.map_batches(lambda t: add_content_key(t, col), batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.select(["content_key", id_col]),
                            ["content_key"]).aggregate([(id_col, "min")])
        return g.rename_columns(["content_key", "_keep"])

    winners = tree_aggregate(keyed, ["content_key"], partial, {"_keep": "min"})
    out = keyed.join(winners, join_type="inner", num_partitions=8,
                     on=("content_key", id_col), right_on=("content_key", "_keep"))
    return out


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


class MinHasher:
    """Per-batch MinHash signatures over word k-shingles.

    Universal hashing: sig_j(doc) = min over shingles s of (a_j·h(s)+b_j mod p).
    a/b drawn once from a fixed seed (deterministic across runs). The numpy
    inner product vectorizes over (shingles × permutations) per doc.
    """

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.num_perm = num_perm
        self.k = shingle_k
        self.a = rng.integers(1, 1 << 60, size=num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, 1 << 60, size=num_perm, dtype=np.uint64)

    def shingles(self, text: str) -> np.ndarray:
        toks = text.split()
        if len(toks) < self.k:
            grams = [" ".join(toks)] if toks else []
        else:
            grams = [" ".join(toks[i : i + self.k]) for i in range(len(toks) - self.k + 1)]
        return np.unique(
            np.fromiter((zlib.crc32(g.encode()) for g in grams), dtype=np.uint64,
                        count=len(grams))
        )

    def signature(self, text: str) -> np.ndarray:
        h = self.shingles(text)
        if len(h) == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # (S,1)*(P,) -> (S,P); 61-bit mod keeps products exact in uint64? No —
        # a·h can exceed 64 bits, but overflow wraps mod 2^64 consistently on
        # every node, which is all a hash family needs (determinism, spread).
        vals = (h[:, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
        return vals.min(axis=0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [self.signature(t or "") for t in batch["text"].to_pylist()]
        return batch.append_column(
            "minhash", pa.array([s.astype(np.int64) for s in sigs], pa.list_(pa.int64()))
        )


def explode_bands(batch: pa.Table, num_bands: int, id_col: str = "doc_id") -> pa.Table:
    """(doc, signature) → one row per band: (band_key, doc_id). band_key folds
    (band_id, band_hash) into one string so a single-column groupby buckets it."""
    ids, keys = [], []
    for did, sig in zip(batch[id_col].to_pylist(), batch["minhash"].to_pylist()):
        sig = np.asarray(sig, dtype=np.uint64)
        rows = len(sig) // num_bands
        for b in range(num_bands):
            band = sig[b * rows : (b + 1) * rows]
            keys.append(f"{b}:{zlib.crc32(band.tobytes()):08x}")
            ids.append(did)
    # type the id array explicitly: an EMPTY batch (common at high read
    # parallelism) would otherwise infer doc_id: null and poison any strict
    # schema concat downstream (the r03 gate crash at num_cpus=32)
    return pa.table({"band_key": pa.array(keys, pa.string()),
                     id_col: pa.array(ids, type=batch.schema.field(id_col).type)})


def candidate_pairs_from_bucket(g: pa.Table, id_col: str = "doc_id",
                                max_bucket: int = 256) -> pa.Table:
    """All unordered pairs within one LSH bucket, capped: pair expansion is
    O(b²), so one degenerate bucket (e.g. many empty texts → identical
    signature) would explode — the classic skewed-key hazard. Over the cap we
    keep the first max_bucket ids (sorted: deterministic) and log the drop;
    real dup clusters that large are better handled by exact_dedup on the
    degenerate key."""
    ids = np.sort(np.asarray(g[id_col].combine_chunks().to_numpy(
        zero_copy_only=False), dtype=np.int64))
    if len(ids) > max_bucket:
        print(f"[dedup] LSH bucket of {len(ids)} docs capped to {max_bucket} "
              f"({len(ids) - max_bucket} dropped)")
        ids = ids[:max_bucket]
    ii, jj = np.triu_indices(len(ids), k=1)
    return pa.table({"id_a": pa.array(ids[ii], pa.int64()),
                     "id_b": pa.array(ids[jj], pa.int64())})


def pairs_from_buckets(hot_ds, key_col: str, pair_fn,
                       keys: list[str], combine: dict[str, str],
                       hot_rows: int, small_limit: int = 2_000_000):
    """Candidate pairs from a (pre-filtered) bucket-membership dataset.

    hot_ds holds ONLY pair-producing buckets (multi_member_buckets), so its
    size is O(dup-cluster memberships), not O(corpus). For the common case
    (hot_rows ≤ small_limit) the whole expansion runs in ONE Ray task —
    concat, sort by bucket, per-bucket pair_fn, then an in-task
    pa.TableGroupBy distinct — because a full sort-shuffle groupby plus a
    distinct tree over a few thousand rows is pure fixed overhead (measured:
    ~1.5 s of a 6 s query). Degenerate corpora fall back to the distributed
    groupby + tree distinct."""
    import ray
    import ray.data

    from ..stages.hashagg import _combine_once, tree_distinct

    if hot_rows <= small_limit:
        @ray.remote(num_cpus=1)
        def expand(*tables: pa.Table) -> pa.Table:
            # zero-row blocks are routine at high parallelism (more read
            # tasks than rows) and may carry degraded inferred types from
            # upstream stages — drop them, and concat permissively so one
            # straggler schema cannot fail the whole expansion
            nonempty = [t for t in tables if len(t)]
            if not nonempty:
                base = tables[0] if tables else pa.table(
                    {key_col: pa.array([], pa.string())})
                return _combine_once(keys, combine, pair_fn(base.slice(0, 0)))
            t = pa.concat_tables(nonempty, promote_options="permissive") \
                .sort_by([(key_col, "ascending")])
            # run boundaries: dictionary codes of a sorted column are
            # non-decreasing (codes assigned at first appearance)
            codes = t[key_col].combine_chunks().dictionary_encode() \
                .indices.to_numpy(zero_copy_only=False)
            bounds = np.flatnonzero(np.diff(codes)) + 1
            outs, start = [], 0
            for end in list(bounds) + [len(t)]:
                outs.append(pair_fn(t.slice(start, end - start)))
                start = end
            return _combine_once(keys, combine,
                                 pa.concat_tables(outs))

        refs = list(hot_ds.to_arrow_refs())
        out = [expand.remote(*refs)]
        # settle the ref before building a Dataset over it (see
        # manifest.jobs_dataset: a Ray core ref-count race on still-pending
        # task outputs)
        ray.wait(out, num_returns=1, fetch_local=False)
        return ray.data.from_arrow_refs(out)

    pairs = hot_ds.groupby(key_col).map_groups(pair_fn, batch_format="pyarrow")
    return tree_distinct(pairs, keys, combine=combine or None)


def multi_member_buckets(ds, key_col: str, join_partitions: int = 8,
                         broadcast_limit: int = 4_000_000):
    """Drop singleton buckets BEFORE a bucket groupby. Bucket count ≈
    rows (every doc appears in every band/table), but only buckets with ≥2
    members can produce a candidate pair — and on real corpora nearly all
    buckets are singletons. Counting runs as a C-speed tree aggregate
    (pa.TableGroupBy partials + fan-in); the surviving hot-key set is
    bounded by the true dup-cluster count, so it is broadcast once
    (ray.put, read per task — never re-shipped per batch) and membership is
    a vectorized is_in filter. A degenerate corpus whose hot-key set
    exceeds ``broadcast_limit`` falls back to an inner hash join — the
    shuffle is then the cheaper side of the trade.

    Returns (filtered_ds, hot_member_rows, bucket_sizes) — the row count
    steers the downstream pair expansion (pairs_from_buckets single-task
    fast path); bucket_sizes (the multi-member buckets' member counts, a
    driver-side numpy array) lets callers detect cap-induced candidate drops
    BEFORE they happen and fail or warn loudly (see check_bucket_caps)."""
    import ray

    from ..stages.hashagg import tree_aggregate

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.select([key_col]), [key_col]) \
            .aggregate([(key_col, "count")])
        return g.rename_columns([key_col, "_bn"])

    # the input is consumed TWICE (count pass + membership filter) — persist
    # it so the signature computation upstream doesn't run twice; bucket
    # rows are narrow (key + id). Above DATAXRAY_STAGE_BUDGET_BYTES the
    # persist is a staged parquet write instead of pinned plasma blocks
    from ..stages.persist import persist_multi_pass
    ds = persist_multi_pass(ds, label="buckets")
    multi = tree_aggregate(ds, [key_col], partial, {"_bn": "sum"}) \
        .filter(expr="_bn >= 2")
    keys_tbl = pa.concat_tables(ray.get(multi.to_arrow_refs()))
    hot_rows = int(pc.sum(keys_tbl["_bn"]).as_py() or 0)
    sizes = keys_tbl["_bn"].combine_chunks().to_numpy(zero_copy_only=False)
    if len(keys_tbl) <= broadcast_limit:
        ref = ray.put(keys_tbl[key_col].combine_chunks())

        def filt(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t[key_col], value_set=ray.get(ref)))

        return ds.map_batches(filt, batch_format="pyarrow"), hot_rows, sizes
    out = ds.join(multi, join_type="inner", num_partitions=join_partitions,
                  on=(key_col,))
    return out.drop_columns(["_bn"]), hot_rows, sizes


def check_bucket_caps(sizes, max_bucket: int, op: str,
                      on_capped: str = "warn") -> int:
    """Driver-side guard for the per-bucket pair-expansion cap: any bucket
    with more than ``max_bucket`` members will have candidates silently
    truncated inside a worker. Operators that advertise EXACT results
    (ngram_jaccard_pairs) pass on_capped="raise" so a gate run fails loudly
    instead of diverging quietly from its oracle; probabilistic operators
    warn on the driver (visible, unlike a worker-side print). Returns the
    number of dropped bucket memberships."""
    over = sizes[sizes > max_bucket] if len(sizes) else sizes
    if len(over) == 0:
        return 0
    dropped = int((over - max_bucket).sum())
    msg = (f"[{op}] {len(over)} bucket(s) exceed max_bucket={max_bucket} "
           f"(largest {int(over.max())}; {dropped} memberships dropped) — "
           f"raise max_bucket or pre-dedup the degenerate key")
    if on_capped == "raise":
        raise RuntimeError(msg)
    print(msg)
    return dropped


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-shingle Jaccard (verification step after LSH)."""
    mh = MinHasher(shingle_k=k)
    sa, sb = set(mh.shingles(text_a).tolist()), set(mh.shingles(text_b).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(len(sa | sb), 1)


def shingles64(text: str, k: int = 3) -> np.ndarray:
    """Sorted distinct 64-bit (blake2b) word-k-shingle hashes.

    The EXACT dedup path hashes at 64 bits, not crc32: the ngram-Jaccard
    operator's set intersections must equal string-set intersections, and a
    32-bit space has birthday collisions at corpus scale (~0.3 expected
    collisions per 50k distinct shingles) that would perturb Jaccard values.
    At 2^64 a billion-shingle corpus still has ~1e-20 per-pair odds; a
    128-bit digest is the upgrade path if that ever matters."""
    from hashlib import blake2b

    toks = text.split()
    if len(toks) < k:
        grams = [" ".join(toks)] if toks else []
    else:
        grams = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    if not grams:
        return np.empty(0, dtype=np.uint64)
    h = np.fromiter(
        (int.from_bytes(blake2b(g.encode(), digest_size=8).digest(), "little")
         for g in grams),
        dtype=np.uint64, count=len(grams))
    return np.unique(h)


class Shingler:
    """map_batches stage emitting each doc's distinct shingle hashes as a
    list column — the verify currency that lets exact Jaccard run as a keyed
    join instead of re-reading (or broadcasting) the corpus text."""

    def __init__(self, shingle_k: int = 3, id_col: str = "doc_id",
                 id_out: str = "doc_id", sh_out: str = "shingles",
                 bits: int = 32):
        self.mh = MinHasher(shingle_k=shingle_k)
        self.k = shingle_k
        self.bits = bits  # 32 = crc32 (minhash family), 64 = blake2b (exact)
        self.id_col, self.id_out, self.sh_out = id_col, id_out, sh_out

    def __call__(self, batch: pa.Table) -> pa.Table:
        # packed uint64 bytes, not list<int64>: Acero hash joins reject list
        # payload columns; np.frombuffer unpacks zero-copy on the verify side
        fn = self.mh.shingles if self.bits == 32 else \
            (lambda t: shingles64(t, self.k))
        sh = [fn(t or "").tobytes() for t in batch["text"].to_pylist()]
        return pa.table({self.id_out: pc.cast(batch[self.id_col], pa.int64()),
                         self.sh_out: pa.array(sh, pa.binary())})


def minhash_dedup_pairs(ds, num_perm: int = 64, num_bands: int = 16,
                        shingle_k: int = 3, threshold: float = 0.7,
                        id_col: str = "doc_id", max_bucket: int = 256,
                        join_partitions: int = 8):
    """Full MinHash-LSH near-dup pipeline → verified candidate pairs
    (id_a, id_b, jaccard ≥ threshold).

    Every step is a Dataset transform — nothing materializes the corpus on
    the driver and nothing broadcasts the corpus to workers:
      1. signatures per batch (numpy), band-explode; singleton buckets are
         dropped by a C-speed count (tree aggregate + broadcast hot-key
         filter) BEFORE the per-bucket pair expansion, which is therefore
         O(dup clusters), not O(corpus); bucket size capped (skew guard);
      2. distinct-ify pairs as a tree aggregate (a pair can surface from
         several bands);
      3. verification = exact shingle-set Jaccard over CANDIDATE docs only:
         re-tokenization runs on is_in-filtered rows, and the small
         candidate shingle table is broadcast to the verifier (falls back
         to two keyed hash joins when the candidate set is degenerate-huge).
    """
    sig = ds.map_batches(MinHasher(num_perm, shingle_k), batch_format="pyarrow",
                         batch_size=1024)
    bands = sig.map_batches(
        lambda t: explode_bands(t.select([id_col, "minhash"]), num_bands, id_col),
        batch_format="pyarrow",
    )
    # singleton buckets (the overwhelming majority) never reach the per-group
    # Python stage; pair expansion + distinct collapse into one task for
    # dup-cluster-sized hot sets (pairs_from_buckets), else a distributed
    # groupby + tree distinct — never a row-cardinality groupby
    bands, hot_rows, sizes = multi_member_buckets(bands, "band_key",
                                                  join_partitions)
    check_bucket_caps(sizes, max_bucket, "minhash_dedup_pairs")
    pairs = pairs_from_buckets(
        bands, "band_key",
        lambda g: candidate_pairs_from_bucket(g, id_col, max_bucket),
        ["id_a", "id_b"], {}, hot_rows,
    )

    return verify_pairs_jaccard(ds, pairs, threshold=threshold,
                                shingle_k=shingle_k, id_col=id_col,
                                join_partitions=join_partitions)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (prefix filtering)
# ---------------------------------------------------------------------------


class PrefixExplode:
    """Emit each doc's PREFIX shingle hashes as (sh_key, doc_id) index rows.

    Prefix filtering (PPJoin family, Bayardo et al. WWW'07 / Chaudhuri et
    al. ICDE'06): under ANY fixed total order on shingles, two sets with
    Jaccard ≥ t must share an element within each set's first
    ``|d| - ceil(t*|d|) + 1`` elements. Indexing only prefixes keeps the
    exploded index at ~(1-t) of total shingle volume while keeping candidate
    generation EXACT (a superset of all true pairs).

    Two total orders, both exact:
      * hash order (df_ref=None) — no preparation pass;
      * frequency order — ascending (global document frequency, hash):
        RARE shingles land in prefixes, so shared-by-many shingles (the hot
        buckets) are indexed by far fewer docs. ``df_ref`` is a ray.put of
        (sorted hash array, df array) holding ONLY df ≥ 2 shingles — a
        shingle absent from it has df 1 (it can't produce a pair at all),
        so the broadcast is bounded by the SHARED-shingle vocabulary, not
        the corpus vocabulary; the order (df, hash) is total and computed
        identically on every node, which is all the theorem needs."""

    def __init__(self, threshold: float, shingle_k: int = 3,
                 id_col: str = "doc_id", df_ref=None):
        self.t = threshold
        self.k = shingle_k
        self.id_col = id_col
        self.df_ref = df_ref
        self._df = None  # resolved once per worker

    def _order(self, h: np.ndarray) -> np.ndarray:
        if self.df_ref is None:
            return h  # shingles64 output is already hash-sorted
        if self._df is None:
            import ray

            self._df = ray.get(self.df_ref)
        dfh, dfc = self._df
        pos = np.searchsorted(dfh, h)
        pos[pos >= len(dfh)] = max(len(dfh) - 1, 0)
        df = np.ones(len(h), dtype=np.int64)
        if len(dfh):
            hit = dfh[pos] == h
            df[hit] = dfc[pos[hit]]
        return h[np.lexsort((h, df))]

    def __call__(self, batch: pa.Table) -> pa.Table:
        import math

        keys, ids = [], []
        for did, text in zip(
                pc.cast(batch[self.id_col], pa.int64()).to_pylist(),
                batch["text"].to_pylist()):
            h = shingles64(text or "", self.k)
            if len(h) == 0:
                continue  # shingle-less docs join nothing (oracle: J is 0/0)
            p = len(h) - math.ceil(self.t * len(h)) + 1
            keys.append(self._order(h)[:p])
            ids.append(np.full(p, did, dtype=np.int64))
        if not keys:
            return pa.table({"sh_key": pa.array([], pa.int64()),
                             self.id_col: pa.array([], pa.int64())})
        return pa.table({
            "sh_key": pa.array(np.concatenate(keys).view(np.int64)),
            self.id_col: pa.array(np.concatenate(ids)),
        })


def shared_shingle_df(ds, shingle_k: int = 3):
    """One cheap counting pass → ray.put((sorted hashes, df)) of shingles
    with document frequency ≥ 2. Per-batch C-speed partials (each doc's
    shingles are distinct, so a concat + value_counts IS the df) + tree
    fan-in; only (hash, count) pairs shuffle, and only df ≥ 2 rows — the
    potential bucket keys — reach the driver."""
    import ray

    from ..stages.hashagg import tree_aggregate

    k = shingle_k

    def partial(t: pa.Table) -> pa.Table:
        hs = [shingles64(x or "", k) for x in t["text"].to_pylist()]
        flat = np.concatenate(hs) if hs else np.empty(0, dtype=np.uint64)
        tb = pa.table({"sh": pa.array(flat.view(np.int64)),
                       "_df": pa.array(np.ones(len(flat), dtype=np.int64))})
        g = pa.TableGroupBy(tb, ["sh"]).aggregate([("_df", "sum")])
        return g.rename_columns(["sh", "_df"])

    out = tree_aggregate(ds, ["sh"], partial, {"_df": "sum"})
    tbl = pa.concat_tables(ray.get(out.to_arrow_refs()))
    tbl = tbl.filter(pc.greater_equal(tbl["_df"], 2))
    hashes = tbl["sh"].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64).view(np.uint64)
    counts = tbl["_df"].combine_chunks().to_numpy(
        zero_copy_only=False).astype(np.int64)
    # sort in the UNSIGNED domain: consumers searchsorted with uint64 keys
    # (an int64-ordered view silently breaks membership lookups for hashes
    # with the high bit set — half of them)
    order = np.argsort(hashes, kind="stable")
    return ray.put((hashes[order], counts[order]))


def ngram_jaccard_pairs(ds, threshold: float = 0.7, shingle_k: int = 3,
                        id_col: str = "doc_id", max_bucket: int = 1024,
                        join_partitions: int = 8, order: str = "frequency"):
    """EXACT word-n-gram Jaccard similarity join → all pairs with J ≥ t.

    Same shuffle discipline as minhash_dedup_pairs but with a deterministic
    guarantee instead of probabilistic recall: candidates come from an
    inverted index over prefix shingles (see PrefixExplode — any true pair
    provably shares a prefix bucket), singleton buckets are dropped by a
    C-speed tree count, pair expansion is capped per bucket (a capped bucket
    now RAISES on the driver — exactness is never traded silently), and the
    final exact set-Jaccard verification re-tokenizes candidate docs only.
    Only prefix index rows (~(1-t) × shingle count) ever shuffle.

    ``order`` picks the prefix total order: "frequency" (default; one extra
    counting pass, rare-shingles-first — hot buckets shrink by the prefix
    membership of every common shingle) or "hash" (no counting pass)."""
    if order not in ("frequency", "hash"):
        raise ValueError(f"unknown prefix order {order!r}")
    # persist: consumed up to 3× (df pass, prefix explode, verify filter);
    # staged to parquet instead of plasma above DATAXRAY_STAGE_BUDGET_BYTES
    from ..stages.persist import persist_multi_pass
    ds = persist_multi_pass(ds, label="jaccard-corpus")
    df_ref = shared_shingle_df(ds, shingle_k) if order == "frequency" else None
    pref = ds.map_batches(PrefixExplode(threshold, shingle_k, id_col, df_ref),
                          batch_format="pyarrow", batch_size=1024)
    hot, hot_rows, sizes = multi_member_buckets(pref, "sh_key",
                                                join_partitions)
    # this operator advertises an EXACT join: a capped bucket would silently
    # drop true pairs, so fail loudly (ADVICE r03) — the caller can raise
    # max_bucket or route the degenerate shingle through exact_dedup first
    check_bucket_caps(sizes, max_bucket, "ngram_jaccard_pairs",
                      on_capped="raise")
    pairs = pairs_from_buckets(
        hot, "sh_key",
        lambda g: candidate_pairs_from_bucket(g, id_col, max_bucket),
        ["id_a", "id_b"], {}, hot_rows,
    )
    return verify_pairs_jaccard(ds, pairs, threshold=threshold,
                                shingle_k=shingle_k, id_col=id_col,
                                join_partitions=join_partitions, bits=64)


def verify_pairs_jaccard(ds, pairs, threshold: float = 0.7, shingle_k: int = 3,
                         id_col: str = "doc_id", join_partitions: int = 8,
                         bits: int = 32, metric: str = "jaccard"):
    """Exact shingle-set verification of candidate (id_a, id_b) pairs
    against the corpus ``ds`` — emits (id_a, id_b, jaccard ≥ threshold).
    ``metric``: "jaccard" = |A∩B|/|A∪B| (symmetric) or "containment" =
    |A∩B|/|A| (directed; shingle-less A never matches — it produced no
    candidate memberships either, keeping filter and verify consistent).

    Candidate ids (distinct over both pair sides) are a tiny fraction of
    the corpus, so the expensive re-tokenization (Shingler) runs only on
    matching rows — the full corpus text never tokenizes twice and never
    moves. The candidate shingle table is bounded by the LSH bucket caps."""
    import ray

    # scores from (|A∩B|, |A|, |B|) — shingle arrays are sorted-distinct
    # (shingles64), so |A∩B| is one C-speed np.intersect1d per pair, not a
    # Python set build over every element
    if metric == "jaccard":
        def score(inter: int, la: int, lb: int) -> float:
            return 1.0 if la == 0 and lb == 0 else \
                inter / max(la + lb - inter, 1)
    elif metric == "containment":
        def score(inter: int, la: int, lb: int) -> float:
            return inter / la if la else -1.0
    else:
        raise ValueError(f"unknown metric {metric!r}")

    def both_sides(t: pa.Table) -> pa.Table:
        return pa.table({"sid": pa.concat_arrays(
            [t["id_a"].combine_chunks(), t["id_b"].combine_chunks()])})

    from ..stages.hashagg import tree_distinct as _td

    cand_ids = pa.concat_tables(ray.get(
        _td(pairs.map_batches(both_sides, batch_format="pyarrow"), ["sid"])
        .to_arrow_refs()))["sid"].combine_chunks()
    ids_ref = ray.put(cand_ids)

    sh = ds.map_batches(
        lambda t: t.filter(pc.is_in(pc.cast(t[id_col], pa.int64()),
                                    value_set=ray.get(ids_ref))),
        batch_format="pyarrow",
    ).map_batches(Shingler(shingle_k, id_col, "sid", "sh", bits=bits),
                  batch_format="pyarrow", batch_size=1024)

    if len(cand_ids) <= 2_000_000:
        # common case: broadcast the candidate shingle table once (refs move
        # via the object store, assembled per task — pairs is one block, so
        # one task; a plain function avoids actor-pool spin-up)
        sh_refs = list(sh.to_arrow_refs())

        def broadcast_verify(batch: pa.Table) -> pa.Table:
            tbl = pa.concat_tables(ray.get(list(sh_refs)))
            lut = {sid: np.frombuffer(b_, dtype=np.uint64)
                   for sid, b_ in zip(tbl["sid"].to_pylist(),
                                      tbl["sh"].to_pylist())}
            empty = np.empty(0, dtype=np.uint64)
            out = {"id_a": [], "id_b": [], "jaccard": []}
            for a, b in zip(batch["id_a"].to_pylist(), batch["id_b"].to_pylist()):
                sa = lut.get(a, empty)
                sb = lut.get(b, empty)
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                j = score(inter, len(sa), len(sb))
                if j >= threshold:
                    out["id_a"].append(a)
                    out["id_b"].append(b)
                    out["jaccard"].append(j)
            return pa.table({"id_a": pa.array(out["id_a"], pa.int64()),
                             "id_b": pa.array(out["id_b"], pa.int64()),
                             "jaccard": pa.array(out["jaccard"], pa.float64())})

        return pairs.map_batches(broadcast_verify, batch_format="pyarrow")

    # degenerate corpora (huge candidate sets): two keyed hash joins keep the
    # verify fully shuffled — shingle lists ride as packed binary (Acero
    # rejects list payload columns; np.frombuffer unpacks zero-copy)
    sh = sh.materialize()  # consumed by BOTH joins — don't re-shingle
    joined = pairs.join(sh, join_type="inner", num_partitions=join_partitions,
                        on=("id_a",), right_on=("sid",))
    joined = joined.map_batches(
        lambda t: pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                            "sh_a": t["sh"]}),
        batch_format="pyarrow")
    joined = joined.join(sh, join_type="inner", num_partitions=join_partitions,
                         on=("id_b",), right_on=("sid",))
    joined = joined.map_batches(
        lambda t: pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                            "sh_a": t["sh_a"], "sh_b": t["sh"]}),
        batch_format="pyarrow")

    def verify(batch: pa.Table) -> pa.Table:
        out = {"id_a": [], "id_b": [], "jaccard": []}
        for a, b, sa, sb in zip(batch["id_a"].to_pylist(), batch["id_b"].to_pylist(),
                                batch["sh_a"].to_pylist(), batch["sh_b"].to_pylist()):
            sa = np.frombuffer(sa, dtype=np.uint64)
            sb = np.frombuffer(sb, dtype=np.uint64)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            j = score(inter, len(sa), len(sb))
            if j >= threshold:
                out["id_a"].append(a)
                out["id_b"].append(b)
                out["jaccard"].append(j)
        return pa.table({"id_a": pa.array(out["id_a"], pa.int64()),
                         "id_b": pa.array(out["id_b"], pa.int64()),
                         "jaccard": pa.array(out["jaccard"], pa.float64())})

    return joined.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


# (256, 8) little-endian bit patterns of every byte value, for the
# bincount-matmul bit summation in SimHasher
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").astype(np.int64)


class SimHasher:
    """64-bit SimHash per document from token crc32 features.

    Tokenization + crc32 stay per-token Python (``str.split`` semantics are
    the contract the reference model checks — Arrow's whitespace split
    differs on \\x1c-\\x1f); everything after is batch-wide numpy with a
    CACHE-SIZED working set: per-doc bit sums come from 8 bincounts over
    (doc, byte-value) pairs × a (256 × 8) bit-pattern matmul — never a
    (total_tokens × 64) expansion, whose memory traffic dominated both the
    old per-doc loop and a reduceat formulation. Exact int64 throughout."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        doc_lens = np.zeros(n, dtype=np.int64)
        h_parts = []
        for i, text in enumerate(pc.fill_null(batch["text"], "").to_pylist()):
            toks = text.split()
            doc_lens[i] = len(toks)
            if toks:
                h_parts.append(np.fromiter((zlib.crc32(t.encode()) for t in toks),
                                           dtype=np.uint64, count=len(toks)))
        out = np.zeros(n, dtype=np.int64)
        nonempty = np.flatnonzero(doc_lens)
        if len(nonempty):
            # widen to 64 bits deterministically
            h = np.concatenate(h_parts) * np.uint64(0x9E3779B97F4A7C15)
            ne_lens = doc_lens[nonempty]
            doc_idx = np.repeat(np.arange(len(nonempty), dtype=np.int64),
                                ne_lens)
            bytes8 = h.view(np.uint8).reshape(-1, 8)  # little-endian
            sums = np.empty((len(nonempty), 64), dtype=np.int64)
            base = doc_idx * 256
            for p in range(8):
                cnt = np.bincount(base + bytes8[:, p],
                                  minlength=len(nonempty) * 256) \
                    .reshape(len(nonempty), 256)
                sums[:, p * 8:(p + 1) * 8] = cnt @ _BYTE_BITS
            # signed: uint64 would wrap on negative scores and set every bit
            score = sums * 2 - ne_lens[:, None]
            weights = (np.uint64(1) << np.arange(64, dtype=np.uint64))
            sims = ((score > 0).astype(np.uint64) * weights[None, :]).sum(axis=1)
            out[nonempty] = sims.view(np.int64)
        return batch.append_column("simhash", pa.array(out))


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def simhash_pairs(ds, max_hamming: int = 3, id_col: str = "doc_id"):
    """Near-dup pairs by SimHash: bucket on each of 4×16-bit chunks (pigeonhole
    guarantees Hamming ≤ 3 pairs share some chunk), verify distance in-bucket."""
    sig = ds.map_batches(SimHasher(), batch_format="pyarrow", batch_size=1024)

    def explode(t: pa.Table) -> pa.Table:
        ids, keys, sims = [], [], []
        for did, s in zip(t[id_col].to_pylist(), t["simhash"].to_pylist()):
            u = s & ((1 << 64) - 1)
            for c in range(4):
                chunk = (u >> (16 * c)) & 0xFFFF
                keys.append(f"{c}:{chunk:04x}")
                ids.append(did)
                sims.append(s)
        # chunk_key typed: empty batches must not infer a null-typed column
        return pa.table({"chunk_key": pa.array(keys, pa.string()),
                         id_col: pa.array(ids, pa.int64()),
                         "simhash": pa.array(sims, pa.int64())})

    def bucket_pairs(g: pa.Table) -> pa.Table:
        """Vectorized in-bucket verify: popcount over the XOR matrix of the
        bucket's signatures (buckets are small — only pair-producing ones
        arrive here)."""
        order = np.lexsort((
            np.asarray(g["simhash"].combine_chunks().to_numpy(zero_copy_only=False)),
            np.asarray(g[id_col].combine_chunks().to_numpy(zero_copy_only=False)),
        ))
        ids = np.asarray(g[id_col].combine_chunks().to_numpy(
            zero_copy_only=False), dtype=np.int64)[order]
        sims = np.asarray(g["simhash"].combine_chunks().to_numpy(
            zero_copy_only=False), dtype=np.int64)[order].view(np.uint64)
        ii, jj = np.triu_indices(len(ids), k=1)
        x = sims[ii] ^ sims[jj]
        dist = np.zeros(len(x), dtype=np.int64)
        for shift in range(0, 64, 8):  # bytewise popcount via lookup
            dist += _POPCNT8[(x >> np.uint64(shift)) & np.uint64(0xFF)]
        keep = (dist <= max_hamming) & (ids[ii] != ids[jj])
        return pa.table({"id_a": pa.array(ids[ii][keep], pa.int64()),
                         "id_b": pa.array(ids[jj][keep], pa.int64()),
                         "hamming": pa.array(dist[keep], pa.int64())})

    buckets = sig.map_batches(
        lambda t: explode(t.select([id_col, "simhash"])), batch_format="pyarrow"
    )
    buckets, hot_rows, _ = multi_member_buckets(buckets, "chunk_key")
    return pairs_from_buckets(buckets, "chunk_key", bucket_pairs,
                              ["id_a", "id_b"], {"hamming": "min"}, hot_rows)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def _pairs_between(ids_a, mat_a, ids_b, mat_b, threshold: float,
                   same_block: bool = True) -> pa.Table:
    """Canonical (id_a < id_b) cosine pairs ≥ threshold between two
    normalized blocks — one matmul, vectorized extraction.

    same_block=True: each unordered id pair appears at BOTH (i,j) and (j,i)
    in the sim matrix, so `a < b` both canonicalizes and dedups. Cross-block
    pairs are computed in only ONE orientation — there `a < b` would DROP
    pairs whose ids happen to be ordered against the block order (blocks are
    not globally id-sorted after any shuffle), so canonicalize by swap."""
    sims = mat_a @ mat_b.T
    ii, jj = np.nonzero(sims >= threshold)
    a, b = ids_a[ii], ids_b[jj]
    if same_block:
        keep = a < b  # also drops self-pairs on the diagonal
        lo, hi = a[keep], b[keep]
    else:
        keep = a != b  # a block pair can still share an id after a shuffle
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
    return pa.table({"id_a": pa.array(lo, type=pa.int64()),
                     "id_b": pa.array(hi, type=pa.int64()),
                     "cosine": pa.array(sims[ii[keep], jj[keep]], pa.float64())})


def _norm_block(batch: pa.Table, id_col: str, vec_col: str):
    ids = np.asarray(batch[id_col].combine_chunks().to_numpy(zero_copy_only=False),
                     dtype=np.int64)
    from .similarity import _matrix

    mat = _matrix(batch[vec_col])
    mat /= np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-30)
    return ids, mat


def embedding_dup_pairs(ds, threshold: float = 0.3, id_col: str = "vec_id",
                        vec_col: str = "embedding"):
    """EXACT pairs with cosine similarity ≥ threshold, as a distributed
    block-nested-loop: the dataset's blocks stay in the object store, and one
    Ray task per unordered block pair (i ≤ j) computes its cross-matmul.
    Nothing materializes on the driver (it holds only block refs) and no
    worker ever sees the whole matrix. O(n²) flops is inherent to an exact
    all-pairs result; when recall < 1 is acceptable, embedding_dup_pairs_lsh
    buckets first and scores O(bucket²)."""
    import ray
    import ray.data

    norm = ds.select_columns([id_col, vec_col])
    refs = norm.to_arrow_refs()

    @ray.remote(num_cpus=1)
    def cross(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ids_a, mat_a = _norm_block(ta, id_col, vec_col)
        if same:
            return _pairs_between(ids_a, mat_a, ids_a, mat_a, threshold,
                                  same_block=True)
        ids_b, mat_b = _norm_block(tb, id_col, vec_col)
        return _pairs_between(ids_a, mat_a, ids_b, mat_b, threshold,
                              same_block=False)

    out = [cross.remote(refs[i], refs[j], i == j)
           for i in range(len(refs)) for j in range(i, len(refs))]
    ray.wait(out, num_returns=len(out), fetch_local=False)  # as expand's
    return ray.data.from_arrow_refs(out)


def embedding_dup_pairs_lsh(ds, threshold: float = 0.3, id_col: str = "vec_id",
                            vec_col: str = "embedding", num_planes: int = 4,
                            num_tables: int = 8, max_bucket: int = 4096):
    """Approximate near-dup pairs: random-hyperplane LSH with an
    OR-construction (num_tables independent sign-bit tables of num_planes
    each) buckets vectors, then exact cosine runs per bucket. Recall for a
    pair at cosine s is 1-(1-p^r)^L with p = 1-acos(s)/π — tune (r, L) to the
    threshold. This is the 100 TB path: only (table, bucket) keys shuffle and
    scoring is O(bucket²), never O(n²)."""
    from .similarity import LshBuckets

    first = ds.take(1)[0]
    dim = len(first[vec_col])
    tables = [LshBuckets(dim, num_planes, seed=11 + 7 * t) for t in range(num_tables)]

    def explode(batch: pa.Table) -> pa.Table:
        ids, mat = _norm_block(batch, id_col, vec_col)
        out_key, out_id, out_vec = [], [], []
        vecs = batch[vec_col].to_pylist()
        for t, lsh in enumerate(tables):
            buckets = lsh.bucket_of(mat)
            for i in range(len(ids)):
                out_key.append(f"{t}:{buckets[i]}")
                out_id.append(ids[i])
                out_vec.append(vecs[i])
        # vec column typed from the input schema: an empty batch must not
        # infer a null-typed list column (schema mix breaks later concats)
        return pa.table({"bucket": pa.array(out_key, pa.string()),
                         id_col: pa.array(out_id, pa.int64()),
                         vec_col: pa.array(out_vec,
                                           type=batch.schema.field(vec_col).type)})

    def score_bucket(g: pa.Table) -> pa.Table:
        if len(g) > max_bucket:
            print(f"[dedup] LSH vector bucket of {len(g)} capped to {max_bucket}")
            g = g.sort_by(id_col).slice(0, max_bucket)
        if len(g) < 2:
            return pa.table({"id_a": pa.array([], pa.int64()),
                             "id_b": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        ids, mat = _norm_block(g, id_col, vec_col)
        return _pairs_between(ids, mat, ids, mat, threshold)

    from ..stages.hashagg import tree_distinct

    # no singleton-bucket prefilter here: the bucket space is bounded by
    # construction (num_tables × 2^num_planes keys — low-cardinality), and
    # the join would have to carry the list<float> payload (Acero rejects
    # list payload columns)
    exploded = ds.map_batches(explode, batch_format="pyarrow", batch_size=1024)
    pairs = exploded.groupby("bucket").map_groups(score_bucket,
                                                  batch_format="pyarrow")
    # a pair can collide in several tables — distinct-ify (max: the cosine is
    # the same dot product in every table; max makes any float jitter
    # across bucket shapes resolve deterministically)
    return tree_distinct(pairs, ["id_a", "id_b"], combine={"cosine": "max"})


# ---------------------------------------------------------------------------
# Containment join (directed: |A∩B| / |A| >= t — boilerplate / quote
# detection; the asymmetric member of the PPJoin family)
# ---------------------------------------------------------------------------


class FullShingleExplode:
    """(sh_key, id) membership rows for the shared (df ≥ 2) shingles of
    every doc — the index side of the containment join (B may be
    arbitrarily larger than A, so only the probe side can be
    prefix-truncated). Dropping df=1 shingles is EXACT: such a shingle
    occurs in one doc, so its bucket could only pair that doc with itself
    (a != b filters it) — but it cuts the exploded index from total
    shingle volume down to the shared-shingle volume (measured 5-10× at
    web-text duplication rates)."""

    def __init__(self, shingle_k: int = 3, id_col: str = "doc_id",
                 df_ref=None):
        self.k = shingle_k
        self.id_col = id_col
        self.df_ref = df_ref
        self._dfh = None

    def _shared(self, h: np.ndarray) -> np.ndarray:
        if self.df_ref is None:
            return h
        if self._dfh is None:
            import ray

            self._dfh = ray.get(self.df_ref)[0]  # sorted df>=2 hashes
        dfh = self._dfh
        if len(dfh) == 0 or len(h) == 0:
            return h[:0]
        idx = np.searchsorted(dfh, h)
        idx = np.minimum(idx, len(dfh) - 1)
        return h[dfh[idx] == h]

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, ids = [], []
        for did, text in zip(
                pc.cast(batch[self.id_col], pa.int64()).to_pylist(),
                batch["text"].to_pylist()):
            h = self._shared(shingles64(text or "", self.k))
            if len(h) == 0:
                continue
            keys.append(h)
            ids.append(np.full(len(h), did, dtype=np.int64))
        if not keys:
            return pa.table({"sh_key": pa.array([], pa.int64()),
                             self.id_col: pa.array([], pa.int64())})
        return pa.table({
            "sh_key": pa.array(np.concatenate(keys).view(np.int64)),
            self.id_col: pa.array(np.concatenate(ids))})


class ContainmentExplode:
    """BOTH containment-join sides from ONE shingle pass per doc: probe
    prefix rows (side 0, frequency-ordered prefix — same pigeonhole bound
    as Jaccard) and df≥2 index rows (side 1). Each doc tokenizes and
    blake2b-hashes exactly once — the fused form of PrefixExplode +
    FullShingleExplode, whose ordering/membership helpers it composes."""

    def __init__(self, threshold: float, shingle_k: int = 3,
                 id_col: str = "doc_id", df_ref=None):
        self.id_col = id_col
        self.k = shingle_k
        self._probe = PrefixExplode(threshold, shingle_k, id_col, df_ref)
        self._index = FullShingleExplode(shingle_k, id_col, df_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import math

        keys, ids, sides, ns = [], [], [], []
        for did, text in zip(
                pc.cast(batch[self.id_col], pa.int64()).to_pylist(),
                batch["text"].to_pylist()):
            h = shingles64(text or "", self.k)
            if len(h) == 0:
                continue
            p = len(h) - math.ceil(self._probe.t * len(h)) + 1
            pref = self._probe._order(h)[:p]
            shared = self._index._shared(h)
            keys.append(pref)
            ids.append(np.full(len(pref), did, dtype=np.int64))
            sides.append(np.zeros(len(pref), dtype=np.int8))
            ns.append(np.full(len(pref), len(h), dtype=np.int32))
            keys.append(shared)
            ids.append(np.full(len(shared), did, dtype=np.int64))
            sides.append(np.ones(len(shared), dtype=np.int8))
            ns.append(np.full(len(shared), len(h), dtype=np.int32))
        if not keys:
            return pa.table({"sh_key": pa.array([], pa.int64()),
                             self.id_col: pa.array([], pa.int64()),
                             "side": pa.array([], pa.int8()),
                             "n_sh": pa.array([], pa.int32())})
        return pa.table({
            "sh_key": pa.array(np.concatenate(keys).view(np.int64)),
            self.id_col: pa.array(np.concatenate(ids)),
            "side": pa.array(np.concatenate(sides)),
            # distinct shingle count rides along for the bucket-local size
            # filter: |A∩B| >= t|A| forces |B| >= t|A|, so undersized index
            # docs prune BEFORE pair emission (sound — verify stays exact)
            "n_sh": pa.array(np.concatenate(ns))})


def directed_pairs_from_bucket(g: pa.Table, id_col: str = "doc_id",
                               max_bucket: int = 2048,
                               threshold: float | None = None) -> pa.Table:
    """(probe a, index b) pairs within one shingle bucket, a != b.

    With ``threshold`` and the explode's n_sh column present, applies the
    SOUND size filter before emitting: containment |A∩B|/|A| >= t forces
    |B| >= t|A| (|A∩B| <= |B|), so index docs shorter than t × the probe's
    distinct-shingle count cannot match — measured 31% fewer candidates
    reaching the exact verify at sf0.1 (299.5k → 206k, identical finals)
    without touching exactness."""
    side = g["side"].combine_chunks().to_numpy(zero_copy_only=False)
    ids = np.asarray(g[id_col].combine_chunks().to_numpy(
        zero_copy_only=False), dtype=np.int64)
    a, ai = np.unique(ids[side == 0], return_index=True)
    b, bi = np.unique(ids[side == 1], return_index=True)
    if len(a) > max_bucket or len(b) > max_bucket:
        print(f"[dedup] containment bucket {len(a)}x{len(b)} capped to "
              f"{max_bucket}")
        a, ai = a[:max_bucket], ai[:max_bucket]
        b, bi = b[:max_bucket], bi[:max_bucket]
    ii, jj = np.meshgrid(np.arange(len(a)), np.arange(len(b)),
                         indexing="ij")
    pa_, pb = a[ii.ravel()], b[jj.ravel()]
    keep = pa_ != pb
    if threshold is not None and "n_sh" in g.column_names:
        n = g["n_sh"].combine_chunks().to_numpy(zero_copy_only=False)
        na = n[side == 0][ai]  # distinct shingle count per probe id
        nb = n[side == 1][bi]
        keep &= nb[jj.ravel()] >= threshold * na[ii.ravel()]
    return pa.table({"id_a": pa.array(pa_[keep], pa.int64()),
                     "id_b": pa.array(pb[keep], pa.int64())})


def containment_pairs(ds, threshold: float = 0.8, shingle_k: int = 3,
                      id_col: str = "doc_id", max_bucket: int = 2048,
                      join_partitions: int = 8):
    """EXACT directed containment join: all (id_a, id_b), a != b, with
    |shingles(a) ∩ shingles(b)| / |shingles(a)| >= threshold.

    Prefix theorem (pigeonhole, any fixed total order): if A∩B >= t|A|
    then at most (1-t)|A| of A's shingles miss B, so one of A's first
    floor((1-t)|A|)+1 shingles is in B — EXACTLY the Jaccard prefix
    length, so PrefixExplode is reused verbatim for the probe side. The
    index side must carry ALL of B's shingles (B may dwarf A); frequency
    ordering still shrinks probe memberships. Candidates then verify the
    exact ratio on re-tokenized candidate docs only (metric="containment").
    Shuffle volume: prefix rows + index rows of pair-producing shingles —
    singleton shingles drop before the bucket stage, as in the Jaccard
    join."""
    import ray

    from ..stages.persist import persist_multi_pass

    # consumed 3× (df pass, containment explode, verify); staged to parquet
    # instead of plasma above DATAXRAY_STAGE_BUDGET_BYTES (100-TB path)
    ds = persist_multi_pass(ds, label="containment-corpus")
    df_ref = shared_shingle_df(ds, shingle_k)

    both = ds.map_batches(
        ContainmentExplode(threshold, shingle_k, id_col, df_ref),
        batch_format="pyarrow", batch_size=1024)
    hot, hot_rows, sizes = multi_member_buckets(both, "sh_key",
                                                join_partitions)
    check_bucket_caps(sizes, max_bucket, "containment_pairs",
                      on_capped="raise")
    pairs = pairs_from_buckets(
        hot, "sh_key",
        lambda g: directed_pairs_from_bucket(g, id_col, max_bucket,
                                            threshold=threshold),
        ["id_a", "id_b"], {}, hot_rows)
    return verify_pairs_jaccard(ds, pairs, threshold=threshold,
                                shingle_k=shingle_k, id_col=id_col,
                                join_partitions=join_partitions, bits=64,
                                metric="containment")
