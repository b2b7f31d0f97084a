"""Scale-hardened join/aggregation paths, exposed as oracle-backed queries.

These exercise the stages/joins.py primitives end-to-end (they were
previously only unit-tested): Bloom-guarded semi/anti joins — the
100-TB substitute for broadcasting an exact key set — and hot-key-salted
two-round aggregation. Reference parallels: the Bloom probes replace the
reference's per-row MySQL primary-key existence checks
(/root/reference/app/service/vbpl.py:188-190) at a scale where neither a
DB round-trip per row nor an exact broadcast set fits; the salted
aggregate is the skew treatment the north-rule asks for on hot hosts,
applied to a relational aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from ..functions.numeric import round_half_away
from ..stages.joins import (bloom_anti_join, bloom_semi_join,
                            build_key_bloom_dist, salted_group_agg)
from ..stages.shuffle import bucketed_group_apply, group_cells, reduce_partials
from ..sources.tablecache import base_dataset


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> rd.Dataset:
    return base_dataset(sf_dir, table, columns=columns)


def q_bloom_semi_counts(sf_dir: str) -> pd.DataFrame:
    """Lineitem rows whose order is URGENT, counted per return flag —
    semi join with a Bloom pre-filter.

    The urgent-order key set is built into a Bloom filter WITHOUT the
    driver ever holding the keys (fixed-geometry bit-array partials,
    OR-merged); the probe side streams through the broadcast filter and
    drops the ~80% certain non-members with zero shuffle. Only the
    survivors (true matches + the filter's rare FPs) enter the exact
    in-bucket existence count against the key set, so the all-to-all
    moves a fifth of the fact table and nothing but count partials comes
    back out of it."""
    urgent = (_read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
              .map_batches(lambda df: df.loc[df["o_orderpriority"] == "1-URGENT",
                                             ["o_orderkey"]],
                           batch_format="pandas"))
    urgent = urgent.materialize()       # built once, probed twice below
    # capacity from parquet metadata (upper bound: all orders) instead of
    # a counting pass — an oversized filter only lowers the FP rate
    import pyarrow.parquet as pq
    cap = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    bf = build_key_bloom_dist(urgent, "o_orderkey", capacity=cap,
                              fp_rate=0.001)

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])
    survivors = bloom_semi_join(li, "l_orderkey", bf)

    # exact verify as an IN-BUCKET existence count: union the tagged
    # survivors with the key set, bucket by key hash (same all-to-all
    # volume as a bucketed join) and count matching fact rows per flag
    # inside each bucket — joined rows are never materialized, only the
    # per-bucket count partials leave the shuffle.
    s = survivors.map_batches(
        lambda df: pd.DataFrame({"k": df["l_orderkey"].to_numpy(),
                                 "rf": df["l_returnflag"].astype(str),
                                 "side": np.zeros(len(df), np.int8)}),
        batch_format="pandas")
    u = urgent.map_batches(
        lambda df: pd.DataFrame({"k": df["o_orderkey"].to_numpy(),
                                 "rf": pd.Series([""] * len(df), dtype=str),
                                 "side": np.ones(len(df), np.int8)}),
        batch_format="pandas")

    def count_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = g.loc[g["side"] == 1, "k"].unique()
        li_rows = g[g["side"] == 0]
        hit = li_rows[li_rows["k"].isin(keys)]
        cells = pd.DataFrame({"l_returnflag": hit["rf"], "n": np.int64(1)})
        return group_cells(cells, "l_returnflag")

    return reduce_partials(
        bucketed_group_apply(s.union(u), "k", count_in_bucket),
        "l_returnflag")


def q_bloom_anti_users(sf_dir: str) -> pd.DataFrame:
    """Customer keys that never produced an 'error' event — anti join
    through the Bloom filter with the exact-verify escape hatch.

    An anti join cannot trust a Bloom filter alone (an FP would silently
    DROP a legitimate row), so rows the filter flags are re-checked
    against the true key set; the filter's job is to let the certain
    non-members pass without touching it. The error-user key set is tiny
    (it fits broadcast — the point of the query is the operator shape,
    which stays correct when only the Bloom bits fit)."""
    err = (_read(sf_dir, "events", ["user_id", "event_type"])
           .map_batches(lambda df: df.loc[df["event_type"] == "error",
                                          ["user_id"]].drop_duplicates(),
                        batch_format="pandas"))
    keys = err.to_pandas()["user_id"].unique()      # small: distinct users
    bf = build_key_bloom_dist(err, "user_id", capacity=max(1024, len(keys)),
                              fp_rate=0.001)
    cust = _read(sf_dir, "customer", ["c_custkey"])
    out = (bloom_anti_join(cust, "c_custkey", bf, exact_keys=keys)
           .to_pandas())
    return out.sort_values("c_custkey").reset_index(drop=True)


def q_salted_event_stats(sf_dir: str) -> pd.DataFrame:
    """Per-event-type value stats via the two-round SALTED aggregate:
    round 1 reduces (type, salt) slices so no single reducer ever sees a
    hot key's full volume; round 2 merges the tiny per-salt partials.
    Associative pieces only (sum / count / min / max), so the salting is
    invisible in the result."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("event_type", as_index=False).agg(
            s=("value", "sum"), n=("value", "size"),
            lo=("value", "min"), hi=("value", "max"))
        return g

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False).agg(
            s=("s", "sum"), n=("n", "sum"), lo=("lo", "min"), hi=("hi", "max"))

    out = salted_group_agg(ev, "event_type", partial, merge, salt=4).to_pandas()
    out["total_value"] = round_half_away(out.pop("s").to_numpy(), 4)
    out["lo"] = round_half_away(out["lo"].to_numpy(), 4)
    out["hi"] = round_half_away(out["hi"].to_numpy(), 4)
    out = out.rename(columns={"lo": "min_value", "hi": "max_value"})
    out = out[["event_type", "n", "min_value", "max_value", "total_value"]]
    return (out.astype({"n": "int64"})
               .sort_values("event_type").reset_index(drop=True))


def q_sketch_p95_per_type(sf_dir: str) -> pd.DataFrame:
    """Per-type 95th percentile as a MERGEABLE quantile-sketch aggregate
    (stages/sketches.QuantileSketch): batches emit fixed-size summaries,
    the driver merges summaries — raw values never shuffle and never
    gather, which is what q_p95_per_type's exact whole-group buckets
    cannot promise once one group outgrows a machine. Approximate
    (bounded rank error, no SQL oracle); pytest pins the estimate's rank
    against the exact quantile."""
    from ..stages.sketches import sketch_quantile_per_group

    ev = _read(sf_dir, "events", ["event_type", "value"])
    out = sketch_quantile_per_group(ev, "event_type", "value", q=0.95)
    out["q95"] = round_half_away(out["q95"].to_numpy(), 4)
    return out.astype({"n": "int64"})


def q_full_outer_user_counts(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER JOIN membership accounting in ONE tagged-union bucket
    shuffle: customer keys (side bit 1) and distinct error-event users
    (side bit 2) co-locate by key hash; each bucket ORs its keys' side
    bits and counts 1=customer_only / 2=error_only / 3=both — no joined
    frame, no null-padded rows, just three count partials per bucket.
    The outer-join shape every engine special-cases, as a counting
    aggregate."""
    cust = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda df: pd.DataFrame({"k": df["c_custkey"].to_numpy(),
                                 "side": np.full(len(df), 1, np.int8)}),
        batch_format="pandas")
    err = _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
        lambda df: pd.DataFrame(
            {"k": df.loc[df["event_type"] == "error", "user_id"].unique(),
             "side": np.int8(2)}),
        batch_format="pandas")

    def count_sides(g: pd.DataFrame) -> pd.DataFrame:
        bits = g.drop_duplicates(["k", "side"]).groupby("k")["side"].sum()
        label = {1: "customer_only", 2: "error_only", 3: "both"}
        cells = pd.DataFrame({"side": [label[int(v)] for v in bits],
                              "n": np.int64(1)})
        return group_cells(cells, "side")

    return reduce_partials(
        bucketed_group_apply(cust.union(err), "k", count_sides), "side")


def exact_quantiles_selection(ds: rd.Dataset, col: str,
                              qs: dict[str, float]) -> pd.DataFrame:
    """EXACT global quantiles WITHOUT a global sort — the
    distributed-selection pattern for the one group-by shape the
    whole-group-bucket tricks (q_median_per_group, q_p95_per_type)
    cannot handle: a single global group that fits no machine. Any
    number of quantiles resolves from the SAME histogram.

    Three streaming passes, O(bins) driver memory, zero shuffle:
      1. (count, min, max) partials;
      2. a fixed 65,536-bin histogram of the value range — each batch
         emits only its NONZERO bins, the driver sums them and locates
         which bin holds each needed order statistic by cumulative count;
      3. fetch ONLY the values in those target bins (for well-spread
         doubles that's ~n/65k rows per rank; a pathological bin would
         recurse with a sub-histogram over that bin's range — population
         asserts guard the assumption rather than silently gathering).
    The interpolation then replicates DuckDB's quantile_cont float ops
    exactly (rn = q*(n-1); v_lo + (rn-floor(rn))*(v_hi-v_lo)), so the
    compare is bit-exact on raw parquet doubles."""
    agg = ds.map_batches(
        lambda df: pd.DataFrame({"n": [len(df)],
                                 "lo": [df[col].min()],
                                 "hi": [df[col].max()]}),
        batch_format="pandas").to_pandas()
    n = int(agg["n"].sum())
    lo, hi = float(agg["lo"].min()), float(agg["hi"].max())
    if hi <= lo:                                  # all-equal degenerate
        return pd.DataFrame([{k: round_half_away(lo, 4) for k in qs}])

    B = 65536

    def bin_of(v: np.ndarray) -> np.ndarray:
        return np.clip(((v - lo) / (hi - lo) * B).astype(np.int64), 0, B - 1)

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        cnt = np.bincount(bin_of(df[col].to_numpy()), minlength=B)
        nz = np.nonzero(cnt)[0]
        return pd.DataFrame({"bin": nz, "c": cnt[nz]})

    h = reduce_partials(ds, "bin", hist_partial).set_index("bin")["c"]
    full = np.zeros(B, np.int64)
    full[h.index.to_numpy()] = h.to_numpy()
    cum = np.cumsum(full)                         # rows in bins <= i

    ranks = {}                                    # 0-indexed order stats
    for name, q in qs.items():
        rn = q * (n - 1)
        ranks[name] = (rn, int(np.floor(rn)), int(np.ceil(rn)))
    needed = sorted({k for _, f, c in ranks.values() for k in (f, c)})
    target_bins = np.unique([int(np.searchsorted(cum, k + 1))
                             for k in needed])
    assert full[target_bins].sum() <= max(100_000, 16 * n // B + 64), \
        "pathological bin population: recurse with a sub-histogram"

    def fetch(df: pd.DataFrame) -> pd.DataFrame:
        v = df[col].to_numpy()
        b = bin_of(v)
        m = np.isin(b, target_bins)
        return pd.DataFrame({"v": v[m], "b": b[m]})

    got = ds.map_batches(fetch, batch_format="pandas").to_pandas()

    val_at = {}
    for k in needed:
        bi = int(np.searchsorted(cum, k + 1))
        before = int(cum[bi - 1]) if bi > 0 else 0
        inbin = np.sort(got.loc[got["b"] == bi, "v"].to_numpy())
        val_at[k] = float(inbin[k - before])

    out = {}
    for name, (rn, f, c) in ranks.items():
        x = val_at[f] if c == f else \
            val_at[f] + (rn - f) * (val_at[c] - val_at[f])
        out[name] = round_half_away(x, 4)
    return pd.DataFrame([out])


def q_exact_global_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact global median + p90 of l_extendedprice via the selection
    helper above (see exact_quantiles_selection for the 3-pass shape)."""
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    return exact_quantiles_selection(ds, "l_extendedprice",
                                     {"median_price": 0.5, "p90_price": 0.9})


def q_decile_boundaries(sf_dir: str) -> pd.DataFrame:
    """All nine equi-depth decile boundaries of l_extendedprice from ONE
    histogram: the selection pattern amortizes — pass 2 locates every
    order statistic in the same 65k-bin cumulative, pass 3 fetches the
    union of target bins once. Nine exact global quantiles for the wire
    cost of one."""
    ds = _read(sf_dir, "lineitem", ["l_extendedprice"])
    qs = {f"d{i}": i / 10 for i in range(1, 10)}
    return exact_quantiles_selection(ds, "l_extendedprice", qs)


def q_table_checksum(sf_dir: str) -> pd.DataFrame:
    """Order-independent PER-PARTITION CHECKSUM of a table — the
    anti-entropy verification a 100-TB resumable store runs to prove a
    re-crawled / re-shuffled copy is byte-equivalent without moving data:
    every row hashes (md5 of a canonical string form, int/string columns
    only — float formatting is engine-specific), each batch XORs its
    rows' hashes per partition key, and XOR partials merge in ANY order
    on any topology. The driver holds one (group, xor, count) row per
    partition; two stores compare by comparing these tiny tables.
    Output checksum as zero-padded lowercase hex so signedness never
    enters the compare."""
    import hashlib

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderpriority"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s = (df["o_orderkey"].astype(str) + "|"
             + df["o_custkey"].astype(str) + "|"
             + df["o_orderpriority"])
        h = np.fromiter(
            (int(hashlib.md5(x.encode()).hexdigest()[:16], 16) for x in s),
            dtype=np.uint64, count=len(s))
        return (pd.DataFrame({"o_orderpriority": df["o_orderpriority"],
                              "h": h})
                .groupby("o_orderpriority", as_index=False)
                .agg(x=("h", lambda v: np.bitwise_xor.reduce(
                          v.to_numpy(np.uint64))),
                     n=("h", "size")))

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (parts.groupby("o_orderpriority", as_index=False)
                .agg(x=("x", lambda v: np.bitwise_xor.reduce(
                          v.to_numpy(np.uint64))),
                     n_rows=("n", "sum")))
    return (pd.DataFrame({
        "o_orderpriority": out["o_orderpriority"],
        "checksum": [format(int(v), "016x") for v in out["x"]],
        "n_rows": out["n_rows"].astype("int64")})
        .sort_values("o_orderpriority").reset_index(drop=True))


def q_length_quartile_counts(sf_dir: str) -> pd.DataFrame:
    """Document-length quartile gating — the selection histogram finds
    the three exact global quartile boundaries of n_chars (no global
    sort), they broadcast as three doubles, and one more streaming pass
    classifies every document by 1 + (x > q1) + (x > q2) + (x > q3) —
    integer comparisons against bit-exact boundaries, so the class
    counts compare exactly. The composition a curation pipeline runs to
    build length-balanced training mixes."""
    docs = base_dataset(sf_dir, "documents", columns=["n_chars"])
    q = exact_quantiles_selection(docs, "n_chars",
                                  {"q1": 0.25, "q2": 0.5, "q3": 0.75})
    q1, q2, q3 = float(q["q1"][0]), float(q["q2"][0]), float(q["q3"][0])

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        x = df["n_chars"].to_numpy(np.int64)
        cls = 1 + (x > q1).astype(np.int64) + (x > q2) + (x > q3)
        return pd.DataFrame({"quartile": cls, "n_docs": np.int64(1)})

    return reduce_partials(docs, "quartile", classify)


def q_key_skew_stats(sf_dir: str) -> pd.DataFrame:
    """Partition-skew diagnosis over the events key — the pipeline-health
    statistics a shuffle planner reads before choosing salts: per-user
    event counts reduce to a COUNT-OF-COUNTS histogram (one row per
    DISTINCT count value, not per user), which merges as plain integer
    sums on any topology; exact p50/p99 of the per-key distribution then
    resolve by rank from the cumulative histogram — the selection
    pattern on integers, no sort, no quantile float math. The rank rule
    (smallest count with 100*rank >= q*keys) is stated identically in
    the oracle, so everything compares as BIGINTs."""
    ev = _read(sf_dir, "events", ["user_id"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("user_id", as_index=False)["n"].sum()
        # count-of-counts: one row per distinct per-user count
        cells = pd.DataFrame({"n": c["n"].to_numpy(), "keys": np.int64(1)})
        return group_cells(cells, "n")

    hist = reduce_partials(bucketed_group_apply(
        ev, "user_id", per_user,
        partial_fn=lambda df: (df.groupby("user_id", as_index=False)
                                 .size().rename(columns={"size": "n"}))),
        "n")

    cnt = hist["n"].to_numpy(np.int64)
    keys = hist["keys"].to_numpy(np.int64)
    m = int(keys.sum())
    cum = np.cumsum(keys)

    def rank_at(q: int) -> int:
        return int(cnt[int(np.argmax(100 * cum >= q * m))])

    return pd.DataFrame({
        "n_users": [np.int64(m)],
        "total_events": [np.int64(int((cnt * keys).sum()))],
        "max_events": [np.int64(int(cnt[-1]))],
        "p50_events": [np.int64(rank_at(50))],
        "p99_events": [np.int64(rank_at(99))]})


def q_hll_join_cardinality(sf_dir: str) -> pd.DataFrame:
    """Join-cardinality estimation from mergeable HLL sketches — the
    planning statistics pass run BEFORE committing to a join strategy:
    one 4 KB sketch per side estimates each side's distinct keys, their
    merged sketch the union, and inclusion-exclusion the key overlap —
    O(sketch) wire and driver cost however large the tables. Sketches
    hash deterministically, so the estimates are stable run to run
    (rows-only: the <5% error bound vs exact is pytest-pinned)."""
    from ..pipelines.relational2 import HyperLogLog, hash64

    def sketch(ds: rd.Dataset, col: str) -> "HyperLogLog":
        def partial(df: pd.DataFrame) -> pd.DataFrame:
            h = HyperLogLog(12)
            h.add_hashes(hash64(df[col].astype(str).to_numpy()))
            return pd.DataFrame({"sketch": [h.registers.tobytes()]})

        merged = HyperLogLog(12)
        for row in (ds.map_batches(partial, batch_format="pandas")
                      .iter_rows()):
            other = HyperLogLog(12)
            other.registers = np.frombuffer(row["sketch"],
                                            dtype=np.uint8).copy()
            merged.merge(other)
        return merged

    a = sketch(_read(sf_dir, "orders", ["o_custkey"]), "o_custkey")
    b = sketch(_read(sf_dir, "customer", ["c_custkey"]), "c_custkey")
    ea, eb = a.estimate(), b.estimate()
    u = HyperLogLog(12)
    u.registers = np.maximum(a.registers, b.registers)
    eu = u.estimate()
    return pd.DataFrame({
        "est_order_custkeys": [round(ea)],
        "est_customers": [round(eb)],
        "est_union": [round(eu)],
        "est_overlap": [round(ea + eb - eu)]})


def q_partition_manifest(sf_dir: str) -> pd.DataFrame:
    """Partition MANIFEST build — the per-partition statistics row an
    Iceberg/Delta-style table layer keeps so planners can prune without
    opening files: for an events table partitioned by event_type, emit
    (rows, min/max event time, exact distinct users). Bounds and counts
    are mergeable partials; the exact distinct-user count dedups
    (type, user) pairs per batch and counts inside type-hashed buckets —
    the wire carries one row per (type, user), never per event. Min/max
    timestamps are raw pass-throughs."""
    ev = _read(sf_dir, "events", ["event_type", "user_id", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        b = df.groupby("event_type", as_index=False).agg(
            n_rows=("ts", "size"), min_ts=("ts", "min"),
            max_ts=("ts", "max"))
        u = df[["event_type", "user_id"]].drop_duplicates()
        return b.merge(u.groupby("event_type", as_index=False)
                        .agg(users=("user_id", lambda s: list(set(s)))),
                       on="event_type")

    def manifest(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("event_type", as_index=False).agg(
            n_rows=("n_rows", "sum"), min_ts=("min_ts", "min"),
            max_ts=("max_ts", "max"))
        nu = (g.explode("users").drop_duplicates(["event_type", "users"])
               .groupby("event_type", as_index=False)
               .size().rename(columns={"size": "n_users"}))
        return agg.merge(nu, on="event_type")

    out = bucketed_group_apply(ev, "event_type", manifest,
                               partial_fn=partial).to_pandas()
    return (out.astype({"n_rows": "int64", "n_users": "int64"})
               .sort_values("event_type").reset_index(drop=True))


def q_table_profile(sf_dir: str) -> pd.DataFrame:
    """Column PROFILING pass — the data-quality audit run before a table
    enters a training pipeline: per column, null count and EXACT distinct
    count. Null counts are plain mergeable partials; exact distincts
    dedup (column, canonical value string) pairs per batch and count
    inside (column, value)-hashed buckets — buckets own disjoint value
    sets, so per-column distinct partials SUM across buckets and one
    tagged-union shuffle profiles every column at once, the wire carrying
    distinct values only. Profiled here: the orders table."""
    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
            "o_orderpriority"]
    ds = _read(sf_dir, "orders", cols)
    sep = "\x1f"

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            v = df[c]
            u = v.dropna().astype(str).drop_duplicates().to_numpy()
            frames.append(pd.DataFrame({
                "kv": c + sep + pd.Series(u, dtype=object),
                "col": c, "nulls": np.int64(0)}))
            frames.append(pd.DataFrame({
                "kv": [c + sep], "col": [c],
                "nulls": [np.int64(v.isna().sum())]}))
        return pd.concat(frames, ignore_index=True)

    def profile(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[g["kv"].str.len() > g["col"].str.len() + 1]
        d = vals.drop_duplicates("kv")
        cells = pd.concat([
            pd.DataFrame({"col": d["col"], "n_distinct": np.int64(1),
                          "n_nulls": np.int64(0)}),
            pd.DataFrame({"col": g["col"], "n_distinct": np.int64(0),
                          "n_nulls": g["nulls"].to_numpy(np.int64)})])
        return group_cells(cells, "col")

    return reduce_partials(
        bucketed_group_apply(ds, "kv", profile, partial_fn=partial), "col")


def q_consistent_hash_shards(sf_dir: str, n_shards: int = 16) -> pd.DataFrame:
    """Shard-assignment audit — the placement map a 256-node store
    publishes: every document routes to md5(doc_id-text) % n_shards (a
    SEEDLESS, engine-independent router: any writer in any language
    re-derives the same shard), and the report shows docs/chars/key-range
    per shard, i.e. whether the router balances load. Per-batch (shard,
    n, chars, min, max) partials are the only thing that leaves a block —
    the shard column never materializes table-wide. The per-row md5 is
    the router's inherent unit, run batched inside map_batches."""
    import hashlib

    docs = base_dataset(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        shard = np.array([int(hashlib.md5(str(i).encode())
                              .hexdigest()[:4], 16) % n_shards
                          for i in df["doc_id"]], dtype=np.int64)
        return pd.DataFrame({"shard": shard,
                             "n_docs": np.int64(1),
                             "sum_chars": df["n_chars"].to_numpy(np.int64),
                             "min_doc": df["doc_id"].to_numpy(np.int64),
                             "max_doc": df["doc_id"].to_numpy(np.int64)})

    return reduce_partials(docs, "shard", partial,
                           agg={"min_doc": "min", "max_doc": "max"})


def q_scan_pruning_audit(sf_dir: str, block_rows: int = 4096) -> pd.DataFrame:
    """Min/max zone-map pruning audit — the planner's question before a
    100-TB scan: with per-block (min, max) orderdate stats over
    orderkey-contiguous blocks, how many blocks can a half-year date
    predicate SKIP entirely, read WHOLE without row-level filtering, or
    must half-read? Per-batch per-block min/max partials merge exactly
    (blocks are orderkey ranges, so partials co-merge by integer id);
    the verdict is pure int64-µs comparisons on the bounded block
    table."""
    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    lo = np.datetime64("1997-01-01", "us").astype(np.int64)
    hi = np.datetime64("1997-07-01", "us").astype(np.int64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = df["o_orderdate"].astype("int64").to_numpy()
        blk = df["o_orderkey"].to_numpy(np.int64) // block_rows
        return pd.DataFrame({"block": blk, "mn": us, "mx": us,
                             "n_rows": np.int64(1)})

    blocks = reduce_partials(o, "block", partial,
                             agg={"mn": "min", "mx": "max"})
    pruned = (blocks["mx"] < lo) | (blocks["mn"] >= hi)
    full = (blocks["mn"] >= lo) & (blocks["mx"] < hi)
    partial_read = ~(pruned | full)
    return pd.DataFrame({
        "n_blocks": [np.int64(len(blocks))],
        "n_pruned": [np.int64(int(pruned.sum()))],
        "n_full": [np.int64(int(full.sum()))],
        "n_partial": [np.int64(int(partial_read.sum()))],
        "rows_skipped": [np.int64(int(blocks.loc[pruned, "n_rows"].sum()))],
    })


def q_compaction_plan(sf_dir: str, target_rows: int = 5000) -> pd.DataFrame:
    """Small-file compaction PLAN — the maintenance pass a partitioned
    store schedules: monthly order files (bounded calendar) greedily
    coalesce in month order into outputs of ~target rows, each output
    group starting where the running total crosses the target (group =
    prior-cumsum // target, the standard sequential-packing closed
    form). Per-month counts merge as integer partials; the plan itself
    closes over the bounded manifest, never the rows."""
    o = _read(sf_dir, "orders", ["o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        month = df["o_orderdate"].dt.strftime("%Y-%m")
        return pd.DataFrame({"month": month, "n_rows": np.int64(1)})

    months = reduce_partials(o, "month", partial)
    prior = months["n_rows"].cumsum().shift(fill_value=0).to_numpy(np.int64)
    months["out_group"] = prior // target_rows
    out = months.groupby("out_group", as_index=False).agg(
        n_input_files=("month", "size"), n_rows=("n_rows", "sum"),
        first_month=("month", "min"), last_month=("month", "max"))
    return (out.astype({"out_group": "int64", "n_input_files": "int64",
                        "n_rows": "int64"})
               .sort_values("out_group").reset_index(drop=True))


def q_partitioned_roundtrip_counts(sf_dir: str) -> pd.DataFrame:
    """Resumable-sink round trip UNDER THE ORACLE: orders write to a
    hive-partitioned parquet store (one directory per priority — the
    restart-unit layout every long job needs), the store is read BACK,
    and the per-partition row counts of the re-read data are what the
    SQL twin checks. A silent drop or duplicate in either the sink or
    the partitioned read breaks the count — this is the write path's
    correctness gate, not a computed report. Scratch lives under /tmp
    keyed by sf so reruns are idempotent (overwrite, never append)."""
    import shutil

    tag = sf_dir.rstrip("/").rsplit("/", 1)[-1]
    out_dir = f"/tmp/vbpl_roundtrip_{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)

    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    o.write_parquet(out_dir, partition_cols=["o_orderpriority"])

    back = rd.read_parquet(out_dir)

    out = reduce_partials(back, "o_orderpriority", lambda df: pd.DataFrame(
        {"o_orderpriority": df["o_orderpriority"], "n_rows": np.int64(1)}))
    # hive partition values ride URL-encoded in the directory name
    from urllib.parse import unquote
    out["o_orderpriority"] = out["o_orderpriority"].astype(str).map(unquote)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def q_time_rollup_pyramid(sf_dir: str) -> pd.DataFrame:
    """GROUPING-SETS pyramid from ONE scan: revenue by day, week, month
    and grand total, each row labelled with its granularity. The scan
    emits per-batch PER-DAY integer partials only (the finest grain —
    bounded by the calendar, ~2.5k rows); week, month and total derive
    from the merged day table driver-side, so the pyramid costs one
    pass + bounded arithmetic, not four scans. Buckets are labelled by
    their ISO start date in both engines; money is exact integer
    cents."""
    o = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def per_day(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100.0) \
            .astype(np.int64)
        day = df["o_orderdate"].astype("int64").to_numpy() \
            // 86_400_000_000
        return pd.DataFrame({"day": day, "cents": cents,
                             "n_orders": np.int64(1)})

    days = reduce_partials(o, "day", per_day)
    d = days["day"].to_numpy(np.int64)
    stamp = pd.to_datetime(d * 86_400_000_000, unit="us")
    week = d - ((d + 3) % 7)            # ISO Monday (epoch day 0 = Thu)
    frames = [
        pd.DataFrame({"granularity": "day",
                      "bucket": stamp.strftime("%Y-%m-%d"),
                      "cents": days["cents"], "n_orders": days["n_orders"]}),
        pd.DataFrame({"granularity": "week",
                      "bucket": pd.to_datetime(
                          week * 86_400_000_000, unit="us")
                      .strftime("%Y-%m-%d"),
                      "cents": days["cents"], "n_orders": days["n_orders"]}),
        pd.DataFrame({"granularity": "month",
                      "bucket": stamp.strftime("%Y-%m-01"),
                      "cents": days["cents"], "n_orders": days["n_orders"]}),
        pd.DataFrame({"granularity": "total", "bucket": "*",
                      "cents": days["cents"], "n_orders": days["n_orders"]}),
    ]
    out = (pd.concat(frames, ignore_index=True)
           .groupby(["granularity", "bucket"], as_index=False).sum())
    out = out.astype({"cents": "int64", "n_orders": "int64"})
    out["revenue"] = out["cents"].to_numpy(np.float64) / 100.0
    return (out.drop(columns=["cents"])
               .sort_values(["granularity", "bucket"])
               .reset_index(drop=True))


def q_fair_crawl_budget(sf_dir: str, budget_div: int = 3) -> pd.DataFrame:
    """Max-min-fair (water-filling) budget allocation — the scheduler
    math a budget-capped crawl runs per cycle: give every key as much of
    its demand as possible without anyone rich starving anyone poor.
    Demands = events per user; budget = total // 3. In demand order the
    saturated set is a PREFIX (key i saturated iff c_i * (n - i) <=
    B - prefix_sum_i — an exact integer test), the rest split the
    remaining budget evenly, and the integer remainder goes to the
    first keys among the unsaturated in (demand, key) order. Per-key
    demand partials merge in buckets; the waterfill itself closes over
    the bounded demand table (at a scale past driver-sort, the level
    resolves by binary search over the demand count-of-counts histogram
    — the selection-quantile machinery — and only the remainder rule
    needs a rank pass). All integers, so the oracle's window-function
    restatement is bit-exact."""
    ev = base_dataset(sf_dir, "events", columns=["user_id"])

    d = (reduce_partials(ev, "user_id", lambda df: df.assign(c=np.int64(1)))
         .sort_values(["c", "user_id"]).reset_index(drop=True))
    c = d["c"].to_numpy(np.int64)
    n = len(c)
    total = int(c.sum())
    budget = total // budget_div
    p = np.concatenate([[0], np.cumsum(c)[:-1]])      # prefix sums
    sat = c * (n - np.arange(n)) <= budget - p        # monotone prefix
    k = int(sat.sum())                                # first unsat index
    alloc = c.copy()
    if k < n:
        remaining = budget - int(p[k])
        m = n - k
        base = remaining // m
        rem = remaining % m
        alloc[k:] = base
        alloc[k:k + rem] += 1                         # (demand, key) order
    return pd.DataFrame({
        "user_id": d["user_id"].to_numpy(),
        "demand": c,
        "allocation": alloc.astype(np.int64),
    }).sort_values("user_id").reset_index(drop=True)


_HRW_NODES = tuple(f"n{i}" for i in range(8))
_HRW_LEAVER = "n3"


def q_rendezvous_routing(sf_dir: str) -> pd.DataFrame:
    """Rendezvous (highest-random-weight) routing — the consistent
    placement that, unlike mod-N, moves ONLY the leaving node's keys on
    a topology change: every doc scores md5(doc_id|node) against all 8
    nodes and lives on the argmax; the same pass also scores the
    7-node world without n3, and the per-node (owned-before,
    owned-after) counts PROVE the minimal-disruption property (nodes
    other than the leaver only gain). Per-row hashing is the router's
    inherent unit (batched in map_batches); ties are impossible in
    practice and broken by node name in both engines; only 8 integer
    cells leave each block."""
    import hashlib

    docs = base_dataset(sf_dir, "documents", columns=["doc_id"])

    def route(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        scores = np.empty((len(ids), len(_HRW_NODES)), dtype=np.uint64)
        for j, node in enumerate(_HRW_NODES):
            scores[:, j] = np.fromiter(
                (int(hashlib.md5(f"{i}|{node}".encode())
                     .hexdigest()[:16], 16) for i in ids),
                dtype=np.uint64, count=len(ids))
        full = scores.argmax(axis=1)
        masked = scores.copy()
        masked[:, _HRW_NODES.index(_HRW_LEAVER)] = 0
        after = masked.argmax(axis=1)
        nodes = np.array(_HRW_NODES)
        return pd.concat([
            pd.DataFrame({"node": nodes[full], "n_before": np.int64(1),
                          "n_after": np.int64(0)}),
            pd.DataFrame({"node": nodes[after], "n_before": np.int64(0),
                          "n_after": np.int64(1)})])

    return reduce_partials(docs, "node", route)


def q_store_time_travel(sf_dir: str) -> pd.DataFrame:
    """Snapshot / time-travel read over a versioned store: the orders
    table writes as three round-partitioned increments (round = year
    bucket — the ingest-cycle analogue of the crawl's round=N dirs), and
    the query reads the store AS OF round 2 — the union of increments
    <= 2, exactly what a lakehouse snapshot read does with a manifest
    filter instead of a data scan. Counts per priority of the snapshot
    are the oracle-checked result; the round-3 increment existing on
    disk but staying invisible IS the assertion."""
    import shutil

    tag = sf_dir.rstrip("/").rsplit("/", 1)[-1]
    root = f"/tmp/vbpl_timetravel_{tag}"
    shutil.rmtree(root, ignore_errors=True)

    o = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate",
                                 "o_orderpriority"])

    def stamp(df: pd.DataFrame) -> pd.DataFrame:
        y = df["o_orderdate"].dt.year.to_numpy(np.int64)
        df = df.drop(columns=["o_orderdate"]).copy()
        df["round"] = np.where(y <= 1996, 1, np.where(y <= 1999, 2, 3))
        return df

    o.map_batches(stamp, batch_format="pandas") \
     .write_parquet(root, partition_cols=["round"])

    import glob
    snapshot = rd.read_parquet(sorted(
        f for r in (1, 2)
        for f in glob.glob(f"{root}/round={r}/*.parquet")
    ))   # manifest filter: increments <= 2 only, round 3 never opens

    return reduce_partials(snapshot, "o_orderpriority", lambda df: pd.DataFrame(
        {"o_orderpriority": df["o_orderpriority"], "n_orders": np.int64(1)}))


def q_delta_encoding_audit(sf_dir: str, block_rows: int = 4096) -> pd.DataFrame:
    """Varint-delta encoding audit — the storage planner's question
    before choosing a key encoding: sorted within its 4096-key block,
    how many bytes does each orderkey delta need under LEB128 (1 byte
    per 7 bits)? Blocks sort independently inside block-hash buckets
    (the first delta is taken from the block's base key, so blocks
    never need their neighbour), the byte class is a pure integer
    threshold chain, and only (class, n) cells leave. The oracle states
    the same LAG-with-base-default and thresholds."""
    o = _read(sf_dir, "orders", ["o_orderkey"])

    def classes(g: pd.DataFrame) -> pd.DataFrame:
        k = np.sort(g["o_orderkey"].to_numpy(np.int64))
        blk = k // block_rows
        base = blk * block_rows
        prev = np.empty_like(k)
        prev[1:] = k[:-1]
        prev[0] = base[0]
        same = np.empty(len(k), dtype=bool)
        same[1:] = blk[1:] == blk[:-1]
        same[0] = False
        delta = np.where(same, k - prev, k - base)
        nbytes = (1 + (delta >= 1 << 7).astype(np.int64)
                  + (delta >= 1 << 14).astype(np.int64)
                  + (delta >= 1 << 21).astype(np.int64)
                  + (delta >= 1 << 28).astype(np.int64))
        cells = pd.DataFrame({"varint_bytes": nbytes, "n_values": np.int64(1)})
        return group_cells(cells, "varint_bytes")

    def add_block(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(__blk=df["o_orderkey"].to_numpy(np.int64)
                         // block_rows)

    out = reduce_partials(bucketed_group_apply(
        o.map_batches(add_block, batch_format="pandas"), "__blk", classes),
        "varint_bytes")
    out["total_bytes"] = out["varint_bytes"] * out["n_values"]
    return out
