"""Graph operators over edge datasets: connected components and dup-group
clustering.

Near-dup pair lists (MinHash/SimHash/phash) become duplicate GROUPS via
connected components. Scale path: iterative min-label propagation — each
round is one bucketed shuffle keyed by node, labels converge in
O(diameter) rounds (the groupby-iteration pattern for components; public
Pregel-style algorithm). The reference's link graph (vbpl_related_document
/ vbpl_doc_map, app/model/vbpl.py:100-145) gets the same treatment for
document families.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data as rd

from .shuffle import broadcast_get, bucketed_group_apply, reduce_partials


def connected_components(pairs: pd.DataFrame, id_a: str = "id_a",
                         id_b: str = "id_b", max_rounds: int = 50,
                         local_threshold: int = 2_000_000) -> pd.DataFrame:
    """(node, component) labeling; component id = min node id in the
    component. Distributed min-label propagation over Ray Data; below
    ``local_threshold`` edges a single-pass union-find wins — each
    distributed round costs two shuffles + a join, so the crossover sits
    in the millions of edges (a 2M-edge union-find is ~2 s; the
    distributed path exists for edge sets that exceed one machine, where
    the input arrives as a Dataset anyway)."""
    if len(pairs) == 0:
        return pd.DataFrame({"node": pd.Series(dtype=object),
                             "component": pd.Series(dtype=object)})
    if len(pairs) < local_threshold:
        return _cc_local(pairs, id_a, id_b)

    edges = pd.concat([
        pairs[[id_a, id_b]].rename(columns={id_a: "u", id_b: "v"}),
        pairs[[id_b, id_a]].rename(columns={id_b: "u", id_a: "v"}),
    ], ignore_index=True)
    init = pd.DataFrame({"node": pd.unique(edges["u"])})
    init["component"] = init["node"]
    edges_ds = rd.from_pandas(edges).materialize()
    labels_ds = rd.from_pandas(init).materialize()

    def as_cand(is_self: int):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            src = "v" if not is_self else "node"
            return pd.DataFrame({
                "node": df[src].to_numpy(),
                "cand": df["component"].to_numpy(),
                "is_self": np.full(len(df), is_self, dtype=np.int8)})
        return f

    def take_min(g: pd.DataFrame) -> pd.DataFrame:
        new = (g.groupby("node", as_index=False)["cand"].min()
                .rename(columns={"cand": "component"}))
        old = (g[g["is_self"] == 1][["node", "cand"]]
               .rename(columns={"cand": "old"}))
        m = new.merge(old, on="node", how="left")
        m["changed"] = (m["component"] < m["old"]).astype(np.int64)
        return m[["node", "component", "changed"]]

    for _ in range(max_rounds):
        # propagate: labels hash-join to edges (no label map in any task
        # closure — the labels themselves are a keyed dataset and only the
        # matching rows move), then per-node min via the bucketed shuffle
        prop = (edges_ds.join(labels_ds, join_type="inner", num_partitions=8,
                              on=("u",), right_on=("node",))
                        .map_batches(as_cand(0), batch_format="pandas"))
        selfs = labels_ds.map_batches(as_cand(1), batch_format="pandas")
        new_labels = bucketed_group_apply(prop.union(selfs), "node", take_min)
        changed = new_labels.sum("changed")
        labels_ds = new_labels.map_batches(
            lambda df: df[["node", "component"]], batch_format="pandas")
        if not changed:
            break
        # pointer jumping (shortcutting): component <- component's
        # component, one self-join per round -> O(log n) convergence.
        # Every component value is itself a labeled node, so the inner
        # join is total.
        jump_to = labels_ds.map_batches(
            lambda df: df.rename(columns={"node": "jnode",
                                          "component": "jcomp"}),
            batch_format="pandas")
        labels_ds = (labels_ds.join(jump_to, join_type="inner",
                                    num_partitions=8,
                                    on=("component",), right_on=("jnode",))
                     .map_batches(lambda df: pd.DataFrame(
                         {"node": df["node"].to_numpy(),
                          "component": df["jcomp"].to_numpy()}),
                         batch_format="pandas")
                     .materialize())
    return (labels_ds.to_pandas()
            .sort_values("node").reset_index(drop=True))


def _cc_local(pairs: pd.DataFrame, id_a: str, id_b: str) -> pd.DataFrame:
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs[id_a], pairs[id_b]):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return pd.DataFrame({"node": nodes, "component": [find(n) for n in nodes]})


def dup_clusters(pairs: pd.DataFrame, id_a: str = "id_a",
                 id_b: str = "id_b") -> pd.DataFrame:
    """Duplicate groups from near-dup pairs: (component, size, members
    sorted) — the keep-one-representative input for dedup filtering."""
    cc = connected_components(pairs, id_a, id_b)
    if cc.empty:
        return pd.DataFrame({"component": [], "size": [], "members": []})
    g = cc.groupby("component")["node"].agg(list).reset_index()
    g["members"] = g["node"].map(lambda xs: sorted(xs))
    g["size"] = g["members"].str.len().astype("int64")
    return g[["component", "size", "members"]].sort_values("component") \
        .reset_index(drop=True)



# ---------------------------------------------------------------------------
# PageRank — the iterative-algorithm pattern over a link graph
# ---------------------------------------------------------------------------

PR_BROADCAST_MAX_NODES = 2_000_000   # ranks ship via ray.put below this


def _pagerank_broadcast(edges_ds: rd.Dataset, src: str, dst: str,
                        d: float, iters: int) -> pd.DataFrame:
    """Small-graph path: the rank vector (8 B/node) broadcasts via
    ray.put each iteration; edges stream through map_batches emitting
    per-batch partial contribution sums. Driver holds O(V) — gated by
    PR_BROADCAST_MAX_NODES."""
    import ray

    nodes = np.sort(edges_ds.map_batches(
        lambda df: pd.DataFrame({"node": pd.concat([df[src], df[dst]])
                                 .unique()}), batch_format="pandas")
        .to_pandas()["node"].unique())
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}

    deg = reduce_partials(edges_ds, src, lambda df: pd.DataFrame(
        {src: df[src], "c": np.int64(1)})).set_index(src)["c"]
    out_deg = np.zeros(n, dtype=np.float64)
    for v, c in deg.items():
        out_deg[idx[v]] = c

    ranks = np.full(n, 1.0 / n)
    iref = ray.put(idx)
    for _ in range(iters):
        rref = ray.put(ranks / np.maximum(out_deg, 1.0))

        def contribs(df: pd.DataFrame) -> pd.DataFrame:
            ix = broadcast_get(iref)
            share = broadcast_get(rref)
            j = np.fromiter((ix[v] for v in df[dst]), dtype=np.int64,
                            count=len(df))
            s = np.fromiter((share[ix[v]] for v in df[src]),
                            dtype=np.float64, count=len(df))
            return pd.DataFrame({"j": j, "c": s})

        parts = reduce_partials(edges_ds, "j", contribs).set_index("j")["c"]
        new = np.zeros(n)
        new[parts.index.to_numpy()] = parts.to_numpy()
        dangling = ranks[out_deg == 0].sum()
        ranks = (1 - d) / n + d * (new + dangling / n)
    return pd.DataFrame({"node": nodes, "rank": np.round(ranks, 10)})



class _PRPartition:
    """One PageRank partition: holds its shard of the adjacency list and
    rank vector (nodes with hash(node) % P == pid). Built ONCE; each
    iteration exchanges only (targets, sums) contribution arrays through
    the object store (actor-to-actor via refs) — the Pregel-style
    raw-actor path the Dataset API can't express without per-iteration
    shuffles."""

    def __init__(self, pid: int, num_parts: int):
        self.pid = pid
        self.P = num_parts
        self.adj: dict[int, np.ndarray] = {}
        self.ranks: dict[int, float] = {}
        self._seen_batches: set[bytes] = set()
        self._n_edges = 0

    def _owner(self, nodes: np.ndarray) -> np.ndarray:
        from .shuffle import bucket_of
        return bucket_of(nodes, self.P)

    def load_edges(self, batch_id: bytes, srcs: np.ndarray,
                   dsts: np.ndarray) -> int:
        # idempotence guard: Ray Data may retry/re-execute a stage task
        # (task failure, object loss); without it the same edge batch
        # loads twice and silently inflates out-degrees. batch_id is a
        # content digest computed by the sender; edge_total() lets the
        # caller verify nothing was wrongly skipped either.
        if batch_id in self._seen_batches:
            return 0
        self._seen_batches.add(batch_id)
        mine = self._owner(srcs) == self.pid
        s, t = srcs[mine], dsts[mine]
        if not len(s):
            return 0
        self._n_edges += len(s)
        order = np.argsort(s, kind="mergesort")
        s, t = s[order], t[order]
        cuts = np.flatnonzero(np.diff(s)) + 1
        for node, targets in zip(s[np.r_[0, cuts]],
                                 np.split(t, cuts)):
            node = node.item()      # native py scalar: works for str + int
            prev = self.adj.get(node)
            self.adj[node] = (targets if prev is None
                              else np.concatenate([prev, targets]))
        return int(mine.sum())

    def edge_total(self) -> int:
        return self._n_edges

    def register_nodes(self, nodes: np.ndarray) -> int:
        mine = nodes[self._owner(nodes) == self.pid]
        for v in mine:
            self.ranks.setdefault(v.item(), 0.0)
        return len(self.ranks)

    def init_ranks(self, n_total: int):
        """Freeze the registration dicts into contiguous arrays: rank
        vector, adjacency targets concatenated in node order, the
        partition-local unique-target index, and per-owner slices — the
        one-time indexing that makes emit()/apply() pure numpy (the
        per-edge Python loop here used to dominate every iteration)."""
        self.nodes = np.array(sorted(self.ranks))
        n = len(self.nodes)
        self.rank_vec = np.full(n, 1.0 / n_total)
        deg = np.array([len(self.adj.get(v.item(), ()))
                        for v in self.nodes], dtype=np.int64)
        self.dangling_mask = deg == 0
        self.deg_pos = deg[deg > 0]
        pos_nodes = self.nodes[deg > 0]
        if len(pos_nodes):
            targets = np.concatenate([self.adj[v.item()] for v in pos_nodes])
        else:
            targets = np.array([], dtype=self.nodes.dtype)
        # per-edge contributions accumulate onto unique targets via one
        # np.add.at (edge_inv maps edge -> unique-target slot), then ship
        # per owner as (targets, sums) array pairs
        self.uniq_targets, self.edge_inv = np.unique(targets,
                                                     return_inverse=True)
        t_owner = (self._owner(self.uniq_targets)
                   if len(self.uniq_targets)
                   else np.array([], dtype=np.int64))
        self.owner_ix = [np.flatnonzero(t_owner == o)
                         for o in range(self.P)]
        self.adj = {}            # the arrays above carry everything now

    def emit(self):
        """Per-target-partition (targets, sums) arrays (each ray.put
        separately) + this shard's dangling mass. The driver receives
        only P refs + one scalar per actor and forwards each ref to its
        target — contributions flow actor-to-actor through the object
        store, never through the driver."""
        import ray
        shares = self.rank_vec[~self.dangling_mask] / self.deg_pos
        sums = np.zeros(len(self.uniq_targets))
        np.add.at(sums, self.edge_inv, np.repeat(shares, self.deg_pos))
        dangling = float(self.rank_vec[self.dangling_mask].sum())
        return [ray.put((self.uniq_targets[ix], sums[ix]))
                for ix in self.owner_ix], dangling

    def apply(self, inboxes: list, dangling_total: float, n_total: int,
              d: float):
        import ray
        base = (1 - d) / n_total + d * dangling_total / n_total
        acc = np.full(len(self.nodes), base)
        for ref in inboxes:
            t, s_arr = ray.get(ref)
            # every target shipped here is registered locally, so the
            # sorted-nodes searchsorted is exact; targets are unique
            # within one inbox, so plain fancy-index add suffices
            acc[np.searchsorted(self.nodes, t)] += d * s_arr
        self.rank_vec = acc

    def collect(self) -> pd.DataFrame:
        return pd.DataFrame({"node": self.nodes, "rank": self.rank_vec})


def _pagerank_actors(edges_ds: rd.Dataset, src: str, dst: str,
                     d: float, iters: int, num_parts: int = 8) -> pd.DataFrame:
    """Scale path: hash-partitioned stateful actors (adjacency + ranks
    built once), per-iteration all-to-all of contribution dicts via
    object-store refs. Driver traffic per iteration is O(P^2) refs plus
    P dangling scalars — independent of graph size."""
    import ray

    actors = [ray.remote(_PRPartition).remote(i, num_parts)
              for i in range(num_parts)]

    # loading runs INSIDE map_batches tasks: each task routes its batch's
    # edge slices to their owner actors through the object store (the
    # frontier-staging pattern) — the driver never streams the edge set
    from .shuffle import bucket_of

    def stage(df: pd.DataFrame) -> pd.DataFrame:
        import hashlib
        s = df[src].to_numpy()
        t = df[dst].to_numpy()
        owners = bucket_of(s, num_parts)
        waits = []
        for pid in np.unique(owners):
            m = owners == pid
            # deterministic content digest: identical across task retries
            # (the load_edges idempotence key), distinct across batches
            bid = hashlib.blake2b(
                bucket_of(s[m], 1 << 62).tobytes()
                + bucket_of(t[m], 1 << 62).tobytes(),
                digest_size=16).digest()
            waits.append(actors[pid].load_edges.remote(bid, s[m], t[m]))
            waits.append(actors[pid].register_nodes.remote(np.unique(s[m])))
        d_owners = bucket_of(t, num_parts)
        for pid in np.unique(d_owners):
            waits.append(actors[pid].register_nodes.remote(
                np.unique(t[d_owners == pid])))
        ray.get(waits)     # staged before the task reports done
        return pd.DataFrame({"n": [len(df)]})

    n_staged = edges_ds.map_batches(stage, batch_format="pandas",
                                    batch_size=65536).sum("n")
    loaded = sum(ray.get([a.edge_total.remote() for a in actors]))
    if loaded != n_staged:
        # either a twin batch was wrongly digest-skipped or a load was
        # lost: out-degrees would be silently wrong, so refuse to rank
        raise RuntimeError(
            f"PageRank edge staging mismatch: {loaded} loaded vs "
            f"{n_staged} staged (duplicate-batch digest collision or "
            "dropped load)")
    n_total = sum(ray.get([a.register_nodes.remote(np.array([], np.int64))
                           for a in actors]))
    ray.get([a.init_ranks.remote(n_total) for a in actors])

    for _ in range(iters):
        emitted = [a.emit.remote() for a in actors]
        results = ray.get(emitted)
        dangling_total = sum(r[1] for r in results)
        for pid, a in enumerate(actors):
            inboxes = [results[q][0][pid] for q in range(num_parts)]
            a.apply.remote(inboxes, dangling_total, n_total, d)
    out = pd.concat(ray.get([a.collect.remote() for a in actors]),
                    ignore_index=True)
    out["rank"] = np.round(out["rank"], 10)
    return out.sort_values("node").reset_index(drop=True)


def pagerank(edges: pd.DataFrame | rd.Dataset, src: str = "src",
             dst: str = "dst", d: float = 0.85, iters: int = 20,
             force_partitioned: bool = False) -> pd.DataFrame:
    """PageRank (Brin & Page '98) over a directed edge list, fixed
    iteration count so the result is deterministic at any parallelism.

    Size-gated like the dedup verify: the rank vector broadcasts while
    the node count stays under PR_BROADCAST_MAX_NODES (8 B/node — a
    2M-node vector is 16 MB); past the gate ranks stay a keyed dataset
    and each iteration is two bucketed shuffles with O(1) driver memory
    (path equivalence is pytest-asserted)."""
    if isinstance(edges, pd.DataFrame):
        edges_ds = rd.from_pandas(edges[[src, dst]]).materialize()
        n_nodes = len(pd.unique(pd.concat([edges[src], edges[dst]])))
    else:
        edges_ds = edges.map_batches(lambda df: df[[src, dst]],
                                     batch_format="pandas").materialize()
        n_nodes = bucketed_group_apply(
            edges_ds.map_batches(
                lambda df: pd.DataFrame({"node": pd.concat(
                    [df[src], df[dst]]).unique()}), batch_format="pandas"),
            "node", lambda g: g.drop_duplicates()).count()
    if force_partitioned or n_nodes > PR_BROADCAST_MAX_NODES:
        return _pagerank_actors(edges_ds, src, dst, d, iters)
    out = _pagerank_broadcast(edges_ds, src, dst, d, iters)
    return out.sort_values("node").reset_index(drop=True)


def _endpoint_degrees(df: pd.DataFrame) -> pd.DataFrame:
    """One (node, d=1) row per endpoint of each (u, v) edge row."""
    return pd.DataFrame({"node": pd.concat([df["u"], df["v"]],
                                           ignore_index=True),
                         "d": np.int64(1)})


def triangle_count(edges, src: str = "src", dst: str = "dst",
                   num_buckets: int | None = None) -> pd.DataFrame:
    """Distributed triangle count by DEGREE-ORIENTED wedge generation —
    the classic O(m^1.5) shape: orient every undirected edge from its
    (degree, id)-smaller endpoint to the larger, so each node's oriented
    out-degree is bounded by sqrt(2m) and the wedge explosion sum(d_out^2)
    cannot blow up on a hub (an UNoriented hub of degree 10^6 would
    generate 10^12 wedges; oriented it generates at most 2m). Wedges are
    the ragged vectorized arange inside whole-source buckets; closure is
    a tagged-union membership count inside (u,v)-key buckets — wedge rows
    never gather, only per-bucket triangle counters leave. Degrees ride
    to the orientation step via broadcast here (node dim is small beside
    edges); at a scale where even degrees cannot broadcast, the lookup
    becomes one more bucketed join on the endpoint.

    Accepts a pandas frame or a Dataset of (src, dst) string/int ids."""
    import ray.data as rd

    if isinstance(edges, pd.DataFrame):
        edges = rd.from_pandas(edges[[src, dst]])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src].astype(str).to_numpy()
        b = df[dst].astype(str).to_numpy()
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        out = pd.DataFrame({"u": u, "v": v})
        return out[out["u"] != out["v"]].drop_duplicates()

    ded = bucketed_group_apply(
        edges.map_batches(canon, batch_format="pandas"), "u",
        lambda g: g.drop_duplicates(["u", "v"]),
        num_buckets=num_buckets).materialize()

    deg = reduce_partials(ded, "node", _endpoint_degrees)
    n_nodes = len(deg)
    import ray
    dref = ray.put(dict(zip(deg["node"], deg["d"])))

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        d = broadcast_get(dref)
        du = df["u"].map(d).to_numpy()
        dv = df["v"].map(d).to_numpy()
        # (degree, id) order: strictly smaller key points outward
        u_first = (du < dv) | ((du == dv)
                               & (df["u"].to_numpy() < df["v"].to_numpy()))
        return pd.DataFrame({
            "s": np.where(u_first, df["u"], df["v"]),
            "t": np.where(u_first, df["v"], df["u"])})

    oriented = ded.map_batches(orient, batch_format="pandas")

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["s", "t"], kind="mergesort")
        m = d.groupby("s", sort=False)["t"].transform("size").to_numpy()
        pos = d.groupby("s", sort=False).cumcount().to_numpy()
        cnt = m - pos - 1
        a_idx = np.repeat(np.arange(len(d)), cnt)
        starts = np.cumsum(cnt) - cnt
        b_idx = (np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
                 + np.repeat(np.arange(len(d)) + 1, cnt))
        t = d["t"].to_numpy()
        x, y = t[a_idx], t[b_idx]
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        # \x1f (unit separator) cannot appear in node ids (crawl ids are
        # printable); "|" could, which would alias distinct (lo, hi)
        # pairs into one composite key and miscount triangles
        return pd.DataFrame({"key": lo + "\x1f" + hi,
                             "side": np.zeros(len(lo), np.int8)})

    w = bucketed_group_apply(oriented, "s", wedges,
                             num_buckets=num_buckets)
    e = ded.map_batches(
        lambda df: pd.DataFrame({"key": df["u"] + "\x1f" + df["v"],
                                 "side": np.ones(len(df), np.int8)}),
        batch_format="pandas")

    def close(g: pd.DataFrame) -> pd.DataFrame:
        have = set(g.loc[g["side"] == 1, "key"])
        n = int(g.loc[g["side"] == 0, "key"].isin(have).sum())
        return pd.DataFrame({"tri": [n]})

    parts = bucketed_group_apply(w.union(e), "key", close,
                                 num_buckets=num_buckets).to_pandas()
    n_edges = ded.count()
    return pd.DataFrame({"n_nodes": [np.int64(n_nodes)],
                         "n_edges": [np.int64(n_edges)],
                         "n_triangles": [np.int64(parts["tri"].sum())]})


def k_core(edges, k: int = 3, src: str = "src", dst: str = "dst",
           num_buckets: int | None = None, max_iters: int = 100) -> pd.DataFrame:
    """K-CORE decomposition by distributed iterative peeling: repeatedly
    drop every node of degree < k until a fixpoint — what survives is the
    maximal subgraph where every node keeps >= k neighbours (the dense
    backbone extractor used for community seeding and spam filtering).

    Per iteration: one degree pass (mergeable per-batch endpoint counts)
    and one vectorized edge filter against THIS round's removal set,
    broadcast once via ray.put — the edge set only shrinks, and peeling
    converges in few rounds on power-law graphs (each round removes the
    whole current fringe, not one node). The dataset materializes per
    iteration so lineage stays flat (the PageRank object-reconstruction
    lesson). The removal broadcast is size-gated by construction (a
    round's fringe); at a scale where even the degree table cannot merge
    on the driver, the degree pass becomes a bucketed count and the
    filter a bucketed anti-join on each endpoint — same loop, two more
    shuffles per round.

    Returns the surviving (node, degree-in-core) table; empty if the
    k-core is empty. Accepts a pandas frame or a Dataset of (src, dst)."""
    import ray
    import ray.data as rd

    if isinstance(edges, pd.DataFrame):
        edges = rd.from_pandas(edges[[src, dst]])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src].astype(str).to_numpy()
        b = df[dst].astype(str).to_numpy()
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        out = pd.DataFrame({"u": u, "v": v})
        return out[out["u"] != out["v"]].drop_duplicates()

    cur = bucketed_group_apply(
        edges.map_batches(canon, batch_format="pandas"), "u",
        lambda g: g.drop_duplicates(["u", "v"]),
        num_buckets=num_buckets).materialize()

    deg = pd.DataFrame({"node": pd.Series(dtype=object),
                        "d": pd.Series(dtype=np.int64)})
    for _ in range(max_iters):
        if cur.count() == 0:
            return pd.DataFrame({"node": pd.Series(dtype=object),
                                 "degree": pd.Series(dtype=np.int64)})
        deg = reduce_partials(cur, "node", _endpoint_degrees)
        fringe = set(deg.loc[deg["d"] < k, "node"])
        if not fringe:
            break
        rref = ray.put(fringe)

        def drop(df: pd.DataFrame) -> pd.DataFrame:
            gone = broadcast_get(rref)
            return df[~df["u"].isin(gone) & ~df["v"].isin(gone)]

        cur = cur.map_batches(drop, batch_format="pandas").materialize()
    else:
        raise RuntimeError("k_core failed to converge")

    return deg.rename(columns={"d": "degree"})


def bfs_depths(edges, seed: str, src: str = "src", dst: str = "dst",
               num_buckets: int | None = None, max_depth: int = 64) -> pd.DataFrame:
    """Distributed BFS from a seed over an undirected edge set: classic
    frontier expansion — each round ONE vectorized pass over the edge
    dataset marks neighbours of the current frontier (broadcast as a
    set via ray.put every round, ungated: the frontier and the visited
    map live on the driver, so both grow with the reachable node count),
    and the loop ends when a frontier comes back empty. Edges canonicalize
    and dedup once up front; rounds = graph diameter. Returns (node,
    depth) for every reachable node."""
    import ray
    import ray.data as rd

    from .shuffle import bucketed_group_apply

    if isinstance(edges, pd.DataFrame):
        edges = rd.from_pandas(edges[[src, dst]])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src].astype(str).to_numpy()
        b = df[dst].astype(str).to_numpy()
        out = pd.DataFrame({"u": a, "v": b})
        return out[out["u"] != out["v"]].drop_duplicates()

    ded = bucketed_group_apply(
        edges.map_batches(canon, batch_format="pandas"), "u",
        lambda g: g.drop_duplicates(["u", "v"]),
        num_buckets=num_buckets).materialize()

    visited = {str(seed): 0}
    frontier = {str(seed)}
    for depth in range(1, max_depth + 1):
        fref = ray.put(frontier)

        def expand(df: pd.DataFrame) -> pd.DataFrame:
            f = broadcast_get(fref)
            u_in = df["u"].isin(f).to_numpy()
            v_in = df["v"].isin(f).to_numpy()
            nxt = np.concatenate([df["v"].to_numpy()[u_in],
                                  df["u"].to_numpy()[v_in]])
            return pd.DataFrame({"node": pd.unique(nxt)})

        nxt = ded.map_batches(expand, batch_format="pandas").to_pandas()
        frontier = set(nxt["node"]) - set(visited)
        if not frontier:
            break
        for nd in frontier:
            visited[nd] = depth
    return (pd.DataFrame({"node": list(visited),
                          "depth": np.fromiter(visited.values(), np.int64,
                                               len(visited))})
            .sort_values(["depth", "node"]).reset_index(drop=True))
