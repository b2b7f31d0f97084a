"""Actor-held incremental state for stream-shaped workloads.

Ray Data has no event-time runtime; for semantics that genuinely need
incremental state across arrivals (the guide's 'one actor per key-hash
bucket, fed batches in ts order'), this module keeps one StreamBucket
actor per key-hash bucket. The driver feeds each actor its bucket's
events in timestamp order; the actor maintains per-key running state
(count, sum, EMA) that any later batch continues from.

Ordering assumption (documented per the guide): events within one key
arrive in non-decreasing ts order — one feed loop (:func:`_feed`) sorts the
log and routes each batch's rows by key hash, so keys never straddle
buckets.
"""

from __future__ import annotations

import bisect

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from .shuffle import bucket_of

#: Arrival order of every driver here: event time, ties by event id. A
#: feed in this order drops nothing, so each driver's output equals its
#: batch oracle; late-drop semantics are pinned on the actors directly.
ARRIVAL_ORDER = ["ts", "event_id"]
#: Feed calls in flight before the driver waits for them (backpressure).
_MAX_INFLIGHT = 64


def _feed(ds: rd.Dataset, actors: list, route, feed_batch_rows: int,
          summed: tuple = ()):
    """Feed ``ds`` to ``actors`` (one per key-hash bucket) in
    :data:`ARRIVAL_ORDER`, then flush them.

    A distributed sort orders the log and ``iter_batches`` pulls one batch
    at a time, so the driver never holds the full event log (it stays in
    the object store). ``route(batch)`` returns the batch to send and the
    keys whose ``bucket_of`` picks each row's actor. Per-actor order holds
    because actor tasks from one submitter run in submission order.

    Returns the actors' non-empty ``flush`` frames concatenated (None when
    all are empty: an idle actor's all-object frame would fight the typed
    ones inside concat) and the ``summed`` metrics added over the actors.
    """
    pending: list = []
    for batch in ds.sort(ARRIVAL_ORDER).iter_batches(
            batch_format="pandas", batch_size=feed_batch_rows):
        batch, keys = route(batch)
        b = bucket_of(keys, len(actors))
        for bid in np.unique(b):
            pending.append(actors[bid].feed.remote(batch[b == bid]))
        if len(pending) >= _MAX_INFLIGHT:
            ray.get(pending)
            pending = []
    ray.get(pending)
    outs = [o for o in ray.get([a.flush.remote() for a in actors]) if len(o)]
    mets = ray.get([a.metrics.remote() for a in actors]) if summed else []
    out = pd.concat(outs, ignore_index=True) if outs else None
    return out, {m: sum(x[m] for x in mets) for m in summed}


def _by_key(key_col: str, as_str: bool = False):
    """A :func:`_feed` route: rename ``key_col`` to ``key`` and route by
    it (by its string form when ``as_str``)."""
    def route(batch: pd.DataFrame):
        batch = batch.rename(columns={key_col: "key"})
        keys = batch["key"].astype(str) if as_str else batch["key"]
        return batch, keys.to_numpy()
    return route


@ray.remote(num_cpus=0)
class StreamBucket:
    """Per-bucket incremental state: user_id -> (count, sum, ema)."""

    def __init__(self, alpha: float = 0.1):
        self.alpha = alpha
        self.state: dict = {}

    def feed(self, batch: pd.DataFrame) -> int:
        """Consume one ts-ordered batch; returns rows absorbed."""
        for uid, value in zip(batch["user_id"], batch["value"]):
            c, s, e = self.state.get(uid, (0, 0.0, None))
            e = value if e is None else (self.alpha * value
                                         + (1 - self.alpha) * e)
            self.state[uid] = (c + 1, s + value, e)
        return len(batch)

    def snapshot(self) -> pd.DataFrame:
        rows = [(uid, c, s, e) for uid, (c, s, e) in self.state.items()]
        return pd.DataFrame(rows, columns=["user_id", "n", "total", "ema"])

    flush = snapshot    # the end-of-stream call of :func:`_feed`


def run_stream(ds: rd.Dataset, num_buckets: int = 4, alpha: float = 0.1,
               feed_batch_rows: int = 2048) -> pd.DataFrame:
    """Feed an events Dataset through bucket actors in (ts, event_id)
    order (:func:`_feed`), routed by user_id; returns the final per-user
    state union."""
    out, _ = _feed(ds, [StreamBucket.remote(alpha) for _ in range(num_buckets)],
                   lambda b: (b, b["user_id"].to_numpy()), feed_batch_rows)
    if out is None:
        return pd.DataFrame({"user_id": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64),
                             "total": pd.Series(dtype=np.float64),
                             "ema": pd.Series(dtype=np.float64)})
    return out.sort_values("user_id").reset_index(drop=True)


@ray.remote(num_cpus=0)
class WatermarkWindow:
    """Event-time tumbling windows with watermark finalization: a window
    [k*size, (k+1)*size) FINALIZES once the watermark (max event time
    seen minus allowed lateness) passes its end — its aggregate emits
    exactly once and the state drops, so open-window memory is bounded by
    lateness/size windows per key, not by stream length. Events arriving
    behind the watermark for an already-finalized window are DROPPED and
    counted (the late-data contract every event-time system needs).

    Aggregation state is additive (n, sum) — arrival order inside a
    window does not matter, only the watermark's monotonic advance."""

    def __init__(self, window_size_s: float = 1800.0,
                 allowed_lateness_s: float = 0.0):
        # ALL event-time arithmetic in int64 microseconds: float epoch
        # seconds put boundary events one ulp across a window edge (the
        # event_gap EPOCH lesson) — integers cannot
        self.size = int(round(window_size_s * 1e6))
        self.late = int(round(allowed_lateness_s * 1e6))
        self.open: dict = {}        # (key, win_start_us) -> [n, sum]
        self.done: list = []        # finalized rows
        self.watermark = None       # int64 us, None until first event
        self.dropped = 0

    def feed(self, batch: pd.DataFrame) -> int:
        ts = batch["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        win = (ts // self.size) * self.size
        keys = batch["key"].to_numpy()
        vals = batch["value"].to_numpy()
        frontier = (self.watermark - self.late
                    if self.watermark is not None else None)
        for k, w, v in zip(keys, win, vals):
            if frontier is not None and w + self.size <= frontier:
                self.dropped += 1       # window already finalized
                continue
            st = self.open.setdefault((k, int(w)), [0, 0.0])
            st[0] += 1
            st[1] += v
        if len(ts):
            wm = int(ts.max())
            self.watermark = (wm if self.watermark is None
                              else max(self.watermark, wm))
        self._finalize()
        return len(batch)

    def _finalize(self) -> None:
        if self.watermark is None:
            return
        frontier = self.watermark - self.late
        closed = [kw for kw in self.open if kw[1] + self.size <= frontier]
        for k, w in sorted(closed):
            n, s = self.open.pop((k, w))
            self.done.append((k, w // 1_000_000, n, s))

    def flush(self) -> pd.DataFrame:
        """End of stream: emit every still-open window too (the stream is
        finite here; an infinite stream would keep them open). win_start
        is integer epoch SECONDS (windows are whole-second sized)."""
        for k, w in sorted(self.open):
            n, s = self.open[(k, w)]
            self.done.append((k, w // 1_000_000, n, s))
        self.open.clear()
        return pd.DataFrame(self.done,
                            columns=["key", "win_start", "n", "sum_value"])

    def metrics(self) -> dict:
        return {"dropped_late": self.dropped,
                "open_windows": len(self.open),
                "watermark": self.watermark}


def run_watermark_windows(ds: rd.Dataset, key_col: str,
                          window_size_s: float = 1800.0,
                          allowed_lateness_s: float = 0.0,
                          num_buckets: int = 4,
                          feed_batch_rows: int = 2048):
    """Feed an events Dataset through watermark-window actors in event-time
    order (:func:`_feed`: nothing drops and the result equals the batch
    GROUP BY), routed by the string form of ``key_col``. Returns (windows
    DataFrame, metrics dict)."""
    out, metrics = _feed(
        ds, [WatermarkWindow.remote(window_size_s, allowed_lateness_s)
             for _ in range(num_buckets)],
        _by_key(key_col, as_str=True), feed_batch_rows, ("dropped_late",))
    if out is None:
        return (pd.DataFrame({"key": pd.Series(dtype=object),
                              "win_start": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64),
                              "sum_value": pd.Series(dtype=np.float64)}),
                metrics)
    return out.sort_values(["key", "win_start"]).reset_index(drop=True), metrics


@ray.remote(num_cpus=0)
class SessionWindow:
    """Event-time SESSION windows with watermark finalization — the
    MERGING-window semantics tumbling cannot express: a session is a
    maximal run of a key's events with gaps <= ``gap``; a late-but-
    allowed event that lands between two open sessions BRIDGES them into
    one (the merge is the hard part every streaming engine special-cases).
    A session finalizes exactly once when the watermark (max event time
    minus allowed lateness) passes ``last_ts + gap`` — no future event can
    extend it — so open state is bounded by activity within the lateness
    horizon, not by stream length. Events strictly behind the horizon are
    dropped and counted. All event-time arithmetic in int64 microseconds
    (the event_gap lesson)."""

    def __init__(self, gap_s: float = 1800.0,
                 allowed_lateness_s: float = 0.0):
        self.gap = int(round(gap_s * 1e6))
        self.late = int(round(allowed_lateness_s * 1e6))
        self.open: dict = {}      # key -> [[start, last, n, sum], ...]
        self.done: list = []
        self.watermark = None
        self.dropped = 0

    def feed(self, batch: pd.DataFrame) -> int:
        ts = batch["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        keys = batch["key"].to_numpy()
        vals = batch["value"].to_numpy()
        frontier = (self.watermark - self.late
                    if self.watermark is not None else None)
        for k, t, v in zip(keys, ts, vals):
            t = int(t)
            if frontier is not None and t < frontier:
                self.dropped += 1             # behind the horizon
                continue
            sess = self.open.setdefault(k, [])
            hits = [i for i, s in enumerate(sess)
                    if s[0] - self.gap <= t <= s[1] + self.gap]
            start, last, n, total = t, t, 1, float(v)
            for i in sorted(hits, reverse=True):   # bridge-merge
                s = sess.pop(i)
                start = min(start, s[0])
                last = max(last, s[1])
                n += s[2]
                total += s[3]
            sess.append([start, last, n, total])
        if len(ts):
            wm = int(ts.max())
            self.watermark = (wm if self.watermark is None
                              else max(self.watermark, wm))
        self._finalize()
        return len(batch)

    def _finalize(self) -> None:
        if self.watermark is None:
            return
        frontier = self.watermark - self.late
        for k in list(self.open):
            sess = self.open[k]
            closed = [s for s in sess if s[1] + self.gap < frontier]
            if closed:
                self.open[k] = [s for s in sess
                                if s[1] + self.gap >= frontier]
                for s in sorted(closed):
                    self.done.append((k, s[0], s[1], s[2], s[3]))
                if not self.open[k]:
                    del self.open[k]

    def flush(self) -> pd.DataFrame:
        for k in sorted(self.open):
            for s in sorted(self.open[k]):
                self.done.append((k, s[0], s[1], s[2], s[3]))
        self.open.clear()
        out = pd.DataFrame(self.done, columns=[
            "key", "start_us", "end_us", "n", "sum_value"])
        return out

    def metrics(self) -> dict:
        return {"dropped_late": self.dropped,
                "open_sessions": sum(len(v) for v in self.open.values()),
                "watermark": self.watermark}


def run_session_windows(ds: rd.Dataset, key_col: str,
                        gap_s: float = 1800.0,
                        allowed_lateness_s: float = 0.0,
                        num_buckets: int = 4,
                        feed_batch_rows: int = 2048):
    """Feed an events Dataset through session-window actors in event-time
    order (:func:`_feed`: nothing drops and the finalized output equals
    the batch gaps-and-islands GROUP BY — the oracle), routed by
    ``key_col``. Returns (sessions DataFrame with timestamp bounds,
    metrics dict)."""
    out, metrics = _feed(
        ds, [SessionWindow.remote(gap_s, allowed_lateness_s)
             for _ in range(num_buckets)],
        _by_key(key_col), feed_batch_rows, ("dropped_late",))
    if out is None:
        empty = pd.DataFrame({"key": pd.Series(dtype=object),
                              "session_start": pd.Series(dtype="datetime64[us]"),
                              "session_end": pd.Series(dtype="datetime64[us]"),
                              "n": pd.Series(dtype=np.int64),
                              "sum_value": pd.Series(dtype=np.float64)})
        return empty, metrics
    out["session_start"] = pd.to_datetime(out.pop("start_us"), unit="us")
    out["session_end"] = pd.to_datetime(out.pop("end_us"), unit="us")
    out = out[["key", "session_start", "session_end", "n", "sum_value"]]
    return (out.sort_values(["key", "session_start"])
               .reset_index(drop=True), metrics)


@ray.remote(num_cpus=0)
class IntervalJoin:
    """Stream-stream INTERVAL JOIN with watermark-bounded state — the
    third event-time shape beside tumbling and session windows: every
    'probe' event (purchase) counts the 'build' events (clicks) of the
    same key inside its trailing [t - window, t] interval, inclusive both
    ends. A probe FINALIZES only once the watermark strictly passes its
    timestamp (ties on the boundary may still arrive inside the same
    event-time instant), so the ordered-feed output equals the batch
    theta-join oracle exactly; build rows EVICT once the watermark passes
    ts + window + lateness — state is bounded by activity inside the
    window horizon, never by stream length. Events strictly behind the
    watermark minus lateness are dropped and counted. All event-time
    arithmetic in int64 microseconds."""

    def __init__(self, window_s: float = 1800.0,
                 allowed_lateness_s: float = 0.0):
        self.win = int(round(window_s * 1e6))
        self.late = int(round(allowed_lateness_s * 1e6))
        self.builds: dict = {}     # key -> sorted list of build ts
        self.pending: list = []    # (pt, key, probe_id) awaiting watermark
        self.done: list = []       # (probe_id, n) finalized
        self.watermark = None
        self.dropped = 0
        self.evicted = 0

    def feed(self, batch: pd.DataFrame) -> int:
        ts = batch["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        keys = batch["key"].to_numpy()
        sides = batch["side"].to_numpy()       # 'build' | 'probe'
        ids = batch["event_id"].to_numpy()
        frontier = (self.watermark - self.late
                    if self.watermark is not None else None)
        for k, t, side, eid in zip(keys, ts, sides, ids):
            t = int(t)
            if frontier is not None and t < frontier:
                self.dropped += 1
                continue
            if side == "build":
                bisect.insort(self.builds.setdefault(k, []), t)
            else:
                self.pending.append((t, k, int(eid)))
        if len(ts):
            wm = int(ts.max())
            self.watermark = (wm if self.watermark is None
                              else max(self.watermark, wm))
        self._finalize()
        return len(batch)

    def _finalize(self) -> None:
        """Emit probes strictly behind the watermark; evict builds no
        future in-horizon probe can still see."""
        if self.watermark is None:
            return
        keep = []
        for pt, k, eid in self.pending:
            if pt < self.watermark:
                b = self.builds.get(k, ())
                n = (bisect.bisect_right(b, pt)
                     - bisect.bisect_left(b, pt - self.win))
                self.done.append((eid, n))
            else:
                keep.append((pt, k, eid))
        self.pending = keep
        evict_before = self.watermark - self.late - self.win
        for k in list(self.builds):
            b = self.builds[k]
            cut = bisect.bisect_left(b, evict_before)
            if cut:
                self.evicted += cut
                del b[:cut]
                if not b:
                    del self.builds[k]

    def flush(self) -> pd.DataFrame:
        """End of stream: the watermark advances past everything."""
        for pt, k, eid in self.pending:
            b = self.builds.get(k, ())
            n = (bisect.bisect_right(b, pt)
                 - bisect.bisect_left(b, pt - self.win))
            self.done.append((eid, n))
        self.pending = []
        return pd.DataFrame(self.done, columns=["event_id", "n_clicks"])

    def metrics(self) -> dict:
        return {"dropped_late": self.dropped,
                "evicted_builds": self.evicted,
                "buffered_builds": sum(len(v) for v in self.builds.values()),
                "watermark": self.watermark}


def run_interval_join(ds: rd.Dataset, key_col: str,
                      build_type: str, probe_type: str,
                      window_s: float = 1800.0,
                      allowed_lateness_s: float = 0.0,
                      num_buckets: int = 4,
                      feed_batch_rows: int = 2048):
    """Feed an events Dataset through interval-join actors in event-time
    order (:func:`_feed`: nothing drops and the output equals the batch
    trailing-window theta join — the oracle), routed by ``key_col``. Rows
    of other event types are filtered out BEFORE the stream sort. Returns
    (per-probe counts DataFrame, metrics dict)."""

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"].isin((build_type, probe_type))]
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(),
            "key": df[key_col].to_numpy(),
            "ts": df["ts"].to_numpy(),
            "side": np.where(df["event_type"].to_numpy() == build_type,
                             "build", "probe")})

    out, metrics = _feed(
        ds.map_batches(pre, batch_format="pandas"),
        [IntervalJoin.remote(window_s, allowed_lateness_s)
         for _ in range(num_buckets)],
        lambda b: (b, b["key"].to_numpy()), feed_batch_rows,
        ("dropped_late", "evicted_builds", "buffered_builds"))
    if out is None:
        return (pd.DataFrame({"event_id": pd.Series(dtype=np.int64),
                              "n_clicks": pd.Series(dtype=np.int64)}),
                metrics)
    out = (out.astype({"event_id": "int64", "n_clicks": "int64"})
              .sort_values("event_id").reset_index(drop=True))
    return out, metrics


@ray.remote(num_cpus=0)
class HoppingWindow:
    """Event-time HOPPING (sliding) windows with watermark finalization —
    the overlapping-window member of the trio (tumbling / session /
    hopping): every event lands in size/hop windows [k*hop, k*hop+size);
    a window finalizes once the watermark passes its END, emitting
    exactly once; events behind an already-finalized window drop and are
    counted. The multi-window assignment is the ragged vectorized arange
    INSIDE feed — per batch, no per-event Python loop for the expansion.
    All event-time arithmetic in int64 microseconds; state is bounded by
    (size/hop) x lateness-horizon windows per key."""

    def __init__(self, window_size_s: float = 3600.0,
                 hop_s: float = 900.0, allowed_lateness_s: float = 0.0):
        self.size = int(round(window_size_s * 1e6))
        self.hop = int(round(hop_s * 1e6))
        self.late = int(round(allowed_lateness_s * 1e6))
        self.open: dict = {}        # (key, win_start_us) -> [n, sum]
        self.done: list = []
        self.watermark = None
        self.dropped = 0

    def feed(self, batch: pd.DataFrame) -> int:
        ts = batch["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        keys = batch["key"].to_numpy()
        vals = batch["value"].to_numpy()
        k_min = (ts - self.size) // self.hop + 1
        k_max = ts // self.hop
        cnt = (k_max - k_min + 1).astype(np.int64)
        rows = np.repeat(np.arange(len(ts)), cnt)
        starts = np.cumsum(cnt) - cnt
        k = (np.arange(int(cnt.sum())) - np.repeat(starts, cnt)
             + np.repeat(k_min, cnt))
        wins = k * self.hop
        keys_e, vals_e = keys[rows], vals[rows]
        frontier = (self.watermark - self.late
                    if self.watermark is not None else None)
        if frontier is not None:
            late = wins + self.size <= frontier   # window already final
            self.dropped += int(late.sum())
            keep = ~late
            keys_e, vals_e, wins = keys_e[keep], vals_e[keep], wins[keep]
        # per-(key, window) combine BEFORE touching dict state: the
        # Python loop runs over distinct open windows, not assignments
        agg = (pd.DataFrame({"k": keys_e, "w": wins, "v": vals_e})
               .groupby(["k", "w"], sort=False)["v"]
               .agg(["size", "sum"]))
        for (kk, ww), (n, sv) in agg.iterrows():
            st = self.open.setdefault((kk, int(ww)), [0, 0.0])
            st[0] += int(n)
            st[1] += sv
        if len(ts):
            wm = int(ts.max())
            self.watermark = (wm if self.watermark is None
                              else max(self.watermark, wm))
        self._finalize()
        return len(batch)

    def _finalize(self) -> None:
        if self.watermark is None:
            return
        frontier = self.watermark - self.late
        closed = [kw for kw in self.open if kw[1] + self.size <= frontier]
        for key, w in sorted(closed):
            n, s = self.open.pop((key, w))
            self.done.append((key, w // 1_000_000, n, s))

    def flush(self) -> pd.DataFrame:
        for key, w in sorted(self.open):
            n, s = self.open[(key, w)]
            self.done.append((key, w // 1_000_000, n, s))
        self.open.clear()
        return pd.DataFrame(self.done,
                            columns=["key", "win_start", "n", "sum_value"])

    def metrics(self) -> dict:
        return {"dropped_late": self.dropped,
                "open_windows": len(self.open),
                "watermark": self.watermark}


def run_hopping_windows(ds: rd.Dataset, key_col: str,
                        window_size_s: float = 3600.0,
                        hop_s: float = 900.0,
                        allowed_lateness_s: float = 0.0,
                        num_buckets: int = 4,
                        feed_batch_rows: int = 2048):
    """Feed an events Dataset through hopping-window actors in event-time
    order (:func:`_feed`: nothing drops and the finalized output equals
    the batch window expansion — the oracle), routed by the string form
    of ``key_col``. Returns (windows DataFrame, metrics dict)."""
    out, metrics = _feed(
        ds, [HoppingWindow.remote(window_size_s, hop_s, allowed_lateness_s)
             for _ in range(num_buckets)],
        _by_key(key_col, as_str=True), feed_batch_rows, ("dropped_late",))
    if out is None:
        return (pd.DataFrame({"key": pd.Series(dtype=object),
                              "win_start": pd.Series(dtype=np.int64),
                              "n": pd.Series(dtype=np.int64),
                              "sum_value": pd.Series(dtype=np.float64)}),
                metrics)
    return out.sort_values(["key", "win_start"]).reset_index(drop=True), metrics


@ray.remote(num_cpus=0)
class DedupGate:
    """Exactly-once idempotency gate — the at-least-once-delivery repair
    every streaming ingest needs: a re-delivered event (same event_id)
    inside the dedup horizon is DROPPED and counted; ids older than
    watermark - horizon EVICT, so state is bounded by the horizon's
    event volume, never by stream length. Event-time arithmetic is int64
    microseconds throughout (the event_gap EPOCH lesson). One gate per
    id-hash bucket: the same id always routes to the same actor, so the
    dedup decision needs no cross-actor coordination."""

    def __init__(self, horizon_s: float = 3600.0):
        self.horizon = int(round(horizon_s * 1e6))
        self.seen: dict = {}          # event_id -> first-seen ts (us)
        self.counts: dict = {}        # event_type -> delivered count
        self.drops: dict = {}         # event_type -> duplicates dropped
        self.watermark = None
        self.dropped = 0

    def feed(self, batch: pd.DataFrame) -> int:
        ts = batch["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        ids = batch["event_id"].to_numpy()
        types = batch["event_type"].to_numpy()
        for i, t, ty in zip(ids, ts, types):
            if i in self.seen:
                self.dropped += 1
                self.drops[ty] = self.drops.get(ty, 0) + 1
                continue
            self.seen[int(i)] = int(t)
            self.counts[ty] = self.counts.get(ty, 0) + 1
        if len(ts):
            wm = int(ts.max())
            self.watermark = (wm if self.watermark is None
                              else max(self.watermark, wm))
            frontier = self.watermark - self.horizon
            if self.seen:
                self.seen = {i: t for i, t in self.seen.items()
                             if t >= frontier}
        return len(batch)

    def flush(self) -> pd.DataFrame:
        rows = [(ty, n, self.drops.get(ty, 0))
                for ty, n in sorted(self.counts.items())]
        return pd.DataFrame(rows,
                            columns=["event_type", "n_events", "n_dups"])

    def metrics(self) -> dict:
        return {"dups_dropped": self.dropped,
                "ids_held": len(self.seen),
                "watermark": self.watermark}


def run_dedup_gate(ds: rd.Dataset, horizon_s: float = 3600.0,
                   num_buckets: int = 4,
                   feed_batch_rows: int = 2048):
    """Feed an events Dataset (which may contain re-deliveries) through
    DedupGate actors in (ts, event_id) order (:func:`_feed`). Ids hash to
    buckets, so each gate's view of one id is total. Returns (per-type
    delivered counts, metrics with the global dups_dropped)."""
    out, metrics = _feed(
        ds, [DedupGate.remote(horizon_s) for _ in range(num_buckets)],
        lambda b: (b, b["event_id"].to_numpy()), feed_batch_rows,
        ("dups_dropped", "ids_held"))
    if out is None:
        return (pd.DataFrame({"event_type": pd.Series(dtype=object),
                              "n_events": pd.Series(dtype=np.int64),
                              "n_dups": pd.Series(dtype=np.int64)}),
                metrics)
    out = (out.groupby("event_type", as_index=False)
              .agg(n_events=("n_events", "sum"), n_dups=("n_dups", "sum"))
              .sort_values("event_type").reset_index(drop=True))
    return out, metrics
