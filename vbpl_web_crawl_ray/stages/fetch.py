"""Fetch stage over Arrow batches of frontier pops.

The reference opens one aiohttp session per request (app/service/vbpl.py:60
— wasteful, SURVEY.md ST4) and retries only in the anle service (3 attempts,
exponential backoff 2**retry, app/service/anle.py:38-57). Here the client
(the SimWeb, standing in for a pooled HTTP session) is built ONCE per stage
in __init__, every URL gets the bounded retry budget, and failures become a
status column instead of being swallowed (the reference returns None and
crashes later — vbpl.py:69-72).
"""

from __future__ import annotations

import pyarrow as pa

from ..sources.simweb import SimWeb, SimWebConfig


class FetchStage:
    """Callable over one batch: a crawl round task builds one per slice as
    ``FetchStage(cfg, real_time_t0=...)``; as a ``map_batches`` class it
    holds one client per actor (a live transport's connection pool).

    Input batch columns: url, host, depth, discovery_order, fetch_time.
    Adds: status, content_type, body, retries.
    """

    def __init__(self, cfg: SimWebConfig, max_retries: int = 3,
                 real_time_t0: float | None = None,
                 client_factory=None, backoff_base: float | None = None):
        # per-stage client, built ONCE (the reference builds an aiohttp
        # session per request — vbpl.py:60). client_factory swaps in a
        # live transport (sources/httpclient.HttpTransport) with the same
        # get(url, attempt) -> (status, content_type, body) contract;
        # default is the hermetic SimWeb.
        self.web = client_factory() if client_factory else SimWeb(cfg)
        self.max_retries = max_retries
        # retry backoff (reference anle.py:38-57: sleep(2**retry)). Real
        # wall-clock sleeps for live transports only; the hermetic sim
        # keeps backoff virtual (deterministic, no test slowdown).
        self.backoff_base = (backoff_base if backoff_base is not None
                             else (2.0 if client_factory else 0.0))
        # real_time_t0: wall-clock origin of the crawl. When set, each URL
        # is fetched no earlier than t0 + its virtual fetch_time — the
        # frontier's politeness schedule enforced in wall time (the
        # reference's sleep(3)/sleep(1) budget, app/service/vbpl.py:181).
        self.real_time_t0 = real_time_t0

    def fetch_one(self, url: str) -> tuple[int, str, bytes, int]:
        retries = 0
        status, ctype, body = self.web.get(url, attempt=0)
        # 598 = oversized body (httpclient size cap): terminal, never
        # retried — backoff can't shrink the response. 599 = transport
        # failure: retryable like any 5xx.
        while status >= 500 and status != 598 and retries < self.max_retries:
            retries += 1
            if self.backoff_base:
                import time
                time.sleep(min(self.backoff_base ** retries, 30.0))
            status, ctype, body = self.web.get(url, attempt=retries)
        return status, ctype, body, retries

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.real_time_t0 is not None:
            import time
            results = []
            for u, ft in zip(batch["url"].to_pylist(),
                             batch["fetch_time"].to_pylist()):
                wait = (self.real_time_t0 + ft) - time.time()
                if wait > 0:
                    time.sleep(wait)
                results.append(self.fetch_one(u))
        else:
            results = [self.fetch_one(u) for u in batch["url"].to_pylist()]
        status, ctype, body, retries = zip(*results)
        return (batch
                .append_column("status", pa.array(status, pa.int32()))
                .append_column("content_type", pa.array(ctype, pa.string()))
                .append_column("body", pa.array(body, pa.binary()))
                .append_column("retries", pa.array(retries, pa.int32())))
