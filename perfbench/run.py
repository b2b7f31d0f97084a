"""Benchmark of the crawl engine: three workloads, checked against oracles.

    python3 perfbench/run.py --num-cpus 2 --workload crawl-images \\
        --seed 1 --seconds 8 --trace 0

runs from any working directory inside a checkout of the repository. It
generates its inputs from ``--seed`` inside ``.perfbench/`` at the root of
the checkout, sets up several times (the median is ``setup_s``), measures
``--seconds`` seconds of operations in a closed loop, checks every output
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones of ``layers.py``. The full result, with the
host calibration probe, sample counts and workload figures, goes to
``.perfbench/results/``; traced runs also write their spans there.

    python3 perfbench/run.py --compare A.json B.json   # deltas, B vs A
    python3 perfbench/run.py --self-check              # tiny runs + oracles

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUDGET_S = 170          # a run past this is recorded as failed
SETUP_REPS = 3
# Ray's session sockets live under its temp dir; AF_UNIX paths are capped
# at 107 bytes and Ray appends about 62, so a longer checkout path falls
# back to a private directory under /tmp (removed at exit).
RAY_TMP_MAX = 44


class Budget(Exception):
    pass


class Ctx:
    """One run's state, shared by the harness and the workload."""

    def __init__(self, args):
        from spans import Tracer
        self.root = ROOT
        self.seed = args.seed
        self.size = args.size
        self.trace = bool(args.trace)
        self.corrupt = args.corrupt
        self.num_cpus = args.num_cpus
        self.base = os.path.join(ROOT, ".perfbench")
        self.run_dir = os.path.join(self.base, f"run-{os.getpid()}")
        self.sf_dir = os.path.join(self.run_dir, "sf")
        self.tracer = Tracer(enabled=True)
        self.ray_tmp = os.path.join(self.base, f"r{os.getpid()}")
        if len(self.ray_tmp) > RAY_TMP_MAX:
            import tempfile
            self.ray_tmp = tempfile.mkdtemp(prefix="pb", dir="/tmp")


def sha256_ms(n: int = 200_000) -> float:
    """Host calibration: a fixed sha256 chain, in ms."""
    t0 = time.perf_counter()
    h = b"x" * 64
    for _ in range(n):
        h = hashlib.sha256(h).digest()
    return 1e3 * (time.perf_counter() - t0)


def peak_rss_mb() -> float:
    """The driver's peak resident set so far (VmHWM)."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def ray_init(ctx) -> None:
    import logging

    import ray
    from ray.data import DataContext
    ray.init(address="local", num_cpus=ctx.num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, _temp_dir=ctx.ray_tmp)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def start_ray(ctx) -> float:
    """ray.init and a worker warm-up; returns their wall time."""
    import ray.data as rd
    tr = ctx.tracer
    t0 = time.perf_counter()
    with tr.span("setup.ray_init"):
        ray_init(ctx)
    with tr.span("setup.warmup"):
        n = ctx.num_cpus
        rd.range(n, override_num_blocks=n).map_batches(lambda b: b).count()
    return time.perf_counter() - t0


def setup_once(ctx, wl, rep: int) -> float:
    """The program's set-up on a running Ray; returns its wall time."""
    tr = ctx.tracer
    t0 = time.perf_counter()
    with tr.span("setup", rep=rep):
        with tr.span("setup.config"):
            wl.configure()
        with tr.span("setup.registry_import"):
            sys.modules.pop("__ray_entry__", None)
            import __ray_entry__  # noqa: F401
        rep_dir = os.path.join(ctx.run_dir, f"setup{rep}")
        os.makedirs(rep_dir, exist_ok=True)
        wl.prepare(rep_dir)
    return time.perf_counter() - t0


def run(args) -> int:
    import inputs
    from workloads import WORKLOADS
    ctx = Ctx(args)
    os.makedirs(os.path.join(ctx.run_dir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(ctx.run_dir, "tmp")
    import tempfile
    tempfile.tempdir = os.environ["TMPDIR"]
    wl = WORKLOADS[args.workload](ctx)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "num_cpus": args.num_cpus,
              "host.sha256_ms": {"start": sha256_ms()}}
    recs: list[dict] = []
    errors: list[str] = []
    ray_up = False
    phases: dict[str, float] = {}
    mark = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - mark[0]
        mark[0] = now
    result["phases_s"] = phases
    try:
        inputs.write_tables(ctx.sf_dir, args.seed, args.size)
        phase("inputs")
        # set-up = ray.init + warm-up (once: a second ray.init in one
        # process is a warm restart, not a set-up) + the median of
        # SETUP_REPS repetitions of the program's own set-up
        ray_up = True
        ray_s = start_ray(ctx)
        setups = []
        reps = SETUP_REPS if args.size == "normal" else 1
        for rep in range(reps):
            if rep:
                wl.teardown()
            setups.append(ray_s + setup_once(ctx, wl, rep))
        setup_spans: dict[str, list[float]] = {}
        for s in ctx.tracer.spans:
            setup_spans.setdefault(s["name"], []).append(s["end"] - s["start"])
        ctx.tracer.enabled = False
        phase("setup")
        recs = wl.loop(args.seconds, min_ops=2 if ctx.trace else 1)
        rss = peak_rss_mb()
        phase("loop")
        errors = wl.check(recs)
        phase("check")
        e2e = {"wall_s": (wl.wall_s(recs), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "driver_peak_rss_mb": (rss, "MB")}
        result["setup_samples_s"] = setups
        result["ops"] = len(recs)
        result["op_secs"] = [[r.get("name", args.workload), r["sec"],
                              r["warmup"]] for r in recs]
        result["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        result["workload_figures"] = wl.extras(recs)
        if ctx.trace:
            import layers
            replayed = layers.replay(ctx, wl)
            phase("replay")
            metrics = {k: (v, "") for k, v in
                       layers.per_layer(ctx, wl, recs, replayed,
                                        setup_spans).items()}
            result["per_layer"] = {k: v for k, (v, _) in metrics.items()}
            result["replay"] = replayed
        else:
            metrics = e2e
    except Budget:
        errors.append(f"run: exceeded its {BUDGET_S} s budget")
        metrics = {}
    except Exception:
        # a crash is reported as a failed run, with its traceback
        import traceback
        errors.append("run: " + traceback.format_exc())
        metrics = {}
    finally:
        signal.alarm(0)
        if ray_up:
            import ray
            wl.teardown()
            ray.shutdown()
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
        shutil.rmtree(ctx.ray_tmp, ignore_errors=True)
        phase("teardown")
        result["host.sha256_ms"]["end"] = sha256_ms()
    attempted = max(len(recs), 1)
    # errors name their operation as "op<i>: ..."; count each op once
    failed = min(len({e.split(":")[0] for e in errors}), attempted)
    result.update(attempted=attempted, failed=failed, errors=errors)
    out = write_result(ctx, result)
    print(f"host.sha256_ms start={result['host.sha256_ms']['start']:.1f} "
          f"end={result['host.sha256_ms']['end']:.1f}")
    for e in errors:
        print(f"check failed: {e}")
    print(f"result: {out}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u or unit_of(k)}
                    for k, (v, u) in metrics.items()}}))
    return 0 if metrics else 1


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count" if name.split(".")[-1] in (
        "rounds", "retries", "rows_in", "rows_out", "result_rows",
        "spans") else "ratio"


def write_result(ctx, result: dict) -> str:
    res_dir = os.path.join(ctx.base, "results")
    os.makedirs(res_dir, exist_ok=True)
    stem = (f"{result['workload']}-seed{result['seed']}-"
            f"trace{result['trace']}-{time.strftime('%Y%m%dT%H%M%S')}-"
            f"{os.getpid()}")
    path = os.path.join(res_dir, stem + ".json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1, default=str)
    if ctx.trace and ctx.tracer.spans:
        ctx.tracer.write(os.path.join(res_dir, stem + ".spans.json"))
    return os.path.relpath(path, ROOT)


def compare(a_path: str, b_path: str) -> int:
    """Print B's end-to-end, workload and per-layer figures against A's."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    print(f"workload {a['workload']} (seed {a['seed']}) -> "
          f"{b['workload']} (seed {b['seed']})")
    for side, r in (("A", a), ("B", b)):
        h = r["host.sha256_ms"]
        print(f"  host.sha256_ms {side}: start {h['start']:.1f} "
              f"end {h.get('end', float('nan')):.1f}")
    for section in ("end_to_end", "workload_figures", "per_layer"):
        keys = sorted(set(a.get(section, {})) & set(b.get(section, {})))
        if keys:
            print(f"  [{section}]")
        for k in keys:
            va, vb = a[section][k], b[section][k]
            if not isinstance(va, (int, float)):
                continue
            ratio = f"{vb / va:.3f}x" if va else "n/a"
            print(f"    {k:40s} {va:14.4f} -> {vb:14.4f}  {ratio} of base "
                  f"{va:.4f}")
    return 0


def self_check() -> int:
    """Tiny runs of every workload finish with no failed operation, and
    the same runs with a corrupted oracle report failed operations."""
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        for corrupt in (False, True):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", "7", "--seconds", "1", "--trace",
                   "1" if name == "crawl-images" and not corrupt else "0",
                   "--size", "tiny"] + (["--corrupt"] if corrupt else [])
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=BUDGET_S + 10)
            last = p.stdout.strip().splitlines()[-1] if p.stdout else ""
            try:
                res = json.loads(last)
            except json.JSONDecodeError:
                res = None
            good = (res is not None and p.returncode == 0
                    and (res["failed"] > 0 if corrupt else
                         res["failed"] == 0 and res["correct"]))
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name:15s} "
                  f"corrupt={corrupt!s:5s} -> {last[:120]}")
            if not good:
                print(p.stdout[-2000:], p.stderr[-3000:], sep="\n")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--num-cpus", type=int, default=2)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the expected outputs (self-check)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)

    # the program under test must be in the checkout
    missing = [p for p in ("vbpl_web_crawl_ray", "__ray_entry__.py",
                           "tests/oracle_crawler.py", "tests/util_compare.py")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: program not found in {ROOT}: {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, ROOT, os.path.join(ROOT, "tests")]
    # Ray workers import the program too, from any working directory
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    if args.self_check:
        return self_check()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")

    def on_alarm(signum, frame):
        raise Budget()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(BUDGET_S)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
