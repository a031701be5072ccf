"""muaut benchmark: seeded workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload {construct,games,fuzz} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload W --seed N --replay INDEX
    python3 perfbench/run.py --determinism

Run from the repository root; the library is imported from `src/`.  Every
pass runs in a fresh single-threaded child process (`child.py`) under a
pinned PYTHONHASHSEED, with cold library caches.  Every time metric is in
host-speed-adjusted seconds (see `speed.py`): the measured span, less the
probe's own time, scaled by how fast a fixed loop ran during it; the raw
wall times are printed on the line before the result.  With `--trace 0` whole
passes run while they fit in `--seconds` (at least one), and the end-to-end
metrics are printed; with `--trace 1` one untraced and one traced pass run,
and the per-layer metrics are printed.  The last stdout line is the result
object; the lines before it record the input digest, hash seed, tail
percentile, calibration loop and any failure with its replay command.
`--determinism` hashes the `construct` outputs under two hash seeds and
reports how many differ, without gating on the count.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("construct", "games", "fuzz")
E2E = (("setup_s", "s"), ("wall_s", "s"), ("instance_p50_ms", "ms"),
       ("instance_tail_ms", "ms"), ("peak_rss_mb", "MB"))
HASH_SEED = "0"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
CALIBRATION_LOOP = 5_000_000
QUANTILE_STEPS = 16  # integration points per order statistic


class ChildError(RuntimeError):
    pass


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed, recorded ungated."""
    t = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i & 7
    return time.perf_counter() - t


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
    order statistics around rank p*n.  Instance times carry 20-30% noise of
    their own on a shared host, and a plain order statistic in the sparse
    upper tail jumps from one instance to the next; this estimate moves
    smoothly.  Its weights reach a few ranks past p*n, so in a heavy tail it
    reads above the plain order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    lnorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    step = 1.0 / (n * QUANTILE_STEPS)
    weights = []
    for i in range(n):
        xs_i = (i / n + (j + 0.5) * step for j in range(QUANTILE_STEPS))
        weights.append(sum(math.exp(lnorm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs_i))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least `beyond`
    samples above it."""
    n = len(values)
    if n <= beyond:
        raise ValueError("need more than %d samples for a tail, have %d" % (beyond, n))
    p = (n - beyond) / n
    return 100.0 * p, quantile(values, p)


def child(workload: str, seed: int, *flags: str, hash_seed: str = HASH_SEED) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildError("child %s exited %d:\n%s" % (" ".join(cmd[1:]), proc.returncode,
                                                       proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def timed_passes(workload: str, seed: int, seconds: float) -> list[dict]:
    """Whole passes while the next one is expected to fit in `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(child(workload, seed))
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return passes


def report_failures(workload: str, seed: int, passes: list[dict]) -> None:
    seen = set()
    for p in passes:
        for f in p["failures"]:
            if f["index"] not in seen:
                seen.add(f["index"])
                print("failure %s seed %d index %d (replay: python3 perfbench/run.py "
                      "--workload %s --seed %d --replay %d): %s"
                      % (workload, seed, f["index"], workload, seed, f["index"],
                         f["error"].strip().splitlines()[-1]))


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics.  Pass timings are medians over the passes, with
    p50 and tail taken within each pass, so the tail percentile does not
    depend on how many passes ran; set-up is the median of SETUP_SAMPLES
    fresh processes."""
    passes = timed_passes(workload, seed, seconds)
    setups = [(p["setup_s"], p["raw_setup_s"]) for p in passes]
    while len(setups) < SETUP_SAMPLES:
        s = child(workload, seed, "--setup-only")
        setups.append((s["setup_s"], s["raw_setup_s"]))
    tails = [tail(p["times_ms"]) for p in passes]
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "instance_p50_ms": statistics.median(quantile(p["times_ms"], 0.5) for p in passes),
        "instance_tail_ms": statistics.median(v for _, v in tails),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    print("%d passes of %d instances each; instance_p50_ms and instance_tail_ms are the "
          "Harrell-Davis p50 and p%.1f of each pass"
          % (len(passes), passes[0]["attempted"], tails[0][0]))
    print("raw (unadjusted) medians: setup %.4f s, wall %.4f s; host speed factor "
          "min/median/max per pass: %s"
          % (statistics.median(r for _, r in setups),
             statistics.median(p["raw_wall_s"] for p in passes),
             "; ".join("%.3f/%.3f/%.3f" % tuple(p["speed"]) for p in passes)))
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E}, passes


def traced(workload: str, seed: int) -> tuple[dict, list[dict]]:
    plain = child(workload, seed)
    traced_pass = child(workload, seed, "--trace")
    layers = dict(traced_pass["layers"])
    layers["trace.overhead_share"] = (traced_pass["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    units = {name: tracing.UNITS.get(name.rsplit(".", 1)[1], "share")
             for name in tracing.metric_names()}
    return {name: {"value": layers[name], "unit": units[name]}
            for name in tracing.metric_names()}, [plain, traced_pass]


def determinism() -> int:
    outs = [child("construct", 0, "--outputs", hash_seed=h)["outputs"] for h in ("0", "1")]
    diverged = sum(a != b for a, b in zip(*outs))
    print(json.dumps({"check": "construct outputs under PYTHONHASHSEED 0 and 1",
                      "outputs": len(outs[0]), "divergent": diverged}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", type=int, metavar="INDEX")
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "muaut")):
        print("no src/muaut under %s: run from a muaut checkout" % ROOT, file=sys.stderr)
        return 2
    if args.determinism:
        return determinism()
    if args.workload is None:
        ap.error("--workload is required")
    if args.replay is not None:
        res = child(args.workload, args.seed, "--index", str(args.replay))
        print(json.dumps(res["failures"] or "instance %d passed" % args.replay, indent=2))
        return 1 if res["failures"] else 0

    cal_start = calibrate()
    if args.trace:
        metrics, passes = traced(args.workload, args.seed)
    else:
        metrics, passes = measure(args.workload, args.seed, args.seconds)
    cal_end = calibrate()
    digests = {p["digest"] for p in passes}
    print("workload %s seed %d PYTHONHASHSEED %s input digest %s"
          % (args.workload, args.seed, HASH_SEED, ",".join(sorted(digests))))
    print("calibration loop of %d iterations: %.4f s at start, %.4f s at end"
          % (CALIBRATION_LOOP, cal_start, cal_end))
    report_failures(args.workload, args.seed, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(json.dumps({"correct": failed == 0 and len(digests) == 1, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ChildError, subprocess.TimeoutExpired) as e:
        print(e, file=sys.stderr)
        sys.exit(3)
