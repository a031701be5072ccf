"""One pass of one workload in a fresh process: set up, then a timed closed loop.

    python3 perfbench/child.py --workload construct --seed 1 [--trace] [--setup-only]
                               [--index I] [--outputs]

The parent (`run.py`) starts this with the library's `src` on PYTHONPATH and
a pinned PYTHONHASHSEED.  One caller runs the instances in order, each
starting when the previous verdict has returned; library caches start cold
and nothing is warmed up.  A host-speed probe (`speed.py`) runs from the
first line on; every time reported is adjusted by it, and the raw wall
times are reported beside them.  The last stdout line is one JSON object.
"""
import time

T0 = time.perf_counter()  # before any library import, so set-up counts imports

import speed  # noqa: E402

PROBE = speed.Probe()
PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--index", type=int, help="run only this instance (replay)")
    ap.add_argument("--outputs", action="store_true",
                    help="print construct output hashes instead of timing")
    args = ap.parse_args()

    import workloads
    if args.outputs:
        PROBE.stop()
        print(json.dumps({"outputs": workloads.construct_outputs(args.seed)}))
        return
    instances, digest = workloads.setup(args.workload, args.seed)
    setup_end = time.perf_counter()
    setup_s = PROBE.adjust(T0, setup_end)
    if args.index is not None and not 0 <= args.index < len(instances):
        ap.error("--index must be below %d" % len(instances))
    if args.setup_only:
        PROBE.stop()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_end - T0}))
        return
    indices = range(len(instances)) if args.index is None else [args.index]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(clock=PROBE.clock)
        tracer.install()
    spans, failures = [], []
    start, spent = time.perf_counter(), PROBE.spent
    for i in indices:
        t = time.perf_counter()
        try:
            ok = instances[i]()
            error = None if ok else "wrong verdict"
        except Exception:  # a raising instance is a failure, never an abort
            error = traceback.format_exc(limit=-3)
        spans.append((t, time.perf_counter()))
        if error is not None:
            failures.append({"index": i, "error": error})
    end = time.perf_counter()
    spent = PROBE.spent - spent
    PROBE.stop()
    if tracer is not None:
        tracer.uninstall()
    factors = PROBE.factors()
    result = {
        "setup_s": setup_s, "raw_setup_s": setup_end - T0,
        "wall_s": PROBE.adjust(start, end), "raw_wall_s": end - start,
        "times_ms": [PROBE.adjust(a, b) * 1000.0 for a, b in spans],
        "speed": [min(factors), sorted(factors)[len(factors) // 2], max(factors)],
        "attempted": len(spans), "failures": failures, "digest": digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer.spans, end - start - spent,
                                             tracer.cache_hit_share())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
