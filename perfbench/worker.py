"""One benchmark process: set up a workload, run one pass, check it.

``run.py`` starts a fresh interpreter with this script for every pass, so
every pass sees what a CLI user sees: module-level caches (including the
``lru_cache`` tables that ``repro.cache.clear()`` does not reach) are
empty, the disk cache tier is off, and ``ru_maxrss`` is this pass's own
high-water mark.  The result is written as JSON to ``--out``.

    python3 perfbench/worker.py --workload table3_cold --seed 0 \\
        --mode pass --spawned-at <time.monotonic() of the parent> --out r.json

``--mode setup`` stops after set-up (a set-up time sample); ``--mode
traced`` installs the span tracer around the pass and writes a Chrome
trace next to ``--out``.  ``--workdir`` lets the passes of one run share
prepared input files.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, digest, load_references

HERE = Path(__file__).resolve().parent

#: The calibration kernel: fixed work that does not touch ``repro``, in
#: four parts that contention slows differently, like the workloads' mix:
#: interpreter dict updates, regex parsing of text lines into small
#: objects, a NumPy sort, and a random gather from a table larger than the
#: caches.
CAL_LOOP = 40_000
CAL_LINES = 10_000
CAL_FIELD = re.compile(r"\s*(\w+)=(-?\d+)")
CAL_SORT = 500_000
CAL_TABLE = 2_000_000
CAL_GATHER = 1_000_000
CAL_REPS = 5


def calibrate() -> float:
    """Median of CAL_REPS runs of the calibration kernel, in seconds.

    It measures how fast the host runs this process right now.  One
    follows set-up and precedes the pass, one follows the pass; ``run.py``
    scales the set-up time by the first and the pass time by the mean of
    both (``README.md``, "Host speed").
    """
    import numpy as np

    rng = np.random.default_rng(0)
    data = rng.random(CAL_SORT)
    table = rng.random(CAL_TABLE)
    index = rng.integers(0, CAL_TABLE, CAL_GATHER)
    lines = [f"  tag={i % 97}" for i in range(CAL_LINES)]
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(CAL_LOOP):
            counts[i & 1023] = counts.get(i & 1023, 0) + 1
        for line in lines:
            field = CAL_FIELD.match(line)
            counts[field.group(1)] = int(field.group(2))
        np.sort(data)
        table[index].sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _reset_peak_rss() -> None:
    """Restart ``ru_maxrss`` at the current RSS (Linux ``clear_refs`` 5).

    The peak then covers the pass alone, not set-up transients or the
    calibration kernel's arrays; resident inputs still count.
    """
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _cache_snapshot() -> dict:
    from repro import cache

    snap = cache.stats()
    # Entries resident per region: evictions = inserts (misses) - growth.
    for name, region in cache._regions.items():
        snap[name]["resident"] = len(region._data)
    return snap


def _cache_metrics(before: dict, after: dict) -> dict:
    def delta(region, key):
        return after[region][key] - before[region][key]

    def ratio(regions):
        hits = sum(delta(r, "hits") for r in regions)
        lookups = hits + sum(delta(r, "misses") for r in regions)
        return hits / lookups if lookups else 0.0

    return {
        "cache.hit_ratio": ratio(list(after)),
        "cache.matrix.hit_ratio": ratio(["matrix"]),
        "cache.incidence.hit_ratio": ratio(["incidence"]),
        "cache.evictions": sum(
            max(0, delta(r, "misses") - delta(r, "resident")) for r in after
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="inputs directory shared by the passes of one run (default: a fresh one)",
    )
    args = parser.parse_args(argv)

    import repro

    src = HERE.parent / "src"
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="work-", dir=args.out.parent))
    try:
        inputs = workload.setup(args.seed, workdir)
        # A set-up that reused inputs prepared by an earlier pass of the run
        # is not a set-up sample.
        setup_s = None if inputs.get("reused") else time.monotonic() - args.spawned_at
        cal_s = calibrate()
        result: dict = {"setup_s": setup_s, "setup_cal_s": cal_s}
        if args.mode != "setup":
            result.update(_timed_pass(args, workload, inputs, cal_s))
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


def _timed_pass(args, workload, inputs, cal_before: float) -> dict:
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    before = _cache_snapshot()
    error = None
    _reset_peak_rss()
    if tracer is not None:
        root = tracer.open("pass", "pass")
    t0 = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    except Exception:  # the whole pass raised: every operation failed
        outputs, error = {}, traceback.format_exc()
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_s = (cal_before + calibrate()) / 2
    after = _cache_snapshot()

    ops = workload.ops(inputs, outputs)
    digests = [None if op is None else digest(op) for op in ops]
    expected = None
    if workload.digest_checked:
        expected = load_references().get(args.workload, {}).get(str(args.seed))
    reasons = workload.check(inputs, ops, digests, expected)
    out = {
        "wall_s": wall_s,
        "cal_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "work": 0.0 if error else workload.work(inputs, outputs),
        "digests": digests,
        "reasons": reasons,
        "reference_checked": expected is not None or not workload.digest_checked,
        "error": error,
        "cache": _cache_metrics(before, after),
    }
    if tracer is not None:
        from tracer import summarize, write_chrome_trace

        out["layers"] = summarize(tracer, root)
        trace_path = args.out.with_suffix(".trace.json")
        write_chrome_trace(
            tracer, trace_path, {"workload": args.workload, "seed": args.seed}
        )
        out["chrome_trace"] = trace_path.name
    return out


if __name__ == "__main__":
    sys.exit(main())
