"""The repository benchmark: one workload, every metric, every output checked.

    python3 perfbench/run.py --workload table3_cold --seed 0 --seconds 30 --trace 0

Each timed pass runs in a fresh interpreter (``worker.py``) with the disk
cache tier off and BLAS/OpenMP pinned to one thread, so it starts as cold
as a CLI invocation.  A run starts with one set-up-only process, which
also prepares any inputs the passes share; passes then repeat while the
next one fits in ``--seconds`` (at least two), and set-up-only processes
top up the set-up samples.  With ``--trace 0`` the last line of standard
output is a JSON object carrying the end-to-end metrics (medians over the
passes, pass times scaled to the reference host speed, see
:data:`CAL_REF_S`); with ``--trace 1`` untraced and traced passes alternate
(at least one of each) and it carries the per-layer metrics of the median
traced pass.  Either way the lines before it print each metric with its
unit, median, IQR and sample count, and a JSON artifact with provenance
(commit, machine, thread settings, load) is written to ``perfbench/out/``.

Workloads, metrics and the layer -> metric -> workload map are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("table3_cold", "dumpi_ingest", "critpath_amg216", "whatif_sweep")

#: name -> unit, reported by an untraced run (medians over its samples).
END_TO_END = {
    "wall_ref_s": "s",
    "work_per_ref_s": "units/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Time of the calibration kernel (``worker.calibrate``) on the reference
#: host, a 2-vCPU Intel Xeon VM, when the host is quiet.  A pass that took ``wall_s``
#: while the kernel took ``cal_s`` is reported as ``wall_s * CAL_REF_S /
#: cal_s`` reference seconds, which cancels the host's speed swings; a
#: set-up time is scaled the same way by the calibration that follows it.
CAL_REF_S = 0.020

#: name -> unit, reported by a traced run.
PER_LAYER = {
    "analysis.self_s": "s",
    "apps.calls": "count",
    "apps.self_s": "s",
    "apps.rows": "count",
    "dumpi.calls": "count",
    "dumpi.self_s": "s",
    "dumpi.mb": "MB",
    "dumpi.records": "count",
    "collectives.self_s": "s",
    "collectives.sends": "count",
    "comm.calls": "count",
    "comm.self_s": "s",
    "comm.pairs": "count",
    "metrics.calls": "count",
    "metrics.self_s": "s",
    "topology.self_s": "s",
    "mapping.calls": "count",
    "mapping.self_s": "s",
    "routing.calls": "count",
    "routing.self_s": "s",
    "routing.pairs": "count",
    "routing.incidence_rows": "count",
    "model.calls": "count",
    "model.self_s": "s",
    "sim.calls": "count",
    "sim.self_s": "s",
    "sim.packets": "count",
    "sim.packets_per_s": "1/s",
    "sim.congested_frac": "ratio",
    "telemetry.self_s": "s",
    "telemetry.regions": "count",
    "critpath.match.self_s": "s",
    "critpath.dag.self_s": "s",
    "critpath.levels.self_s": "s",
    "critpath.cost.self_s": "s",
    "critpath.dp.self_s": "s",
    "critpath.dp.calls": "count",
    "critpath.dag_nodes": "count",
    "critpath.dag_levels": "count",
    "cache.self_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.matrix.hit_ratio": "ratio",
    "cache.incidence.hit_ratio": "ratio",
    "cache.evictions": "count",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}

MIN_PASSES = 2
#: Set-up is sampled at least SETUP_MIN and up to SETUP_SAMPLES times per
#: run: set-up-only processes top up the samples the passes give, the
#: optional ones only while the run stays within --seconds.
SETUP_MIN = 3
SETUP_SAMPLES = 5
#: Every process this run starts must end within this many seconds of its start.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("REPRO_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def provenance() -> dict:
    """Where and from what a result came, so it can be explained later."""
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            sha, dirty = None, None
    source = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env_parent": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_passes": {var: "1" for var in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


class Workers:
    """Starts the worker processes of one benchmark run and reads their results."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.started = time.monotonic()
        self.count = 0
        OUT.mkdir(exist_ok=True)

    def spawn(self, mode: str, workdir: Path | None = None) -> dict:
        self.count += 1
        out = OUT / f"{self.workload}-seed{self.seed}-{mode}{self.count}.json"
        out.unlink(missing_ok=True)
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the passes finished")
        spawned_at = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--spawned-at", repr(spawned_at), "--out", str(out),
        ]
        if workdir is not None:
            cmd += ["--workdir", str(workdir)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process exceeded the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0 or not out.exists():
            raise BenchError(
                f"{mode} process exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        result = json.loads(out.read_text())
        out.unlink()
        result["mode"] = mode
        return result


def tally(passes: list[dict]) -> tuple[int, int, list[dict]]:
    """(attempted, failed, failures) over every operation of every pass.

    An operation fails on its pass's own check, or when its output digest
    differs from the same operation's in the first pass.
    """
    attempted = failed = 0
    failures = []
    first = passes[0]["digests"]
    for k, p in enumerate(passes):
        for i, reason in enumerate(p["reasons"]):
            if not reason and p["digests"][i] != first[i]:
                reason = "differs from the first pass (nondeterministic)"
            attempted += 1
            if reason:
                failed += 1
                failures.append({"pass": k, "op": i, "reason": reason})
        if p["error"]:
            failures.append({"pass": k, "error": p["error"]})
    return attempted, failed, failures


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """All passes of one run; returns (metrics, artifact)."""
    prov = provenance()
    bench = Workers(workload, seed)
    cycle = ("pass", "traced") if traced else ("pass",)
    min_cycles = 1 if traced else MIN_PASSES
    workdir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        t0 = time.monotonic()
        # The first set-up prepares inputs the passes may share (workdir);
        # they are written back to disk before any pass is timed.
        setups = [bench.spawn("setup", workdir)]
        os.sync()
        passes: list[dict] = []
        t_passes = time.monotonic()
        cycles = 0
        while True:
            for mode in cycle:
                passes.append(bench.spawn(mode, workdir))
                if passes[-1]["setup_s"] is not None:
                    setups.append(passes[-1])
            cycles += 1
            now = time.monotonic()
            per_cycle = (now - t_passes) / cycles
            # Keep time for the set-up samples still missing.
            setup_s = statistics.median(r["setup_s"] for r in setups)
            reserve = max(0, SETUP_MIN - len(setups)) * setup_s
            if cycles >= min_cycles and now - t0 + per_cycle + reserve > seconds:
                break
        while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_SAMPLES
            and time.monotonic() - t0 + statistics.median(r["setup_s"] for r in setups)
            <= seconds
        ):
            setups.append(bench.spawn("setup"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failures = tally(passes)
    plain = [p for p in passes if p["mode"] == "pass"]
    ref_walls = [p["wall_s"] * CAL_REF_S / p["cal_s"] for p in plain]
    samples = {
        "wall_ref_s": ref_walls,
        "work_per_ref_s": [p["work"] / w for p, w in zip(plain, ref_walls)],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "setup_s": [r["setup_s"] * CAL_REF_S / r["setup_cal_s"] for r in setups],
        "wall_s": [p["wall_s"] for p in plain],
        "cal_s": [p["cal_s"] for p in plain],
        "setup_raw_s": [r["setup_s"] for r in setups],
    }
    stats = {name: summary(values) for name, values in samples.items()}
    artifact = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "provenance": prov,
        "samples": samples,
        "stats": stats,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "reference_digests_checked": all(p["reference_checked"] for p in passes),
    }
    if not traced:
        metrics = {name: (stats[name]["median"], unit) for name, unit in END_TO_END.items()}
    else:
        metrics = _per_layer(passes, stats["wall_ref_s"]["median"], attempted, failed, artifact)
    prov["loadavg_end"] = os.getloadavg()
    return metrics, artifact


def _per_layer(passes, untraced_ref_wall, attempted, failed, artifact) -> dict:
    """Per-layer metrics of the traced pass with the median traced wall.

    Taking every number from one pass keeps them additive: the self times
    and ``unattributed_s`` sum to that pass's ``trace.wall_s``.
    """
    traced = sorted(
        (p for p in passes if p["mode"] == "traced"), key=lambda p: p["wall_s"]
    )
    chosen = traced[(len(traced) - 1) // 2]
    layers = dict(chosen["layers"])
    layers.update(chosen["cache"])
    sim_s = layers.get("sim.self_s", 0.0)
    packets = layers.get("sim.packets", 0.0)
    layers["sim.packets_per_s"] = packets / sim_s if sim_s else 0.0
    layers["sim.congested_frac"] = (
        layers.get("sim.congested_packets", 0.0) / packets if packets else 0.0
    )
    # Both sides scaled to the reference host speed, so a slow phase of the
    # host during one kind of pass does not pass for tracing overhead.
    layers["trace.overhead_ratio"] = (
        chosen["wall_s"] * CAL_REF_S / chosen["cal_s"] / untraced_ref_wall
    )
    layers["error_rate"] = failed / attempted
    attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    artifact["layers"] = layers
    artifact["attribution_gap_s"] = layers["trace.wall_s"] - (
        attributed + layers["unattributed_s"]
    )
    artifact["chrome_trace"] = chosen["chrome_trace"]
    for p in traced:
        if p is not chosen:
            (OUT / p["chrome_trace"]).unlink(missing_ok=True)
    return {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run raises here, so subprocess.run kills and reaps the
    # pass it is waiting for instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile up front so set-up time never includes compiling.
    compileall.compile_dir(ROOT / "src" / "repro", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    try:
        metrics, artifact = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(artifact, indent=1))
    prov = artifact["provenance"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"commit={prov['git_sha'] or 'n/a'}{'+dirty' if prov['git_dirty'] else ''} "
        f"source={prov['source_digest'][:12]} cpu={prov['cpu_model']} "
        f"nproc={prov['nproc']} load={prov['loadavg_start'][0]:.2f}"
    )
    for name, (value, unit) in metrics.items():
        line = f"  {name:<28} {value:>14.6g} {unit}"
        if name in artifact["stats"]:
            s = artifact["stats"][name]
            line += f"  (median of {s['n']}, IQR {s['iqr']:.4g})"
        print(line)
    for name in ("wall_s", "cal_s", "setup_raw_s"):  # the unscaled host seconds
        s = artifact["stats"][name]
        print(f"  ({name:<27} {s['median']:>14.6g} s  median of {s['n']}, IQR {s['iqr']:.4g})")
    checked = "reference digests" if artifact["reference_digests_checked"] else "invariants only"
    print(
        f"  checks: {artifact['attempted'] - artifact['failed']}/{artifact['attempted']} "
        f"operations passed ({checked}); artifact {path.relative_to(ROOT)}"
    )
    for failure in artifact["failures"][:5]:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": artifact["failed"] == 0,
                "attempted": artifact["attempted"],
                "failed": artifact["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
