"""Record the digests that ``table3_cold`` and ``whatif_sweep`` are checked against.

    python3 perfbench/make_references.py --seeds 0-31

Each seed runs one pass of each digest-checked workload in a fresh worker
process and stores its per-operation digests in ``references.json``
(entries for other seeds are kept).  Record only at a commit whose outputs
are known to be right: every later benchmark run of a recorded seed fails
the operations whose digests differ.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BenchError, Workers
from workloads import REFERENCES, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,7-9")
    args = parser.parse_args(argv)

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    names = [name for name, w in WORKLOADS.items() if w.digest_checked]
    for seed in parse_seeds(args.seeds):
        for name in names:
            try:
                result = Workers(name, seed).spawn("pass")
            except BenchError as exc:
                print(f"error: {name} seed {seed}: {exc}", file=sys.stderr)
                return 1
            if result["error"] or None in result["digests"]:
                print(f"error: {name} seed {seed} raised:\n{result['error']}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = result["digests"]
            print(f"{name} seed {seed}: {len(result['digests'])} digests", flush=True)
    # One line per (workload, seed) keeps the file diffable.
    blocks = []
    for name in sorted(refs):
        seeds = sorted(refs[name], key=int)
        rows = ",\n".join(f"  {json.dumps(s)}: {json.dumps(refs[name][s])}" for s in seeds)
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    REFERENCES.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
