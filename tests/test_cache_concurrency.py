"""Concurrent-writer hammer for the disk cache tier.

Eight forked processes share one disk cache directory and compute the
*same* content keys cold at the same moment (a barrier releases them
together).  With ``_atomic_write``'s temp-file + fsync + ``os.replace``
discipline, every racer either disk-hits a complete entry or writes its
own complete entry — readers can never observe a torn file, and losers
of the rename race leave no ``*.tmp`` litter behind.

Regression for the pre-atomic scheme where two writers shared the final
path and a reader could unpickle a half-written entry.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import pickle
from pathlib import Path

import pytest

from repro import cache

HAMMER_PROCS = 8


def _hammer_worker(disk_dir: str, out_dir: str, idx: int, barrier) -> None:
    """Compute trace -> matrix -> mapping cold against the shared disk tier."""
    from repro import cache
    from repro.topology.configs import build_topology

    cache.configure(disk_dir=disk_dir)
    cache.clear(memory=True)
    barrier.wait()

    trace = cache.cached_trace("LULESH", 64)
    matrix = cache.cached_matrix(trace, payload=4096)
    topology = build_topology("torus3d", 64)
    mapping = cache.cached_mapping(matrix, topology, method="bisection")

    digest = cache.array_digest(
        matrix.src, matrix.dst, matrix.nbytes, matrix.messages, matrix.packets
    )
    result = {
        "idx": idx,
        "matrix_digest": digest,
        "mapping_digest": cache.array_digest(mapping.nodes),
        "events": len(trace),
    }
    out = Path(out_dir) / f"worker-{idx}.json"
    out.write_text(json.dumps(result))


@pytest.fixture
def shared_disk(tmp_path):
    """Point this process at a fresh disk dir; restore isolation afterwards."""
    disk = tmp_path / "cache"
    yield disk
    cache.configure(disable_disk=True)
    cache.clear(memory=True)


class TestConcurrentWriters:
    def test_eight_processes_hammer_one_key(self, shared_disk, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(HAMMER_PROCS)
        procs = [
            ctx.Process(
                target=_hammer_worker,
                args=(str(shared_disk), str(out_dir), idx, barrier),
            )
            for idx in range(HAMMER_PROCS)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=300)
        assert all(proc.exitcode == 0 for proc in procs), [
            proc.exitcode for proc in procs
        ]

        results = [
            json.loads(path.read_text())
            for path in sorted(out_dir.glob("worker-*.json"))
        ]
        assert len(results) == HAMMER_PROCS

        # Every racer saw bit-identical artifacts, hit or miss.
        assert len({r["matrix_digest"] for r in results}) == 1
        assert len({r["mapping_digest"] for r in results}) == 1
        assert len({r["events"] for r in results}) == 1

        # Losers of the rename race must not leave temp litter behind.
        litter = [p for p in shared_disk.rglob("*.tmp") if p.is_file()]
        assert litter == []

        # Whatever won each rename is a complete, loadable entry.
        entries = sorted(shared_disk.glob(f"v{cache.CACHE_VERSION}-*"))
        assert entries, "hammer wrote nothing to the shared disk tier"
        for path in entries:
            if path.is_dir():  # chunked trace spill
                manifest = path / "manifest.json"
                assert manifest.is_file()
                json.loads(manifest.read_text())
            else:
                with path.open("rb") as fh:
                    pickle.load(fh)

        # And this (ninth) process warm-loads them from disk cleanly.
        cache.configure(disk_dir=shared_disk)
        cache.clear(memory=True)
        trace = cache.cached_trace("LULESH", 64)
        matrix = cache.cached_matrix(trace, payload=4096)
        digest = cache.array_digest(
            matrix.src, matrix.dst, matrix.nbytes, matrix.messages, matrix.packets
        )
        assert digest == results[0]["matrix_digest"]
        assert cache.stats()["trace"]["disk_hits"] >= 1
        assert cache.stats()["matrix"]["disk_hits"] >= 1
