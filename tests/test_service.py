"""Tests for the sharded sweep service (repro.service).

Covers the identity layer (cell keys, spec round-trip), the journal's
crash-resume semantics (torn tails, duplicate entries), the scheduler's
affinity/random placement, and the service end to end: bit-identical
records vs ``run_sweep`` under any worker count, cross-job dedup, cancel,
a SIGKILL'd worker mid-job, and a SIGKILL'd *server* resumed from its
journal in a fresh process.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cache
from repro.analysis.sweep import Scenario, SweepSpec, run_sweep
from repro.service.cells import (
    CELL_KEY_VERSION,
    affinity_token,
    cell_key,
    expand_cells,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.client import ServiceError, SweepClient
from repro.service.journal import JOURNAL_VERSION, JobJournal
from repro.service.scheduler import CellScheduler
from repro.service.server import SweepService

SMALL_SPEC = SweepSpec(
    apps=(("LULESH", 64),),
    topologies=("torus3d", "fattree"),
    mappings=("consecutive", "bisection"),
    payloads=(4096,),
)


def small_reference_records():
    cache.clear(memory=True)
    return run_sweep(SMALL_SPEC)


# ---------------------------------------------------------------- identity


class TestCells:
    def test_spec_round_trips_exactly(self):
        spec = SweepSpec(
            apps=(("LULESH", 64), ("AMG", 216)),
            topologies=("dragonfly",),
            mappings=("greedy",),
            payloads=(1024, 4096),
            bandwidths=(6e9, 12e9),
            routings=("minimal", "ecmp"),
            include_collectives=False,
            seed=3,
        )
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_cell_keys_pinned(self):
        """Literal keys: a journal written before any refactor still replays."""
        spec = SweepSpec(
            apps=(("LULESH", 64),), topologies=("torus3d",), payloads=(256,)
        )
        assert cell_key(spec, spec.points()[0]) == (
            "52a83e440607726ea1b0c23b53a2de71"
        )
        spec = SweepSpec(
            apps=(("CMC_2D", 64), ("LULESH", 64)),
            topologies=("fattree", "dragonfly"),
            mappings=("greedy",),
            payloads=(1024,),
            bandwidths=(3e9,),
            routings=("ugal",),
            collectives=("binomial",),
            include_collectives=False,
            seed=7,
            telemetry=True,
            telemetry_windows=16,
            telemetry_threshold=0.5,
            sim_volume_scale=8.0,
            critpath=True,
            critpath_max_repeat=4,
        )
        points = spec.points()
        assert cell_key(spec, points[0]) == "302714242566b85c6d380b256f0bb694"
        assert cell_key(spec, points[1]) == "a71983d0606dd8befee3d4417821e9f6"
        assert affinity_token(spec, points[0]) == "CMC_2D:64:7"
        assert CELL_KEY_VERSION == 3

    def test_spec_to_dict_keeps_int_valued_floats(self):
        data = spec_to_dict(SweepSpec(sim_volume_scale=64))
        assert data["sim_volume_scale"] == 64
        assert type(data["sim_volume_scale"]) is int
        assert json.loads(json.dumps(data)) == data
        assert spec_from_dict(data).sim_volume_scale == 64

    def test_points_are_scenarios(self):
        point = SMALL_SPEC.points()[0]
        assert isinstance(point, Scenario)
        assert point.app == "LULESH" and point.topology == "torus3d"
        assert Scenario(*json.loads(json.dumps(point))) == point
        assert pickle.loads(pickle.dumps(point)) == point
        assert len(set(SMALL_SPEC.points())) == len(SMALL_SPEC.points())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("telemetry", "no"),
            ("seed", "3"),
            ("critpath_max_repeat", 2.5),
            ("include_collectives", 0),
            ("topologies", []),
            ("sim_volume_scale", True),
            ("payloads", ["4096"]),
            ("apps", [["LULESH"]]),
        ],
    )
    def test_malformed_spec_rejected(self, field, value):
        data = spec_to_dict(SMALL_SPEC)
        data[field] = value
        with pytest.raises(ValueError, match=field) as info:
            spec_from_dict(data)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "axis",
        ["topologies", "mappings", "payloads", "bandwidths", "routings", "collectives"],
    )
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=f"sweep axis '{axis}' is empty"):
            SweepSpec(**{axis: ()})

    def test_unknown_spec_field_rejected(self):
        data = spec_to_dict(SMALL_SPEC)
        data["workers"] = 4
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            spec_from_dict(data)

    def test_cell_key_covers_shared_fields(self):
        point = SMALL_SPEC.points()[0]
        base = cell_key(SMALL_SPEC, point)
        assert base == cell_key(SMALL_SPEC, point)  # deterministic
        import dataclasses

        for change in (
            {"seed": 1},
            {"bandwidths": (6e9,)},
            {"include_collectives": False},
        ):
            other = dataclasses.replace(SMALL_SPEC, **change)
            assert cell_key(other, point) != base, change

    def test_affinity_token_groups_by_trace(self):
        points = SMALL_SPEC.points()
        tokens = {affinity_token(SMALL_SPEC, p) for p in points}
        assert tokens == {"LULESH:64:0"}  # one trace -> one group

    def test_expand_cells_collapses_duplicates(self):
        doubled = SweepSpec(
            apps=(("LULESH", 64), ("LULESH", 64)),
            topologies=("torus3d",),
            mappings=("consecutive",),
        )
        cells, collapsed = expand_cells(doubled)
        assert collapsed == 1
        assert len(cells) == 1
        assert len({c.key for c in cells}) == len(cells)

    def test_run_sweep_warns_once_about_collapsed_cells(self, caplog):
        doubled = SweepSpec(
            apps=(("LULESH", 64),),
            topologies=("torus3d", "torus3d"),
            mappings=("consecutive",),
        )
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            records = run_sweep(doubled)
        messages = [r for r in caplog.records if "collapsed" in r.message]
        assert len(messages) == 1
        assert len(records) == 1  # evaluated once, recorded once


# ---------------------------------------------------------------- journal


class TestJournal:
    def test_round_trip_and_first_occurrence_wins(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        with JobJournal(path, batch=1) as journal:
            journal.append("aa", [{"x": 1}])
            journal.append("bb", [{"x": 2.5}])
            journal.append("aa", [{"x": 999}])  # duplicate: ignored on replay
        entries, good_end = JobJournal.replay(path)
        assert entries == {"aa": [{"x": 1}], "bb": [{"x": 2.5}]}
        assert good_end == path.stat().st_size

    def test_torn_tail_is_truncated_and_resumed(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        with JobJournal(path, batch=1) as journal:
            journal.append("aa", [{"x": 1}])
            journal.append("bb", [{"x": 2}])
        clean_size = path.stat().st_size
        with path.open("ab") as fh:  # writer died mid-append
            fh.write(b'{"v": 1, "cell": "cc", "rec')
        entries, good_end = JobJournal.replay(path)
        assert set(entries) == {"aa", "bb"}
        assert good_end == clean_size

        journal = JobJournal(path, batch=1)
        journal.open(truncate_to=good_end)
        journal.append("cc", [{"x": 3}])
        journal.close()
        entries, _ = JobJournal.replay(path)
        assert set(entries) == {"aa", "bb", "cc"}

    def test_garbage_line_stops_replay(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        good = json.dumps({"v": JOURNAL_VERSION, "cell": "aa", "records": []})
        path.write_bytes(good.encode() + b"\nnot json\n" + good.encode() + b"\n")
        entries, good_end = JobJournal.replay(path)
        assert set(entries) == {"aa"}
        assert good_end == len(good.encode()) + 1

    def test_missing_file_is_empty(self, tmp_path):
        entries, good_end = JobJournal.replay(tmp_path / "absent.jsonl")
        assert entries == {} and good_end == 0

    def test_batching_defers_flush(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = JobJournal(path, batch=100)
        journal.open()
        journal.append("aa", [])
        assert JobJournal.replay(path)[0] == {}  # buffered, not yet on disk
        journal.flush()
        assert set(JobJournal.replay(path)[0]) == {"aa"}
        journal.close()


# --------------------------------------------------------------- scheduler


class TestScheduler:
    def test_affinity_is_sticky_per_token(self):
        sched = CellScheduler("affinity")
        for wid in range(3):
            sched.add_worker(wid)
        first = sched.assign("tokA", "k1")
        assert sched.assign("tokA", "k2") == first
        other = sched.assign("tokB", "k3")
        assert other != first  # least-loaded, not the busy one
        assert sched.assign("tokA", "k4") == first

    def test_affinity_balances_new_tokens_by_load(self):
        sched = CellScheduler("affinity")
        sched.add_worker(0)
        sched.add_worker(1)
        assert sched.assign("a", "k1") == 0
        assert sched.assign("b", "k2") == 1
        sched.release(0)
        assert sched.assign("c", "k3") == 0

    def test_random_mode_is_stable_by_key_and_ignores_tokens(self):
        sched = CellScheduler("random")
        for wid in range(4):
            sched.add_worker(wid)
        a = sched.assign("tok", "key-1")
        sched.release(a)
        assert sched.assign("other-tok", "key-1") == a
        spread = {sched.assign("tok", f"key-{i}") for i in range(40)}
        assert len(spread) > 1

    def test_remove_worker_rehomes_tokens(self):
        sched = CellScheduler("affinity")
        sched.add_worker(0)
        sched.add_worker(1)
        assert sched.assign("a", "k1") == 0
        sched.remove_worker(0)
        assert sched.assign("a", "k2") == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler mode"):
            CellScheduler("round-robin")


# ------------------------------------------------------------- service e2e


def _run_service(coro_fn, tmp_path, **service_kwargs):
    """Run ``await coro_fn(svc)`` against a started service, then stop it."""

    async def _main():
        svc = SweepService(tmp_path / "state", **service_kwargs)
        await svc.start()
        try:
            return await coro_fn(svc)
        finally:
            await svc.stop()

    return asyncio.run(_main())


class TestServiceEndToEnd:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("scheduler", ["affinity", "random"])
    def test_records_bit_identical_to_run_sweep(
        self, tmp_path, workers, scheduler
    ):
        reference = small_reference_records()

        async def scenario(svc):
            job = svc.submit(spec_to_dict(SMALL_SPEC))["job"]
            assert await svc.wait(job) == "done"
            return svc.results(job)

        records = _run_service(
            scenario, tmp_path, workers=workers, scheduler=scheduler
        )
        assert records == reference

    def test_concurrent_identical_jobs_share_computation(self, tmp_path):
        async def scenario(svc):
            spec = spec_to_dict(SMALL_SPEC)
            job_a = svc.submit(spec)["job"]
            job_b = svc.submit(spec)["job"]
            assert await svc.wait(job_a) == "done"
            assert await svc.wait(job_b) == "done"
            return (
                svc.results(job_a),
                svc.results(job_b),
                svc.stats()["counts"],
            )

        records_a, records_b, counts = _run_service(scenario, tmp_path)
        assert records_a == records_b
        assert counts["cells_computed"] == len(SMALL_SPEC.points())
        assert counts["dedup_inflight"] == len(SMALL_SPEC.points())

    def test_resubmit_after_done_hits_record_cache(self, tmp_path):
        async def scenario(svc):
            spec = spec_to_dict(SMALL_SPEC)
            first = svc.submit(spec)["job"]
            assert await svc.wait(first) == "done"
            computed = svc.stats()["counts"]["cells_computed"]
            second = svc.submit(spec)["job"]
            assert await svc.wait(second) == "done"
            counts = svc.stats()["counts"]
            assert counts["cells_computed"] == computed  # nothing recomputed
            assert counts["dedup_warm"] == len(SMALL_SPEC.points())
            return svc.results(first), svc.results(second)

        first, second = _run_service(scenario, tmp_path)
        assert first == second

    def test_cancel_stops_notifications(self, tmp_path):
        async def scenario(svc):
            job = svc.submit(spec_to_dict(SMALL_SPEC))["job"]
            summary = svc.cancel(job)
            assert summary["status"] == "cancelled"
            assert await svc.wait(job) == "cancelled"
            with pytest.raises(RuntimeError, match="cancelled"):
                svc.results(job)

        _run_service(scenario, tmp_path)

    def test_sigkilled_worker_is_respawned_and_job_completes(self, tmp_path):
        reference = small_reference_records()

        async def scenario(svc):
            job = svc.submit(spec_to_dict(SMALL_SPEC))["job"]
            victim = svc.pool.handles()[0]
            # Wait for the worker to exist, then kill it mid-queue.
            for _ in range(100):
                if victim.pid is not None:
                    break
                await asyncio.sleep(0.05)
            assert victim.pid is not None
            os.kill(victim.pid, signal.SIGKILL)
            assert await svc.wait(job) == "done"
            assert svc.pool.respawns >= 1
            return svc.results(job)

        records = _run_service(scenario, tmp_path, workers=2)
        assert records == reference


SERVER_SPEC = SweepSpec(
    apps=(("LULESH", 64),),
    topologies=("torus3d", "fattree", "dragonfly"),
    mappings=("consecutive", "bisection", "greedy"),
    payloads=(1024, 4096),
)


def _spawn_server(state: Path, socket_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state", str(state),
            "--socket", str(socket_path),
            "--workers", "2",
            "--journal-batch", "1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _proc_stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state, ppid, ...)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _child_pids(pid: int) -> list[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(int(entry.name))
            if stat is not None and int(stat[1]) == pid:
                kids.append(int(entry.name))
    return kids


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has exited


class TestServerCrashResume:
    def test_sigkilled_server_resumes_from_journal(self, tmp_path):
        state = tmp_path / "state"
        socket_path = tmp_path / "svc.sock"
        server = _spawn_server(state, socket_path)
        try:
            client = SweepClient.wait_ready(socket_path, timeout=60.0)
            job = client.submit(spec_to_dict(SERVER_SPEC))["job"]

            # Follow the stream until a few cells are journaled, then
            # SIGKILL the server; its workers must notice and exit.
            seen = 0
            for event in client.attach(job):
                if event.get("event") == "cell":
                    seen += 1
                    if seen >= 3:
                        break
            assert seen >= 3
            workers = _child_pids(server.pid)
            assert len(workers) >= 2
            server.kill()
            server.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(_running, workers)), "orphaned workers outlived the server"

            restarted = _spawn_server(state, socket_path)
            try:
                client = SweepClient.wait_ready(socket_path, timeout=60.0)
                end = client.wait(job)
                assert end["status"] == "done"
                status = client.status(job)
                # Journaled cells were restored, not recomputed.
                assert status["counts"]["restored"] >= 3
                computed = client.stats()["counts"]["cells_computed"]
                assert status["counts"]["restored"] + computed >= len(
                    SERVER_SPEC.points()
                )
                records = client.results(job)
            finally:
                _shutdown(client, restarted)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)

        cache.clear(memory=True)
        assert records == run_sweep(SERVER_SPEC)


def _shutdown(client: SweepClient, proc: subprocess.Popen) -> None:
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


class TestSocketApi:
    def test_unary_ops_and_errors_over_socket(self, tmp_path):
        state = tmp_path / "state"
        socket_path = tmp_path / "svc.sock"
        server = _spawn_server(state, socket_path)
        try:
            client = SweepClient.wait_ready(socket_path, timeout=60.0)
            assert client.ping()
            assert client.jobs() == []
            with pytest.raises(ServiceError, match="unknown job"):
                client.status("job-9999")

            resp = client.submit(spec_to_dict(SMALL_SPEC))
            assert resp["cells"] == len(SMALL_SPEC.points())
            end = client.wait(resp["job"])
            assert end["status"] == "done"
            assert len(client.results(resp["job"])) == resp["cells"]
            jobs = client.jobs()
            assert [j["job"] for j in jobs] == [resp["job"]]
            assert jobs[0]["status"] == "done"

            stats = client.stats()
            assert stats["counts"]["cells_computed"] == resp["cells"]
            assert len(stats["workers"]) == 2
        finally:
            _shutdown(client, server)
        # The server removed its socket on clean shutdown.
        deadline = time.monotonic() + 5
        while socket_path.exists() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not socket_path.exists()
