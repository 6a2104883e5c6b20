"""Tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main

#: Every subcommand's options: default, choices, type, required, action.
SURFACE = Path(__file__).with_name("cli_surface.json")


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_surface_matches_snapshot(self):
        """No subcommand gains, loses or re-defaults a flag."""

        def table(p):
            return {
                "/".join(a.option_strings) or a.dest: [
                    a.default,
                    list(a.choices) if a.choices else None,
                    getattr(a.type, "__name__", None),
                    a.required,
                    type(a).__name__,
                ]
                for a in p._actions
                if not isinstance(
                    a, (argparse._HelpAction, argparse._SubParsersAction)
                )
            }

        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        surface = {"": table(parser)}
        surface.update((name, table(p)) for name, p in sub.choices.items())
        assert surface == json.loads(SURFACE.read_text())

    def test_literal_choices_match_registries(self):
        from repro.collectives import COLLECTIVES
        from repro.routing import ROUTINGS
        from repro.topology.configs import TOPOLOGY_KINDS

        assert cli._ROUTING_CHOICES == tuple(ROUTINGS)
        assert cli._COLLECTIVE_CHOICES == tuple(COLLECTIVES)
        assert cli._TOPOLOGY_CHOICES == TOPOLOGY_KINDS


class TestCommands:
    def test_table1(self, capsys):
        out = run(capsys, "table1", "--max-ranks", "30")
        assert "AMG@8" in out and "Vol[MB]" in out

    def test_table2(self, capsys):
        out = run(capsys, "table2")
        assert "(16,8,8)" in out

    def test_table3(self, capsys):
        out = run(capsys, "table3", "--max-ranks", "30")
        assert "torus" in out and "AMG@27" in out

    def test_table4(self, capsys):
        out = run(capsys, "table4", "--max-ranks", "70")
        assert "LULESH" in out

    def test_figure1(self, capsys):
        out = run(capsys, "figure1", "--app", "LULESH", "--ranks", "64")
        assert "cum share" in out

    def test_figure3(self, capsys):
        out = run(capsys, "figure3", "--max-ranks", "30")
        assert "partners@90%" in out

    def test_figure4(self, capsys):
        out = run(capsys, "figure4", "--app", "CrystalRouter")
        assert "CrystalRouter@10" in out

    def test_figure5(self, capsys):
        out = run(capsys, "figure5", "--min-ranks", "500", "--max-ranks", "600")
        assert "1c:1.00" in out

    def test_claims(self, capsys):
        out = run(capsys, "claims", "--max-ranks", "30")
        assert "selectivity" in out

    def test_apps(self, capsys):
        out = run(capsys, "apps")
        assert "SNAP" in out and "(*)" in out

    def test_trace_to_stdout(self, capsys):
        out = run(capsys, "trace", "--app", "MiniFE", "--ranks", "18")
        assert out.startswith("%repro-dumpi 1")
        assert "P2P MPI_Isend" in out

    def test_trace_to_file(self, capsys, tmp_path):
        path = tmp_path / "t.dumpi.txt"
        out = run(
            capsys, "trace", "--app", "MiniFE", "--ranks", "18", "--out", str(path)
        )
        assert path.exists()
        assert "wrote MiniFE@18" in out

    def test_trace_roundtrips_through_parser(self, capsys, tmp_path):
        from repro.dumpi.parser import load_trace

        path = tmp_path / "t.dumpi.txt"
        run(capsys, "trace", "--app", "CrystalRouter", "--ranks", "10", "--out", str(path))
        trace = load_trace(path)
        assert trace.meta.app == "CrystalRouter"
        assert trace.meta.num_ranks == 10


class TestErrorPaths:
    """User errors exit nonzero with a one-line message, never a traceback."""

    def fail(self, capsys, *argv, code=2):
        rc = main(list(argv))
        captured = capsys.readouterr()
        assert rc == code, captured.err
        err_lines = [l for l in captured.err.splitlines() if l]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert "Traceback" not in captured.err
        return err_lines[0]

    def test_unknown_app(self, capsys):
        msg = self.fail(capsys, "figure1", "--app", "Nope", "--ranks", "64")
        assert "Nope" in msg

    def test_unknown_topology_in_check(self, capsys):
        msg = self.fail(capsys, "check", "--max-ranks", "8", "--topologies", "hypercube")
        assert "hypercube" in msg

    def test_unknown_routing_in_check(self, capsys):
        msg = self.fail(capsys, "check", "--max-ranks", "8", "--routings", "bogus")
        assert "bogus" in msg

    def test_missing_convert_dir(self, capsys, tmp_path):
        msg = self.fail(capsys, "convert", "--dir", str(tmp_path / "nope"), "--app", "X")
        assert "error: " in msg

    def test_convert_names_bad_record(self, capsys, tmp_path):
        (tmp_path / "run-0000.txt").write_text(
            "MPI_Send entering at walltime 10.0, cputime 0.0 seconds in thread 0.\n"
            "int count=100\n"
            "int dest=5\n"
            "MPI_Send returning at walltime 10.1, cputime 0.1 seconds in thread 0.\n"
        )
        (tmp_path / "run-0001.txt").write_text("")
        msg = self.fail(capsys, "convert", "--dir", str(tmp_path), "--app", "x")
        assert msg == (
            "error: run-0000.txt: line 1: event peer 5 out of range for 2-rank trace"
        )

    @pytest.mark.parametrize("rank", ["999", "64", "-1"])
    def test_figure1_rank_out_of_range(self, capsys, rank):
        msg = self.fail(capsys, "figure1", "--app", "LULESH", "--ranks", "64", "--rank", rank)
        assert f"rank {rank}" in msg

    def test_empty_sweep_axis(self, capsys):
        msg = self.fail(
            capsys, "sweep", "--app", "LULESH", "--ranks", "64", "--topologies", ","
        )
        assert "--topologies" in msg

    def test_empty_compare_list(self, capsys):
        msg = self.fail(
            capsys, "telemetry", "--app", "LULESH", "--ranks", "64", "--compare", ","
        )
        assert "--compare" in msg

    def test_bad_jobs_entry(self, capsys):
        msg = self.fail(capsys, "compose", "--jobs", "LULESH64")
        assert "APP:RANKS" in msg and "LULESH64" in msg

    def test_closed_stdout_is_not_a_failure(self):
        """A reader that stops early (``| head``) gets no traceback."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "figure1", "--app", "LULESH", "--ranks", "64"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # closed before the command writes anything
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestBenchWriter:
    def test_write_bench_bytes(self, tmp_path):
        from repro.bench import write_bench

        data = {"summary": {"ok": True, "ratio": 1.5}, "alpha": [3, 1]}
        path = write_bench(tmp_path / "BENCH_x.json", data)
        assert path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


class TestCheckCommand:
    def test_check_passes_on_small_grid(self, capsys):
        rc = main(
            [
                "check",
                "--max-ranks",
                "10",
                "--topologies",
                "torus3d",
                "--routings",
                "minimal",
                "--no-sim",
                "--strict",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_check_verbose_lists_scenarios(self, capsys):
        rc = main(
            [
                "check",
                "--max-ranks",
                "10",
                "--topologies",
                "torus3d",
                "--routings",
                "minimal",
                "--no-sim",
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok (" in out


class TestFuzzCommand:
    def test_fuzz_smoke_seed(self, capsys):
        rc = main(["fuzz", "--count", "1", "--target-packets", "2000"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "0 failure(s)" in captured.out
