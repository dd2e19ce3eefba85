"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scheme == "scheme3"
        assert args.sites == 3

    def test_protocol_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--protocols", "voodoo"]
            )

    def test_bench_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--schemes", "scheme2", "bogus", "--seeds", "1"])
        message = str(excinfo.value)
        assert "bogus" in message
        assert "scheme4" in message  # the valid names are listed

    def test_bench_rejects_baseline_scheduler_names(self):
        # baselines (e.g. otm) are simulate-able but not bench-runnable;
        # they used to pass validation and crash with a raw KeyError
        # inside the worker pool
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--schemes", "otm", "--seeds", "1"])
        assert "otm" in str(excinfo.value)

    def test_bench_rejects_groups_that_do_not_divide_mpl(self):
        # used to run MPL 15 and record "mpl": 16
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--mpl", "16", "--groups", "3", "--seeds", "1"])
        message = str(excinfo.value)
        assert "groups=3" in message and "mpl=16" in message

    def test_bench_gate_is_exact_and_names_the_field(self, tmp_path, capsys):
        from repro.analysis import bench

        argv = ["bench", "--schemes", "scheme1", "--mpl", "4", "--seeds", "1"]
        baseline = tmp_path / "BENCH_t.json"
        assert main(argv + ["--workers", "1", "--out", str(baseline)]) == 0
        assert main(argv + ["--baseline", str(baseline)]) == 0
        data = bench.load_json(str(baseline))
        assert "workers" not in data["meta"]  # nothing host-derived
        data["cells"][0]["watchdog_aborts"] += 1
        bench.emit_json(data["cells"], str(baseline), meta=data["meta"])
        capsys.readouterr()
        assert main(argv + ["--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "!! regression:" in out and "scheme=scheme1" in out
        assert "watchdog_aborts 0 != baseline 1" in out
        # a run sharing no cell with the baseline fails too
        assert main(argv + ["--base-seed", "99", "--baseline", str(baseline)]) == 1
        assert "no cell shared" in capsys.readouterr().out

    def test_bench_accepts_e14(self):
        args = build_parser().parse_args(["bench", "--experiment", "E14"])
        assert args.experiment == "E14"
        assert "scheme4" in args.schemes

    def test_check_dominance_requires_e14(self):
        # the ROADMAP claim is only made for the E14 high-MPL regime; a
        # pass over the default E4 grid must not masquerade as the
        # dominance claim holding
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--check-dominance", "--seeds", "1"])
        assert "E14" in str(excinfo.value)

    def test_check_dominance_requires_e14_mpl(self):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "bench",
                    "--experiment",
                    "E14",
                    "--check-dominance",
                    "--mpl",
                    "4",
                    "--seeds",
                    "1",
                ]
            )
        message = str(excinfo.value)
        assert "32" in message and "64" in message


class TestCommands:
    def test_simulate_runs_and_verifies(self, capsys):
        rc = main(
            [
                "simulate",
                "--scheme",
                "scheme2",
                "--sites",
                "2",
                "--globals",
                "5",
                "--locals",
                "4",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "globally serializable" in out
        assert "True" in out

    def test_simulate_with_explicit_protocols(self, capsys):
        rc = main(
            [
                "simulate",
                "--sites",
                "2",
                "--globals",
                "4",
                "--locals",
                "0",
                "--protocols",
                "conservative-2pl",
                "occ",
            ]
        )
        assert rc == 0

    def test_compare_prints_all_schemes(self, capsys):
        rc = main(
            [
                "compare",
                "--schemes",
                "scheme0",
                "scheme3",
                "--txns",
                "10",
                "--traces",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "scheme0" in out and "scheme3" in out

    def test_compare_includes_baselines(self, capsys):
        rc = main(
            [
                "compare",
                "--schemes",
                "otm",
                "site-graph",
                "--txns",
                "8",
                "--traces",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "otm" in out

    def test_trace_verbose_output(self, capsys):
        rc = main(["trace", "--txns", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ser(S) serializable: True" in out
        assert "witness:" in out

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["trace", "--scheme", "quantum"])
