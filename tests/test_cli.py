"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main
from repro.mdbs import MDBSSimulator, verify
from repro.transport import base as transport


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

    def test_bench_gate_is_exact_and_names_the_field(self, tmp_path, capsys):
        from repro.analysis import bench

        argv = ["bench", "--experiment", "E13"]
        baseline = tmp_path / "BENCH_t.json"
        assert main(argv + ["--workers", "1", "--out", str(baseline)]) == 0
        assert main(argv + ["--baseline", str(baseline)]) == 0
        data = bench.load_json(str(baseline))
        # nothing host-derived: the file names its declaration
        assert data["meta"] == {"experiment": "E13"}
        aborts = data["cells"][0]["watchdog_aborts"]
        data["cells"][0]["watchdog_aborts"] += 1
        bench.emit_json(data["cells"], str(baseline), meta=data["meta"])
        capsys.readouterr()
        assert main(argv + ["--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "!! regression: experiment=E13 scheme=scheme2 mpl=1 seed=7" in out
        assert f"watchdog_aborts {aborts} != baseline {aborts + 1}" in out
        # a run sharing no cell with the baseline fails too
        assert main(["bench", "--experiment", "E3", "--baseline", str(baseline)]) == 1
        assert "no cell shared" in capsys.readouterr().out

    def test_bench_accepts_e14(self):
        """``--experiment`` takes every declared name, and only those."""
        from repro.analysis import bench

        for name in [*bench.EXPERIMENTS, *bench.GROUPS]:
            args = build_parser().parse_args(["bench", "--experiment", name])
            assert args.experiment == name
        assert "E14" in bench.EXPERIMENTS and "E11" not in bench.EXPERIMENTS
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--experiment", "E11"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--txns", "0"],
            ["compare", "--traces", "0"],
            ["compare", "--sites", "0"],
            ["trace", "--sites", "0"],
            ["trace", "--txns", "-1"],
            ["simulate", "--sites", "0"],
            ["simulate", "--items", "0"],
            ["simulate", "--ops", "0"],
            ["simulate", "--globals", "-3"],
            ["simulate", "--locals", "-2"],
            ["chaos", "--runs", "0"],
            ["chaos", "--sites", "0"],
            ["chaos", "--globals", "-1"],
            ["chaos", "--commit-group-size", "-2", "--atomic-commit"],
            ["chaos", "--replication-degree", "-1", "--replicated-items", "-4"],
            ["chaos", "--replicated-items", "-4"],
        ],
    )
    def test_counts_out_of_range_exit_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: must be >= " in err
        assert err.startswith("usage: repro ")

    @pytest.mark.parametrize("content", [None, "{not json"])
    def test_a_bad_baseline_fails_before_the_grid_runs(self, content, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--experiment", "E4", "--baseline", str(baseline)])
        assert str(excinfo.value).startswith(f"{baseline}: ")
        assert capsys.readouterr().out == ""

    def test_chaos_flag_defaults_are_the_option_defaults(self):
        """Each chaos knob is declared once, on its option field: the
        parsed defaults are ``ChaosOptions()``'s, field for field."""
        from repro.faults.chaos import ChaosOptions

        args = build_parser().parse_args(["chaos"])
        defaults = ChaosOptions()
        knobs = [
            knob
            for knob in dataclasses.fields(ChaosOptions)
            if "flag" in knob.metadata
        ]
        assert len(knobs) == 18
        for knob in knobs:
            assert getattr(args, knob.name) == getattr(defaults, knob.name)

    def test_every_chaos_flag_still_parses(self):
        argv = [
            "chaos", "--schemes", "scheme1", "scheme3", "--runs", "2",
            "--seed", "4", "--sites", "5", "--globals", "6", "--locals", "7",
            "--loss-rate", "0.1", "--duplication-rate", "0.2",
            "--delay-rate", "0.3", "--gtm-crashes", "2", "--site-crashes", "3",
            "--downtime", "40", "--atomic-commit", "--prepare-crashes", "1",
            "--replication-degree", "2", "--replicated-items", "9",
            "--ro-fraction", "0.5", "--commit-group-size", "3",
            "--coordinator-crashes", "1", "--vote-decide-partitions", "2",
            "--write-crashes", "1", "--metrics-out", "out.prom",
        ]
        args = build_parser().parse_args(argv)
        assert args.schemes == ["scheme1", "scheme3"]
        assert (args.runs, args.seed, args.metrics_out) == (2, 4, "out.prom")
        assert (args.sites, args.global_txns, args.local_txns) == (5, 6, 7)
        assert (args.loss_rate, args.duplication_rate, args.delay_rate) == (
            0.1, 0.2, 0.3,
        )
        assert (args.gtm_crash_count, args.site_crash_count) == (2, 3)
        assert args.downtime == 40.0 and args.atomic_commit is True
        assert (args.replication_degree, args.replicated_items) == (2, 9)
        assert args.ro_fraction == 0.5
        assert (
            args.prepare_crash_count,
            args.commit_group_size,
            args.coordinator_crash_count,
            args.vote_decide_partition_count,
            args.write_crash_count,
        ) == (1, 3, 1, 2, 1)

    def test_check_dominance_requires_e14(self):
        # the ROADMAP claim is only made for the E14 high-MPL regime; a
        # pass over the default E4 grid must not masquerade as the
        # dominance claim holding
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--check-dominance"])
        assert "E14" in str(excinfo.value)


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

    def test_simulate_prints_failed_globals(self, capsys, monkeypatch):
        # under OCC at 40 globals two spend every restart, and the run
        # still verifies: the table says so
        reports = []

        class Recording(MDBSSimulator):
            def run(self):
                reports.append(super().run())
                return reports[-1]

        monkeypatch.setattr(transport, "MDBSSimulator", Recording)
        rc = main(
            ["simulate", "--scheme", "scheme0", "--protocols", "occ", "--globals", "40"]
        )
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "global failed" in line)
        assert rc == 0
        assert reports[0].failed_global > 0
        assert row.split() == ["global", "failed", str(reports[0].failed_global)]

    def test_simulate_under_occ_commits_each_global_once(self, capsys):
        """A global that an OCC site aborts after it committed at another
        site restarts at the remaining sites only: every global commits,
        once, and every verdict row reads True."""
        rc = main(["simulate", "--scheme", "scheme0", "--protocols", "occ"])
        lines = capsys.readouterr().out.splitlines()
        verdicts = {
            " ".join(line.split()[:-1]): line.split()[-1]
            for line in lines
            if "serializable" in line or "exactly once" in line
        }
        assert rc == 0
        assert verdicts == {
            "locals serializable": "True",
            "globally serializable": "True",
            "committed ser(S) serializable": "True",
            "commits applied exactly once": "True",
        }
        assert "global committed 15/15" in " ".join(" ".join(lines).split())

    def test_simulate_names_a_duplicated_commit(self, capsys, monkeypatch):
        # a run whose ground truth holds a commit applied twice fails the
        # exactly-once row alone, and exits 1 naming it
        def duplicated(self, schedule=None):
            report = MDBSSimulator.atomicity_report(self, schedule)
            twice = (("G0", "s0", ("G0", "G0#1")),)
            return dataclasses.replace(
                report,
                exactly_once=dataclasses.replace(
                    report.exactly_once, duplicated=twice
                ),
            )

        class Duplicating(MDBSSimulator):
            atomicity_report = duplicated

        monkeypatch.setattr(transport, "MDBSSimulator", Duplicating)
        rc = main(["simulate", "--scheme", "scheme3", "--globals", "4"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert "!! violation: not commits applied exactly once" in lines
        assert not any("violation cycle" in line for line in lines)

    def test_simulate_names_the_failed_verdict(self, capsys, monkeypatch):
        # an acyclic global SG whose committed ser(S) projection is cyclic:
        # the global row stays True, the ser(S) row says False, and no
        # empty cycle line is printed
        def ser_only_failure(global_schedule, ser_schedule):
            report = verify(global_schedule, ser_schedule)
            return dataclasses.replace(
                report, ser_schedule_serializable=False, cycle=()
            )

        monkeypatch.setattr(transport, "verify", ser_only_failure)
        rc = main(["simulate", "--scheme", "scheme3", "--globals", "4"])
        lines = capsys.readouterr().out.splitlines()
        rows = {
            " ".join(line.split()[:-1]): line.split()[-1]
            for line in lines
            if "serializable" in line
        }
        assert rc == 1
        assert rows["locals serializable"] == "True"
        assert rows["globally serializable"] == "True"
        assert rows["committed ser(S) serializable"] == "False"
        assert "!! violation: not committed ser(S) serializable" in lines
        assert not any("violation cycle" in line for line in lines)
        assert any(line.split()[:2] == ["global", "failed"] for line in lines)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scheme", "otm"],
            ["chaos", "--runs", "1", "--schemes", "scheme2", "optimistic-gtm"],
        ],
        ids=["simulate", "chaos"],
    )
    def test_a_refused_scheme_exits_with_one_line(self, argv, capsys):
        """A scheduler that can abort at fin is refused before anything
        is reported: one line naming it, a non-zero exit, no table."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert "is refused" in message and argv[-1] in message
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    def test_chaos_runs_a_baseline(self, capsys):
        rc = main(["chaos", "--schemes", "to-gtm", "--runs", "2"])
        assert rc == 0
        assert "to-gtm" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--prepare-crashes", "1"], "prepare_crash_count 1 needs atomic_commit"),
            (["--commit-group-size", "3"], "commit_group_size 3 needs atomic_commit"),
            (
                ["--atomic-commit", "--coordinator-crashes", "1"],
                "coordinator_crash_count 1 needs commit_group_size >= 1",
            ),
            (
                ["--atomic-commit", "--vote-decide-partitions", "1"],
                "vote_decide_partition_count 1 needs commit_group_size >= 1",
            ),
            (
                ["--write-crashes", "1"],
                "write_crash_count 1 needs replication_degree >= 1",
            ),
            (
                ["--replicated-items", "3", "--ro-fraction", "0.9"],
                "replicated_items 3 needs replication_degree >= 1",
            ),
            (
                ["--ro-fraction", "0.9"],
                "ro_fraction 0.9 needs replication_degree >= 1",
            ),
            (
                ["--replication-degree", "2", "--atomic-commit", "--ro-fraction", "7"],
                "ro_fraction must be in [0, 1], got 7.0",
            ),
            (["--ro-fraction", "-0.5"], "ro_fraction must be in [0, 1], got -0.5"),
        ],
    )
    def test_chaos_refuses_a_knob_whose_layer_is_off(self, argv, reason, capsys):
        """A fault knob whose layer the run does not build would be drawn
        and then ignored; it is refused before anything runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--runs", "1", "--schemes", "scheme2", *argv])
        assert str(excinfo.value) == f"invalid fault configuration: {reason}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flag, value, reason",
        [
            ("--downtime", "-5", "negative time"),
            ("--gtm-crashes", "-1", "negative gtm_crash_count"),
            ("--prepare-crashes", "-2", "negative prepare_crash_count"),
            ("--loss-rate", "2", "loss_rate must be in [0, 1]"),
        ],
    )
    def test_chaos_rejects_every_bad_fault_option_cleanly(
        self, flag, value, reason
    ):
        """Every storm option is checked by the plan it builds, so each
        bad one is a clean exit, never a traceback or a silent no-op."""
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--runs", "1", "--schemes", "scheme2", flag, value])
        message = str(excinfo.value)
        assert message.startswith("invalid fault configuration: ")
        assert reason in message
