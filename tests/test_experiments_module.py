"""The paper's experiments as bench cells: the committed BENCH_10.json is
what the tree produces, the exact gate sees a one-step change, and
``repro report`` renders from the file alone."""

import pytest

from repro.analysis import bench
from repro.cli import main

BENCH_10 = "BENCH_10.json"


@pytest.fixture(scope="module")
def committed():
    return bench.load_json(BENCH_10)["cells"]


@pytest.fixture(scope="module")
def fresh():
    return bench.run_grid(bench.specs(*bench.PAPER_EXPERIMENTS))


def test_paper_grid_equals_committed_file(fresh, committed):
    assert len(fresh) == len(committed) == 991
    assert bench.check_regression(fresh, committed) == []
    assert fresh == committed


def test_gate_names_a_one_step_change(tmp_path, committed, capsys):
    cells = [dict(cell) for cell in committed]
    bumped = next(cell for cell in cells if cell["experiment"] == "E1n")
    bumped["scheme_steps"] += 1
    baseline = tmp_path / "BENCH_t.json"
    bench.emit_json(cells, str(baseline))
    capsys.readouterr()
    assert main(["bench", "--experiment", "E1", "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert (
        f"!! regression: experiment=E1n scheme={bumped['scheme']} "
        f"mpl={bumped['mpl']} seed={bumped['seed']} transport=drive groups=1: "
        f"scheme_steps {bumped['scheme_steps'] - 1} != baseline "
        f"{bumped['scheme_steps']}"
    ) in out


class TestSections:
    def test_permits_all_verdict_positive(self, committed):
        section = bench.render_report(committed, ["E3"])
        assert "scheme3                0                0" in section

    def test_aborts_verdict_positive(self, committed):
        section = bench.render_report(committed, ["E7"])
        for scheme in ("scheme0", "scheme1", "scheme2", "scheme3"):
            assert f"{scheme}   0.0%   0.0%   0.0%" in section

    def test_section_renders_markdown(self, committed):
        text = bench.render_report(committed, ["E3"]).split("\n## ", 1)[1]
        assert text.startswith("E3")
        assert "**Claim.**" in text
        assert "```" in text


class TestReport:
    def test_registry_contains_core_experiments(self):
        assert set(bench.PAPER_EXPERIMENTS) == {"E1", "E2", "E3", "E6", "E7", "E8"}
        assert set(bench.EXPERIMENTS) == set(bench.PAPER_EXPERIMENTS) | {
            "E4", "E4-sharded", "E13", "E14"
        }

    def test_e8_renders_the_baseline_means(self, committed):
        section = bench.render_report(committed, ["E8"])
        assert "site-graph  64.80       0  34,759" in section
        assert "       otm      0   13.07   1,100" in section

    def test_e4_renders_from_its_own_file(self):
        section = bench.render_report(
            bench.load_json("BENCH_3.json")["cells"], ["E4"]
        )
        assert "## E4" in section
        assert "scheme3    8      24.00          82.00    83.52" in section

    def test_render_report_subset(self, committed):
        text = bench.render_report(committed, ["E3"])
        assert "# The paper's experiments" in text
        assert "## E3" in text
        assert "## E7" not in text

    def test_cli_report_to_file(self, tmp_path, fresh):
        target = tmp_path / "report.md"
        rc = main(["report", BENCH_10, "--experiments", "E3", "-o", str(target)])
        assert rc == 0
        text = target.read_text()
        assert "## E3" in text
        assert text == bench.render_report(fresh, ["E3"])

    def test_cli_report_unknown_experiment(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", BENCH_10, "--experiments", "E42"])
        assert "E42" in str(excinfo.value)

    def test_cli_report_names_an_experiment_missing_its_cells(
        self, tmp_path, committed
    ):
        path = tmp_path / "BENCH_t.json"
        bench.emit_json(
            [cell for cell in committed if cell["experiment"] != "E3"], str(path)
        )
        assert main(["report", str(path), "--experiments", "E1"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(path), "--experiments", "E1", "E3"])
        assert "E3: 100 of its cells are missing" in str(excinfo.value)
