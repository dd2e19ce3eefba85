"""Tests for workload generation and the analysis utilities."""

import random

import pytest

from repro.analysis import bench, dominance, fit_exponent, mean_waits, render_table
from repro.workloads import (
    UniformItems,
    WorkloadConfig,
    WorkloadGenerator,
    ZipfItems,
    make_items,
)
from tests.support import HotspotItems


def _paper_cells(sweep, schemes, values, seeds=(0,)):
    """Cells of one declared paper sweep, on another grid."""
    return bench.run_grid([
        dict(experiment=sweep, scheme=scheme, mpl=value, seed=seed,
             transport="drive", workers=1, groups=1)
        for scheme in schemes
        for value in values
        for seed in seeds
    ])


class TestDistributions:
    def test_make_items(self):
        assert make_items(3) == ["x0", "x1", "x2"]
        with pytest.raises(ValueError):
            make_items(0)

    def test_uniform_samples_from_universe(self):
        rng = random.Random(0)
        dist = UniformItems(["a", "b"])
        assert all(dist.sample(rng) in {"a", "b"} for _ in range(20))

    def test_zipf_skews_to_head(self):
        rng = random.Random(0)
        dist = ZipfItems(make_items(50), theta=1.2)
        counts = {}
        for _ in range(2000):
            item = dist.sample(rng)
            counts[item] = counts.get(item, 0) + 1
        assert counts.get("x0", 0) > counts.get("x49", 0)

    def test_zipf_theta_zero_is_uniformish(self):
        rng = random.Random(0)
        dist = ZipfItems(["a", "b"], theta=0.0)
        counts = {"a": 0, "b": 0}
        for _ in range(2000):
            counts[dist.sample(rng)] += 1
        assert abs(counts["a"] - counts["b"]) < 300

    def test_zipf_rejects_negative_theta(self):
        with pytest.raises(ValueError):
            ZipfItems(["a"], theta=-1)

    def test_hotspot_prefers_hot_set(self):
        rng = random.Random(0)
        dist = HotspotItems(make_items(20), hot_count=2, hot_fraction=0.9)
        hot = sum(
            1 for _ in range(1000) if dist.sample(rng) in {"x0", "x1"}
        )
        assert hot > 800


class TestGenerator:
    def test_deterministic_from_seed(self):
        a = WorkloadGenerator(WorkloadConfig(seed=5)).global_batch(5)
        b = WorkloadGenerator(WorkloadConfig(seed=5)).global_batch(5)
        assert [p.accesses for p in a] == [p.accesses for p in b]

    def test_dav_average(self):
        config = WorkloadConfig(sites=6, dav=2.5, seed=1)
        generator = WorkloadGenerator(config)
        counts = [
            len(generator.global_program().sites) for _ in range(400)
        ]
        assert 2.2 < sum(counts) / len(counts) < 2.8

    def test_items_namespaced_per_site(self):
        generator = WorkloadGenerator(WorkloadConfig(seed=2))
        program = generator.global_program()
        for access in program.accesses:
            assert access.item.startswith(f"{access.site}_x")

    def test_local_program_single_site(self):
        generator = WorkloadGenerator(WorkloadConfig(seed=2))
        local = generator.local_program("s1")
        assert local.site == "s1"
        assert len(local.accesses) == WorkloadConfig().ops_per_site

    def test_ids_unique(self):
        generator = WorkloadGenerator(WorkloadConfig(seed=0))
        ids = [p.transaction_id for p in generator.global_batch(10)]
        ids += [l.transaction_id for l in generator.local_batch(10)]
        assert len(set(ids)) == 20


class TestComplexityAnalysis:
    def test_fit_exponent_recovers_power(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [x ** 2 for x in xs]
        assert abs(fit_exponent(xs, ys) - 2.0) < 1e-9

    def test_fit_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([1.0], [1.0])

    def test_measure_returns_point(self):
        (cell,) = _paper_cells("E1dav", ("scheme0",), (2,))
        assert cell["transactions"] == 40
        assert cell["scheme_steps"] > 0

    def test_scheme0_flat_in_n(self):
        cells = _paper_cells("E1n", ("scheme0",), (4, 8, 16))
        assert bench.exponents(cells)["scheme0"] < 0.35

    def test_dav_scaling_scheme0(self):
        cells = _paper_cells("E1dav", ("scheme0",), (1, 2, 4, 8))
        assert 0.5 < bench.exponents(cells)["scheme0"] < 1.5  # linear in dav


class TestConcurrencyAnalysis:
    def test_compare_and_dominance(self):
        cells = _paper_cells("E7", ("scheme0", "scheme3"), (15,), range(5))
        result = dominance(cells, "scheme3", "scheme0")
        assert result.first_better + result.second_better + result.ties == 5
        assert result.second_better == 0  # scheme0 never waits less
        means = mean_waits(cells)
        assert means["scheme3"] <= means["scheme0"]

    def test_dominance_verdict_strings(self):
        from repro.analysis import Dominance

        assert Dominance("a", "b", 3, 0, 1).verdict == "a >= b"
        assert Dominance("a", "b", 0, 2, 1).verdict == "b >= a"
        assert Dominance("a", "b", 2, 2, 0).verdict == "incomparable"
        assert Dominance("a", "b", 0, 0, 4).verdict == "equal"


class TestReporting:
    def test_render_table_alignment(self):
        table = render_table(
            ("name", "value"), [("a", 1), ("bbbb", 22.5)], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "22.50" in table

    def test_large_numbers_formatted(self):
        table = render_table(("v",), [(123456.0,)])
        assert "123,456" in table
