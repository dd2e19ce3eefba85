"""The trajectory bench harness: determinism, JSON, the exact gate.

The grid must merge parallel-worker results in fixed order and produce
identical cells for any worker count and any ``PYTHONHASHSEED``; the
regression gate is equality on every declared field of every shared
cell and must fail loudly when it compares nothing; and the committed
``BENCH_*.json`` files are what the tree produces today.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import bench


def _e4_specs(scheme="scheme3", mpl=4, seeds=(7, 8)):
    """Declared E4 cells of one scheme and MPL."""
    return [
        spec
        for spec in bench.specs("E4")
        if spec["scheme"] == scheme and spec["mpl"] == mpl and spec["seed"] in seeds
    ]


def test_make_specs_fixed_order():
    """Transport, then scheme, then swept value, then seed — the order
    every committed BENCH file lists its cells in."""
    specs = bench.specs("E4-sharded")
    assert [
        (s["transport"], s["scheme"], s["mpl"], s["seed"]) for s in specs[:5]
    ] == [
        ("sim", "scheme2", 32, 7),
        ("sim", "scheme2", 32, 8),
        ("sim", "scheme2", 64, 7),
        ("sim", "scheme2", 64, 8),
        ("sim", "scheme3", 32, 7),
    ]
    # the shard pool's size is recorded on the parallel cells only
    assert {(s["transport"], s["workers"], s["groups"]) for s in specs} == {
        ("sim", 1, 4),
        ("parallel", 4, 4),
    }
    assert bench.specs("E1", "E3") == bench.specs("E1") + bench.specs("E3")


def test_every_declared_cell_has_a_tally():
    """Sweeps may share a cell name (E4 and E4-sharded both emit ``E4``
    cells, told apart by ``groups``) only if they share its tally, and no
    two experiments declare the same cell."""
    keys = [bench._cell_key(spec) for spec in bench.specs(*bench.EXPERIMENTS)]
    assert len(keys) == len(set(keys))
    for experiment in bench.EXPERIMENTS.values():
        for name, sweep in experiment.sweeps.items():
            assert bench._TALLIES[name] is sweep.tally
    assert set(bench.GROUPS["paper"]) <= set(bench.PAPER_EXPERIMENTS)


def test_cell_is_deterministic():
    spec = _e4_specs()[0]
    assert bench.run_cell(spec) == bench.run_cell(spec)


def test_serial_equals_parallel():
    specs = _e4_specs()
    assert bench.run_grid(specs, workers=1) == bench.run_grid(specs, workers=2)


def test_scheme1_cell_is_hash_seed_invariant():
    """Theorem 4's measured quantity is a function of the input:
    Scheme 1's early-exit site walks follow the Init's site order, not a
    set's (``scheme_steps`` read 1706 vs 1719 here before)."""
    program = (
        "import json; from repro.analysis import bench; "
        "spec = next(s for s in bench.specs('E4') "
        "if s['scheme'] == 'scheme1' and s['mpl'] == 8 and s['seed'] == 7); "
        "print(json.dumps(bench.run_cell(spec), sort_keys=True))"
    )
    cells = [
        subprocess.run(
            [sys.executable, "-c", program],
            env={
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": str(pathlib.Path(bench.__file__).parents[2]),
            },
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("0", "777")
    ]
    assert cells[0] == cells[1]
    assert json.loads(cells[0])["scheme_steps"] == 1699


def test_make_e4_job_rejects_groups_that_do_not_divide_mpl():
    with pytest.raises(ValueError, match="groups=3 must divide mpl=16"):
        bench.make_e4_job("scheme2", 16, 7, groups=3)
    assert len(bench.make_e4_job("scheme2", 16, 7, groups=4).global_programs) == 48


def test_emit_and_load_json(tmp_path):
    results = [bench.run_cell(spec) for spec in _e4_specs(seeds=(7,))]
    path = tmp_path / "BENCH_t.json"
    bench.emit_json(results, str(path), meta={"note": "test"})
    data = bench.load_json(str(path))
    assert data["meta"] == {"note": "test"}
    assert data["cells"] == results
    # a simulator cell is its spec plus exactly the declared fields it
    # has a reader for (the rest are the paper cells' counts)
    spec = _e4_specs(seeds=(7,))[0]
    read = {name for name, (reader, _) in bench.CELL_FIELDS.items() if reader}
    assert set(data["cells"][0]) == set(spec) | read
    # and the file is valid, pretty-printed JSON
    assert json.loads(path.read_text())["cells"]


def _cell(scheme="scheme3", mpl=16, seed=7, tput=10.0, **extra):
    return {
        "experiment": "E4",
        "scheme": scheme,
        "mpl": mpl,
        "seed": seed,
        "transport": "sim",
        "groups": 1,
        "throughput": tput,
        "scheme_steps": 100,
        **extra,
    }


def test_check_regression_passes_only_on_equality():
    # (was ..._passes_within_threshold: there is no threshold any more)
    assert bench.check_regression([_cell()], [_cell()]) == []
    assert bench.check_regression([_cell(tput=10.000001)], [_cell()])
    assert bench.check_regression([_cell(tput=11.0)], [_cell()])  # a rise too


def test_check_regression_fails_on_drop():
    failures = bench.check_regression([_cell(tput=7.9)], [_cell(tput=10.0)])
    # one changed field: one failure, naming cell, field and both values
    assert len(failures) == 1
    for part in ("scheme3", "mpl=16", "seed=7", "throughput", "7.9", "10.0"):
        assert part in failures[0]


def test_check_regression_ignores_other_cells():
    baseline = [_cell()]
    current = [
        _cell(),
        _cell(seed=9, tput=1.0),  # not in the baseline: skipped
        _cell(mpl=4, tput=1.0),  # likewise
        _cell(transport="parallel", tput=1.0),  # another runtime
        _cell(groups=4, tput=1.0),  # another workload shape
    ]
    assert bench.check_regression(current, baseline) == []


def test_check_regression_compares_only_fields_present_on_both_sides():
    # (was ..._skips_historical_legacy_baseline_cells: the before-column
    # is gone; what an older file lacks is a field, not a twin)
    older = _cell()
    del older["scheme_steps"]
    assert bench.check_regression([_cell(scheme_steps=1)], [older]) == []
    assert bench.check_regression([older], [_cell(scheme_steps=1)]) == []
    # undeclared keys (the spec's ``workers``) are never compared
    assert bench.check_regression([_cell(workers=4)], [_cell(workers=1)]) == []


def test_check_regression_no_comparable_cells_is_a_failure():
    failures = bench.check_regression(
        [_cell(scheme="scheme2")], [_cell(seed=99)]
    )
    assert failures == ["no cell shared between the current run and the baseline"]


def test_check_regression_gates_every_requested_scheme():
    """No scheme/MPL/experiment filter: every shared cell of the run is
    gated, on every declared field."""
    baseline = [_cell(scheme="scheme2"), _cell(), _cell(mpl=4)]
    current = [
        _cell(scheme="scheme2", scheme_steps=101),
        _cell(),
        _cell(mpl=4, tput=9.0, scheme_steps=99),
    ]
    failures = bench.check_regression(current, baseline)
    assert len(failures) == 3
    assert "scheme2" in failures[0]
    assert "scheme_steps 101 != baseline 100" in failures[0]
    assert "mpl=4" in failures[1] and "throughput" in failures[1]
    assert "mpl=4" in failures[2] and "scheme_steps" in failures[2]


def _e14_cell(scheme, mpl=32, seed=7, wait=10.0, rate=100.0):
    return {
        "experiment": "E14",
        "scheme": scheme,
        "mpl": mpl,
        "seed": seed,
        "transport": "sim",
        "groups": 1,
        "mean_wait_set": wait,
        "events_per_sec": rate,
    }


def test_check_dominance_passes_on_strict_win():
    cells = [
        _e14_cell("scheme2", mpl=mpl, wait=10.0)
        for mpl in bench.E14_MPL
    ] + [
        _e14_cell("scheme4", mpl=mpl, wait=9.0)
        for mpl in bench.E14_MPL
    ]
    assert bench.check_dominance(cells) == []


def test_check_dominance_fails_on_tie():
    cells = [
        _e14_cell("scheme2", mpl=mpl, wait=10.0)
        for mpl in bench.E14_MPL
    ] + [
        _e14_cell("scheme4", mpl=mpl, wait=10.0)  # tie: not strict
        for mpl in bench.E14_MPL
    ]
    failures = bench.check_dominance(cells)
    assert len(failures) == len(bench.E14_MPL)
    assert "not strictly below" in failures[0]


def test_check_dominance_no_comparable_pairs_is_a_failure():
    assert any(
        "no comparable" in line
        for line in bench.check_dominance([_e14_cell("scheme2")])
    )


def test_check_dominance_events_per_sec_gate_is_optional():
    cells = [
        _e14_cell("scheme2", mpl=mpl, wait=10.0, rate=100.0)
        for mpl in bench.E14_MPL
    ] + [
        _e14_cell("scheme4", mpl=mpl, wait=9.0, rate=50.0)
        for mpl in bench.E14_MPL
    ]
    # the gate is the WAIT-set claim alone; rate fields are ignored
    assert bench.check_dominance(cells) == []


#: every committed trajectory file
COMMITTED = sorted(
    pathlib.Path(bench.__file__).parents[3].glob("BENCH_*.json"),
    key=lambda path: int(path.stem.split("_")[1]),
)


def _declared(path):
    """The file's cells and the declared specs of the grid its
    ``meta.experiment`` names."""
    data = bench.load_json(str(path))
    assert data["cells"], f"{path} has no cells"
    name = data["meta"]["experiment"]
    return data["cells"], bench.specs(*bench.GROUPS.get(name, (name,)))


def test_every_committed_file_is_one_declared_grid():
    """A BENCH file names one declared experiment (or group), and holds
    exactly that declaration's cells, in its order."""
    assert [path.name for path in COMMITTED] == [
        f"BENCH_{number}.json" for number in (3, 7, 8, 9, 10)
    ]
    for path in COMMITTED:
        cells, specs = _declared(path)
        assert [bench._cell_key(cell) for cell in cells] == [
            bench._cell_key(spec) for spec in specs
        ], path.name
        assert [cell["workers"] for cell in cells] == [
            spec["workers"] for spec in specs
        ], path.name


def test_committed_trajectory_is_self_consistent():
    """Every committed BENCH file gates clean against itself, and a
    fresh run of its declared grid equals the file — on the single-loop
    cells up to MPL 32 (MPL 64 and the shard pool are re-run in CI; the
    paper grid by tests/test_experiments_module.py)."""
    for path in COMMITTED:
        cells, specs = _declared(path)
        assert bench.check_regression(cells, cells) == []
        if specs[0]["transport"] == "drive":
            continue
        slice_ = [
            spec
            for spec in specs
            if spec["transport"] == "sim" and spec["mpl"] <= 32
        ]
        fresh = bench.run_grid(slice_)
        assert bench.check_regression(fresh, cells) == []
        wanted = {bench._cell_key(spec) for spec in slice_}
        assert fresh == [cell for cell in cells if bench._cell_key(cell) in wanted]
