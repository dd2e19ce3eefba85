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


def _tiny_specs(**overrides):
    kwargs = dict(
        schemes=("scheme3",),
        mpl_values=(4,),
        seeds=(7, 8),
        experiment="E4",
    )
    kwargs.update(overrides)
    return bench.make_specs(**kwargs)


def test_make_specs_fixed_order():
    specs = bench.make_specs(
        schemes=("scheme2", "scheme3"), mpl_values=(4, 8), seeds=(7,)
    )
    assert [(s["scheme"], s["mpl"]) for s in specs] == [
        ("scheme2", 4),
        ("scheme2", 8),
        ("scheme3", 4),
        ("scheme3", 8),
    ]


def test_cell_is_deterministic():
    spec = _tiny_specs()[0]
    assert bench.run_cell(spec) == bench.run_cell(spec)


def test_serial_equals_parallel():
    specs = _tiny_specs()
    assert bench.run_grid(specs, workers=1) == bench.run_grid(specs, workers=2)


def test_scheme1_cell_is_hash_seed_invariant():
    """Theorem 4's measured quantity is a function of the input:
    Scheme 1's early-exit site walks follow the Init's site order, not a
    set's (``scheme_steps`` read 1706 vs 1719 here before)."""
    program = (
        "import json; from repro.analysis import bench; "
        "print(json.dumps(bench.run_cell(bench.make_specs("
        "schemes=('scheme1',), mpl_values=(8,), seeds=(7,))[0]), "
        "sort_keys=True))"
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
    assert json.loads(cells[0])["scheme_steps"] == 1710


def test_make_e4_job_rejects_groups_that_do_not_divide_mpl():
    with pytest.raises(ValueError, match="groups=3 must divide mpl=16"):
        bench.make_e4_job("scheme2", 16, 7, groups=3)
    assert len(bench.make_e4_job("scheme2", 16, 7, groups=4).global_programs) == 48


def test_emit_and_load_json(tmp_path):
    results = [bench.run_cell(spec) for spec in _tiny_specs(seeds=(7,))]
    path = tmp_path / "BENCH_t.json"
    bench.emit_json(results, str(path), meta={"note": "test"})
    data = bench.load_json(str(path))
    assert data["meta"] == {"note": "test"}
    assert data["cells"] == results
    # a simulator cell is its spec plus exactly the declared fields it
    # has a reader for (the rest are the paper cells' counts)
    spec = _tiny_specs(seeds=(7,))[0]
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


def _committed(path):
    data = bench.load_json(path)
    assert data["cells"], f"{path} has no cells"
    return data["cells"]


def test_committed_trajectory_is_self_consistent():
    """Every committed BENCH file gates clean against itself, and a
    fresh run of its grid gates clean against the file (E14 at MPL 64
    and the BENCH_8 worker pool are re-run in CI only)."""
    for number in (3, 7, 8, 9):
        cells = _committed(f"BENCH_{number}.json")
        assert bench.check_regression(cells, cells) == []
    fresh = bench.run_grid(bench.make_specs())
    assert len(fresh) == 60
    assert bench.check_regression(fresh, _committed("BENCH_3.json")) == []
    assert fresh == _committed("BENCH_3.json")
    fresh = bench.run_grid(
        bench.make_specs(
            schemes=("scheme2",), mpl_values=(1, 3), experiment="E13"
        )
    )
    assert len(fresh) == 8
    assert bench.check_regression(fresh, _committed("BENCH_7.json")) == []
    assert fresh == _committed("BENCH_7.json")
    fresh = bench.run_grid(
        bench.make_specs(
            schemes=("scheme2", "scheme4"),
            mpl_values=(32,),
            seeds=(7, 8),
            experiment="E14",
        )
    )
    assert len(fresh) == 4
    assert bench.check_regression(fresh, _committed("BENCH_9.json")) == []
