"""The perf-trajectory bench harness: determinism, JSON, regression gate.

The grid must merge parallel-worker results in fixed order and produce
byte-identical cells for any worker count; and the regression gate must
fail loudly both on throughput drops and on baselines with nothing to
compare, while never gating against the historical before-column of
``BENCH_3.json``.
"""

import json


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


def _strip_wall(cells):
    """Everything except the wall-clock/CPU measurements, which
    legitimately vary between runs/workers."""
    timing = (
        "wall_s",
        "events_per_sec",
        "cpu_s",
        "critical_path_s",
        "agg_events_per_sec",
    )
    return [
        {
            key: value
            for key, value in cell.items()
            if key not in timing
        }
        for cell in cells
    ]


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
    assert _strip_wall([bench.run_cell(spec)]) == _strip_wall(
        [bench.run_cell(spec)]
    )


def test_serial_equals_parallel():
    specs = _tiny_specs()
    serial = bench.run_grid(specs, workers=1)
    parallel = bench.run_grid(specs, workers=2)
    assert _strip_wall(serial) == _strip_wall(parallel)


def test_emit_and_load_json(tmp_path):
    results = [bench.run_cell(spec) for spec in _tiny_specs(seeds=(7,))]
    path = tmp_path / "BENCH_t.json"
    bench.emit_json(results, str(path), meta={"note": "test"})
    data = bench.load_json(str(path))
    assert data["meta"] == {"note": "test"}
    assert _strip_wall(data["cells"]) == _strip_wall(results)
    # cells carry the scheduling-cost attribution counters
    cell = data["cells"][0]
    for key in (
        "throughput",
        "mean_response_time",
        "wall_s",
        "events_per_sec",
        "scheme_steps",
        "graph_ops",
        "dfs_steps_avoided",
        "wake_retries_skipped",
    ):
        assert key in cell
    # and the file is valid, pretty-printed JSON
    assert json.loads(path.read_text())["cells"]


def _cell(scheme="scheme3", mpl=16, seed=7, tput=10.0, **extra):
    return {
        "experiment": "E4",
        "scheme": scheme,
        "mpl": mpl,
        "seed": seed,
        "throughput": tput,
        **extra,
    }


def test_check_regression_passes_within_threshold():
    baseline = [_cell(tput=10.0)]
    current = [_cell(tput=8.5)]  # -15% > threshold floor of -20%
    assert bench.check_regression(current, baseline, threshold=0.2) == []


def test_check_regression_fails_on_drop():
    baseline = [_cell(tput=10.0)]
    current = [_cell(tput=7.9)]  # -21%
    failures = bench.check_regression(current, baseline, threshold=0.2)
    assert len(failures) == 1
    assert "seed=7" in failures[0]


def test_check_regression_ignores_other_cells():
    baseline = [_cell(tput=10.0)]
    current = [
        _cell(tput=10.0),
        _cell(seed=9, tput=1.0),  # not in the baseline: skipped
        _cell(mpl=4, tput=1.0),  # wrong mpl: not gated
    ]
    assert bench.check_regression(current, baseline) == []


def test_check_regression_skips_historical_legacy_baseline_cells():
    """BENCH_3.json pairs every cell with a ``fast_paths: false`` twin
    recorded on the deleted legacy algorithms; the twins share the whole
    cell key, and must neither shadow the real baseline cell (whichever
    comes first in the file) nor count as a comparable cell."""
    kept = _cell(tput=10.0, fast_paths=True)
    twin = _cell(tput=100.0, fast_paths=False)
    current = [_cell(tput=9.0)]
    assert bench.check_regression(current, [kept, twin]) == []
    assert bench.check_regression(current, [twin, kept]) == []
    failures = bench.check_regression(current, [twin])
    assert failures and "no comparable" in failures[0]


def test_check_regression_no_comparable_cells_is_a_failure():
    failures = bench.check_regression(
        [_cell(scheme="scheme2")], [_cell(seed=99)]
    )
    assert failures and "no comparable" in failures[0]


def test_check_regression_gates_every_requested_scheme():
    baseline = [_cell(scheme="scheme2", tput=10.0), _cell(tput=10.0)]
    current = [_cell(scheme="scheme2", tput=7.9), _cell(tput=10.0)]
    failures = bench.check_regression(
        current, baseline, threshold=0.2, schemes=("scheme2", "scheme3")
    )
    assert len(failures) == 1 and "scheme2" in failures[0]
    # a gated scheme missing from either run fails loudly, even when
    # the other schemes compare fine
    failures = bench.check_regression(
        current,
        [_cell(tput=10.0)],
        schemes=("scheme2", "scheme3"),
    )
    assert any(
        "no comparable" in line and "scheme2" in line for line in failures
    )


def _e14_cell(scheme, mpl=32, seed=7, wait=10.0, rate=100.0):
    return {
        "experiment": "E14",
        "scheme": scheme,
        "mpl": mpl,
        "seed": seed,
        "mean_wait_set": wait,
        "events_per_sec": rate,
        "agg_events_per_sec": rate,
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
    # WAIT-set-only gate (the CI mode) passes; the trajectory-recording
    # gate also demands the throughput win
    assert bench.check_dominance(cells) == []
    failures = bench.check_dominance(cells, require_events_per_sec=True)
    assert failures and "events/sec below" in failures[0]


def test_committed_trajectory_is_self_consistent():
    """The committed BENCH_3.json gates against itself, and its
    historical before-column (``fast_paths: false``, the deleted legacy
    algorithms) agrees with the after-column on behaviour."""
    data = bench.load_json("BENCH_3.json")
    cells = data["cells"]
    assert bench.check_regression(cells, cells) == []
    paired = {}
    for cell in cells:
        key = (cell["experiment"], cell["scheme"], cell["mpl"], cell["seed"])
        paired.setdefault(key, {})[cell["fast_paths"]] = cell
    assert paired, "trajectory file has no cells"
    for key, pair in paired.items():
        assert set(pair) == {True, False}, f"{key} missing a column"
        for field in ("throughput", "mean_response_time", "committed",
                      "duration", "events"):
            assert pair[True][field] == pair[False][field], (key, field)
