"""``python -m perf compare A.json B.json`` — one row per workload and
end-to-end metric, judged under the regression bounds of the README.

Both files come from ``python -m perf run`` with the same ``--seed``, so
an *exact* metric that moved beyond its bound really moved.  A wall-clock
metric is ``unresolved`` when either run was noisy (its
``harness.noise_ratio`` above 1.5) and the difference lies inside the
quartile spread of the rounds.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Tuple

#: metric -> (bound, kind): the share of the baseline by which the metric
#: may worsen ("rel"), or the absolute amount ("abs")
BOUNDS: Dict[str, Tuple[float, str]] = {
    "wall_us_per_commit": (0.15, "rel"),
    "pycalls_per_commit": (0.01, "rel"),
    "setup_s": (0.20, "rel"),
    "peak_rss_mb": (0.10, "rel"),
    "sim_commits_per_ktick": (0.01, "rel"),
    "sim_response_p50": (0.01, "rel"),
    "sim_response_p95": (0.01, "rel"),
    "sim_indoubt_max": (0.01, "rel"),
    "abort_ratio": (0.01, "abs"),
    "failed_share": (0.0, "abs"),
    "mean_wait_set": (0.01, "rel"),
}
NOISY = 1.5


def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def verdict(
    name: str, old: Dict[str, Any], new: Dict[str, Any], noisy: bool
) -> str:
    bound, kind = BOUNDS[name]
    before, after = old["value"], new["value"]
    # "worse by" is positive when the candidate is worse
    worse_by = after - before if old["better"] == "lower" else before - after
    allowed = bound * abs(before) if kind == "rel" else bound
    if abs(worse_by) <= allowed:
        return "same"
    if noisy and "q1" in old and "q1" in new:
        spread = max(old["q3"] - old["q1"], new["q3"] - new["q1"])
        if abs(new["median"] - old["median"]) <= spread:
            return "unresolved"
    return "worse" if worse_by > 0 else "better"


def compare(baseline_path: str, candidate_path: str) -> int:
    baseline, candidate = _load(baseline_path), _load(candidate_path)
    if baseline.get("quick"):
        sys.stderr.write("perf compare: a --quick result is not a baseline\n")
        return 2
    if candidate.get("quick") or baseline["seed"] != candidate["seed"]:
        sys.stderr.write(
            "perf compare: both results must be full runs of the same --seed\n"
        )
        return 2
    bad = 0
    print(f"{'workload':<11} {'metric':<24} {'baseline':>14} {'candidate':>14}  verdict")
    for workload, old_side in baseline["workloads"].items():
        new_side = candidate["workloads"].get(workload)
        if new_side is None:
            print(f"{workload:<11} missing from the candidate: worse")
            bad += 1
            continue
        noisy = any(
            (side["per_layer"]["harness.noise_ratio"]["value"] or 0) > NOISY
            for side in (old_side, new_side)
        )
        for name in BOUNDS:
            old = old_side["end_to_end"].get(name)
            new = new_side["end_to_end"].get(name)
            if old is None and new is None:
                continue  # not defined on this workload (sim_* without a clock)
            if old is None or new is None:
                result = "worse"
            else:
                result = verdict(name, old, new, noisy)
            if result == "worse":
                bad += 1
            shown = [
                "-" if side is None else f"{side['value']:.6g}" for side in (old, new)
            ]
            print(f"{workload:<11} {name:<24} {shown[0]:>14} {shown[1]:>14}  {result}")
    print("no metric is worse" if not bad else f"{bad} metric(s) worse")
    return 1 if bad else 0
