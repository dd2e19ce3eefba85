"""Scheme 2-minimal — the intractable ideal the paper rules out.

Section 6 observes that Scheme 2 would impose *minimal* restrictions —
and hence maximal concurrency among TSGD-based BT-schemes — if
``Eliminate_Cycles`` returned a minimal Δ, but Theorem 7 shows computing
one is NP-complete.  This class realizes that ideal anyway, by exhaustive
search (:func:`repro.core.tsgd.minimum_delta`), so the trade-off can be
*measured*: benchmark E6c compares its waits and steps against Scheme 2's
polynomial heuristic.

Only suitable for small instances (the search is exponential in the
number of candidate dependencies); the constructor's ``max_candidates``
guard falls back to the heuristic when the search would explode, so the
scheme stays usable in mixed experiments.
"""

from __future__ import annotations

from typing import Set

from repro.core.scheme2 import Scheme2
from repro.core.tsgd import Dependency, candidate_dependencies, minimum_delta


class Scheme2Minimal(Scheme2):
    """Scheme 2 with exact minimum-Δ computation (exponential)."""

    name = "scheme2-minimal"

    def __init__(self, max_candidates: int = 12) -> None:
        super().__init__()
        self.max_candidates = max_candidates
        #: how often the exponential search ran vs fell back
        self.exact_runs = 0
        self.fallback_runs = 0

    def choose_delta(self, transaction_id: str) -> Set[Dependency]:
        candidates = candidate_dependencies(self.tsgd, transaction_id)
        if len(candidates) > self.max_candidates:
            self.fallback_runs += 1
            return super().choose_delta(transaction_id)
        self.exact_runs += 1
        delta, tested = minimum_delta(self.tsgd, transaction_id)
        # one step per candidate subset the search tested
        self.metrics.step(tested)
        return delta
