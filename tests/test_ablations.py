"""Ablation tests: each scheme without its load-bearing mechanism must
break serializability on *some* trace — demonstrating that the paper's
machinery is necessary, not incidental.  The mutants live in
``tests/support.py``, each overriding one method of the shipped scheme:
``UnmarkedScheme1`` (marking, Theorem 3), ``UneliminatedScheme2``
(Eliminate_Cycles, Theorem 5), ``NonTransitiveScheme3`` (the Set_2
transitive update, Theorem 8) and ``NaiveDeletionSiteGraph`` (the delete
queues that repair [BS88]).

The trace driver raises :class:`SchedulerError` when a scheme produces a
non-serializable ``ser(S)``, so "broken somewhere" means at least one
seed raises while the sound variant never does.
"""

from repro.baselines import SiteGraphScheme
from repro.core import Scheme1, Scheme2, Scheme3
from repro.exceptions import SchedulerError
from repro.workloads.traces import drive, random_trace
from tests.support import (
    NaiveDeletionSiteGraph,
    NonTransitiveScheme3,
    UneliminatedScheme2,
    UnmarkedScheme1,
)

SEEDS = range(60)


def broken_seed_count(factory):
    broken = 0
    for seed in SEEDS:
        trace = random_trace(20, 3, 2, seed=seed)
        try:
            drive(factory(), trace)
        except SchedulerError:
            broken += 1
    return broken


class TestScheme1Marking:
    def test_no_marking_is_unsound(self):
        assert broken_seed_count(UnmarkedScheme1) > 0

    def test_with_marking_is_sound(self):
        assert broken_seed_count(Scheme1) == 0


class TestScheme2Elimination:
    def test_no_elimination_is_unsound(self):
        assert broken_seed_count(UneliminatedScheme2) > 0

    def test_with_elimination_is_sound(self):
        assert broken_seed_count(Scheme2) == 0


class TestScheme3TransitiveUpdate:
    def test_no_transitive_update_is_unsound(self):
        assert broken_seed_count(NonTransitiveScheme3) > 0

    def test_with_transitive_update_is_sound(self):
        assert broken_seed_count(Scheme3) == 0


class TestSiteGraphDeletion:
    def test_naive_deletion_is_unsound(self):
        assert broken_seed_count(NaiveDeletionSiteGraph) > 0

    def test_sound_deletion_is_sound(self):
        assert broken_seed_count(SiteGraphScheme) == 0
