"""The paper's literal algorithms, kept as differential oracles.

``src/`` holds one implementation of each structure — the incremental
one.  The algorithms as the paper states them (Figure 4's
``Eliminate_Cycles`` walk, Scheme 2's from-the-front ``cond_ser`` scan,
Scheme 3's all-transactions ``ser_bef`` scans, SGT's
restart-from-the-requester cycle search) live here, written against the
public inspection API or as subclasses overriding only the scanned
methods; ``tests/test_fastpath_equivalence.py`` checks the production
structures against them decision for decision.  Beside the walk,
``eliminate_cycles`` keeps the set-based segment worklist the bitset
closure replaced, as the oracle for the steps it charges.
``lock_table_scan`` keeps the whole-table scans of the 2PL lock manager
and the whole-history scan of ``HistoryLog.outcome_of`` that the wait
index and the outcome map replaced (``tests/test_lock_manager.py``,
``tests/test_misc_surfaces.py``).  ``ser_all_pairs`` keeps ser(S)'s
serialization graph with an edge per same-site pair, and ``verify_scan``
the three-pass ``verify`` over graphs built pair by pair with
list-membership ``transaction_ids``, which the per-site chains and the
one-pass ``verify`` replaced (``tests/test_end_of_run_checks.py``).
``export_by_hand`` keeps the registry adapters that named every metric
of every stats class, which ``repro.observability.export.publish``
replaced (``tests/test_observability.py``).  ``full_rescan`` strips a
scheme of its wake and purge hints, so the engine re-examines all of
WAIT after every action as Figure 3 does
(``tests/test_engine_differential.py``).  ``serialization_functions``
keeps the §2.2 functions no protocol declares — 2PL's lock point and
conservative TO's first operation — which the fidelity tests validate
beside the declared ones.
Nothing under ``src/`` imports this package.
"""
