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
beside the declared ones, and the validation itself (``image``,
``is_valid_for``).  ``eliminate_cycles`` also holds the paper's Δ
minimality (``is_minimal_delta``, ``tests/test_tsgd.py``).

The schedule theory the runtime does not call is kept here too, as the
textbook the tests check the runtime against:

- ``serializability`` — conflict pairs by an all-pairs scan, conflict
  equivalence, serial schedules, every serial order a schedule is
  equivalent to, and view serializability
  (``tests/test_conflicts_csr.py``, ``tests/test_property_based.py``,
  and the bucketed scan of ``serialization_graph`` in
  ``tests/test_fastpath_equivalence.py``);
- ``recoverability`` — the RC ⊇ ACA ⊇ ST classes each local protocol's
  histories must fall in (``tests/test_recoverability.py``,
  ``tests/test_protocol_properties.py``);
- ``theorems`` — ``ser(S)`` built from serialization-function images,
  Theorem 1's order condition and Theorem 2's implication on concrete
  data (``tests/test_global_schedule.py``, ``tests/test_integration.py``,
  ``tests/test_end_of_run_checks.py``).

Test-only builders and fixtures that are not oracles (schedule notation,
the transaction object, fault plans from mappings, readers of private
state) are in ``tests/support.py``.  Nothing under ``src/`` imports
``tests``; ``tests/test_layering.py`` checks it, and fails on a
``src/`` definition that nothing under ``src/`` calls unless it names
the outside code that does.
"""
