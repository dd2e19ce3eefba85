"""E13 — non-blocking atomic commit: the coordinator group head-to-head.

The acceptance scenario of the multi-shot commit layer
(``repro.commit.group``), declared once as the E13 cells (the grid of
BENCH_7.json): a coordinator(-replica) crash lands in the window between
the participants' YES votes and the decision broadcast, plus a
vote/decision partition that strands the acting leader and the GTM on
the minority side.  Group size 1 (``mpl`` 1) is the blocking
single-coordinator baseline — its in-doubt windows run until the lone
decision-log replica comes back.  Group size 3 (2f+1, f=1) terminates
every in-doubt participant through the surviving quorum: a takeover
round adopts the quorum-logged decision (or presumes abort for votes
that never reached a quorum), so the worst in-doubt window collapses
from "until restart" to protocol timescales.

Safety is asserted from ground truth inside every cell: zero atomicity
violations and a unique decision per incarnation across all replicas
(``check_decision_uniqueness``); a cell that fails either raises.
"""

from repro.analysis.bench import E13_DOWNTIME

#: global transactions per chaos storm
GLOBALS = 8


def test_bench_commit_group_head_to_head(declared):
    cells = declared("E13")
    # certainty still costs nothing in committed transactions
    assert all(cell["committed"] == GLOBALS for cell in cells)
    worst = {
        size: max(cell["indoubt_max"] for cell in cells if cell["mpl"] == size)
        for size in (1, 3)
    }
    # the tentpole claim: with 2f+1 replicas the in-doubt window no
    # longer tracks the crashed coordinator's downtime
    assert worst[3] < worst[1]
    assert worst[1] >= E13_DOWNTIME  # baseline blocks until restart
