"""Baseline GTM2 schemes: the prior ad-hoc approaches the paper cites
([BS88] site graph, [GRS91] optimistic ticket method) and the classical
abort-based schemes §3 argues against (2PL/TO/optimistic over ser(S))."""

from repro.baselines.nonconservative import (
    OptimisticGTM,
    TimestampGTM,
    TwoPhaseLockingGTM,
)
from repro.baselines.site_graph import SiteGraphScheme
from repro.baselines.ticket_otm import OptimisticTicketMethod

#: Registry of baseline schemes by name.
BASELINES = {
    "site-graph": SiteGraphScheme,
    "otm": OptimisticTicketMethod,
    "to-gtm": TimestampGTM,
    "2pl-gtm": TwoPhaseLockingGTM,
    "optimistic-gtm": OptimisticGTM,
}


__all__ = [
    "OptimisticGTM",
    "TimestampGTM",
    "TwoPhaseLockingGTM",
    "SiteGraphScheme",
    "OptimisticTicketMethod",
    "BASELINES",
]
