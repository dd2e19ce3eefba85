"""Render one transaction's causal chain from a recorded trace.

The ``repro trace --explain <gtid>`` backend: given the spans of a run,
produce a human-readable WAIT/GRANT narrative for a single global
transaction, naming the exact blocking constraint for every wait — the
TSGD dependency edge (scheme 2), the ser_bef/set_k constraint or
one-outstanding rule (scheme 3), the FIFO queue front (scheme 0), or
the marked insert/delete queue (scheme 1).
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from repro.observability.tracer import Span


def format_cause(cause: Optional[Mapping[str, Any]]) -> str:
    """One line naming the blocking constraint recorded on a WAIT span."""
    if not cause:
        return "cause unknown (scheme reported no blocking constraint)"
    kind = cause.get("type")
    site = cause.get("site")
    blocking = cause.get("blocking")
    if kind == "tsgd-dependency":
        return (
            f"blocked by TSGD edge {blocking} -[{site}]-> {cause.get('after')}"
            f" (ser_{site}({blocking}) not yet acknowledged)"
        )
    if kind == "tsgd-fin-dependency":
        return (
            f"fin held back: incoming TSGD edge {blocking} -[{site}]-> "
            f"{cause.get('after')} still present"
        )
    if kind == "ser-bef":
        return (
            f"blocked by ser_bef constraint: {blocking} in "
            f"ser_bef({cause.get('after')}) and {blocking} in set_{site}"
        )
    if kind == "ser-bef-nonempty":
        remaining = cause.get("remaining")
        return f"fin held back: ser_bef still contains {remaining}"
    if kind == "one-outstanding":
        return (
            f"blocked by one-outstanding rule at {site}: "
            f"ser_{site}({blocking}) submitted but not yet acknowledged"
        )
    if kind == "fifo-front":
        return f"blocked behind FIFO queue front {blocking} at {site}"
    if kind == "marked-insert-queue":
        return (
            f"blocked in marked insert queue at {site}: "
            f"{blocking} is ahead and unserviced"
        )
    if kind == "delete-queue":
        return (
            f"fin held back by delete queue at {site}: "
            f"{blocking} must finish first"
        )
    if kind == "batch-plan-order":
        return (
            f"blocked by batch plan (batch {cause.get('batch')}): "
            f"{blocking} precedes {cause.get('after')} in the planned "
            f"chain at {site} and is not yet acknowledged"
        )
    if kind == "batch-open":
        return (
            f"blocked awaiting batch seal: {cause.get('after')} is "
            f"admitted but its site component's batch at {site} has "
            f"not been planned yet"
        )
    parts = ", ".join(f"{key}={value!r}" for key, value in sorted(cause.items()))
    return f"blocked ({parts})"


_EVENT_LINES = {
    "gtm.init": "submitted to GTM2 (init)",
    "gtm.ser": "ser({site}) processed by GTM2",
    "gtm.ack": "ack({site}) received from site",
    "gtm.fin": "fin processed: transaction finished at GTM2",
    "gtm.purge": "purged from GTM2 (abort path)",
    "site.submit": "ser-op forwarded to site {site}",
}


def _stamp(span: Span) -> str:
    # spans are stamped with the tracer's event counter: whole numbers
    return f"t={int(span.start)}"


def _line_for(span: Span) -> Optional[str]:
    name = span.name
    if name == "txn":
        return None
    if name == "gtm.wait":
        where = "" if span.site is None else f" at {span.site}"
        line = (
            f"WAIT on {span.attrs.get('kind', 'op')}{where}: "
            + format_cause(span.cause)
        )
        if span.end is None:
            return line + " (still waiting at end of run)"
        waited = span.attrs.get("waited")
        if waited is not None:
            line += f" (waited {waited} steps)"
        return line + f"; GRANT at t={int(span.end)}"
    template = _EVENT_LINES.get(name)
    if template is None:
        detail = ""
        if span.attrs:
            detail = " " + ", ".join(
                f"{key}={value!r}" for key, value in sorted(span.attrs.items())
            )
        return f"{name}{detail}"
    return template.format(site=span.site)


def explain_transaction(spans: Sequence[Span], txn: str) -> str:
    """The causal chain of one global transaction, one line per span."""
    own = [span for span in spans if span.txn == txn]
    if not own:
        known = sorted({span.txn for span in spans if span.txn is not None})
        listing = ", ".join(known) if known else "(none)"
        return f"no trace recorded for {txn}; traced transactions: {listing}"
    lines: List[str] = [f"causal chain for {txn}:"]
    for span in own:
        rendered = _line_for(span)
        if rendered is not None:
            lines.append(f"  {_stamp(span)} {rendered}")
    return "\n".join(lines)
