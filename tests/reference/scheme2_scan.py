"""Scheme 2 with the full ``cond_ser`` scan (paper §6).

``Scheme2.cond_ser`` resumes a blocked ser-operation's scan at the
dependency it last stopped at.  This subclass overrides only that
method with the scan the paper's ``cond`` performs: the incoming
dependencies from the front, in insertion order, one
``metrics.step()`` per dependency examined, until one from an
unacknowledged ser-operation at the same site.  It never reads the
resume cache, so it is an independent oracle for the decisions and the
step charges.
"""

from repro.core.events import Ser
from repro.core.scheme2 import Scheme2


class ScanScheme2(Scheme2):
    def cond_ser(self, operation: Ser) -> bool:
        transaction_id, site = operation.transaction_id, operation.site
        acked = self._acked.get(site, ())
        for before, dep_site, _after in self.tsgd.incoming_dependencies(
            transaction_id
        ):
            self.metrics.step()
            if dep_site == site and before not in acked:
                return False
        return True
