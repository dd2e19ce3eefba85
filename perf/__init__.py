"""Wall-clock and work-count benchmark of the whole system, attributed by
layer (see ``perf/README.md``).

``perf`` measures ``repro`` from outside: it imports the public entry
points, times calls into them, and installs removable timing shims around
the layers' public callables for the traced sweep only.  Nothing under
``src/`` knows this package exists.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout this package sits in
ROOT = Path(__file__).resolve().parent.parent


def locate_program() -> None:
    """Put the checkout's own ``src/`` first on ``sys.path``, so the
    benchmark measures the source beside it and never an installed copy.
    Raises ``SystemExit`` (non-zero, nothing printed on stdout) when the
    program is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perf: no program to measure under {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
