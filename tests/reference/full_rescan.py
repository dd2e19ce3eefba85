"""Figure 3's literal WAIT re-examination: a full rescan after every
action and every purge.

The engine re-examines only what a scheme's ``wake_hints`` /
``purge_hints`` name, and rescans all of WAIT when a hook returns
``None`` (the ``ConservativeScheme`` default).  Shadowing both on a
scheme *instance* therefore replays the paper's semantics without a knob
in the engine.
"""


def without_hints(scheme):
    """*scheme*, with its wake and purge hints shadowed by ``None``."""
    scheme.wake_hints = scheme.purge_hints = lambda _: None
    return scheme
