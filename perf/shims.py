"""Timing shims: spans recorded from outside, around the layers' public
callables, for the traced sweep only.

``TARGETS`` names each callable as ``"module:attr"`` or
``"module:Class.method"`` (``Class.*`` = every public method the class
defines).  Targets resolve lazily at install time; one that no longer
exists is reported in :attr:`Recorder.missing` and its layer's metrics
come out ``None`` — the run never fails because a class was renamed.

A module-level function is patched in *every* loaded ``repro`` module
whose globals hold the same object, because callers bind it with
``from x import f`` and resolve their own name, not ``x.f``.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, target).  The layer is the span name, unless ``NAMERS`` refines
#: it per call.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("transport.build", "repro.transport.base:build_simulator"),
    # run_shard's self time is the extraction glue around the simulation:
    # report assembly, schedule tuples, the outcome record
    ("transport.extract", "repro.transport.base:run_shard"),
    ("transport.extract", "repro.mdbs.simulator:MDBSSimulator.global_schedule"),
    ("transport.merge", "repro.transport.base:merge_outcomes"),
    ("transport.split", "repro.transport.base:shard_jobs"),
    ("mdbs.events", "repro.mdbs.events:EventLoop.run"),
    ("mdbs.server", "repro.mdbs.server:Server.submit"),
    ("mdbs.server", "repro.mdbs.server:ResilientServer.submit"),
    ("core.gtm.site_components", "repro.core.gtm:site_components"),
    ("core.engine", "repro.core.engine:Engine.run"),
    ("core.engine", "repro.core.engine:Engine.purge_transaction"),
    ("core.scheme.cond", "repro.core.scheme:ConservativeScheme.cond"),
    ("core.scheme.act", "repro.core.scheme:ConservativeScheme.act"),
    ("lmdbs", "repro.lmdbs.database:LocalDBMS.submit"),
    ("lmdbs", "repro.lmdbs.database:LocalDBMS.abort_transaction"),
    ("commit", "repro.commit.coordinator:TwoPhaseCoordinator.*"),
    ("commit", "repro.commit.participant:CommitParticipant.*"),
    ("commit", "repro.commit.group:CoordinatorGroup.*"),
    ("core.recovery", "repro.core.recovery:recover_engine"),
    ("mdbs.verification", "repro.mdbs.verification:verify"),
    ("mdbs.verification", "repro.mdbs.verification:check_exactly_once"),
    ("mdbs.verification", "repro.mdbs.verification:check_atomicity"),
    ("mdbs.verification", "repro.mdbs.verification:check_decision_uniqueness"),
    ("observability", "repro.observability.export:report_to_registry"),
    ("observability", "repro.observability.registry:MetricsRegistry.snapshot"),
    ("observability", "repro.observability.registry:MetricsRegistry.from_snapshot"),
    ("observability", "repro.observability.registry:merged"),
)

#: layer -> span name from the bound instance: one span name per local
#: protocol, so ``lmdbs`` splits by protocol
NAMERS: Dict[str, Callable[[Any], str]] = {
    "lmdbs": lambda db: f"lmdbs.{db.protocol.name}",
}

#: instances whose counters the layer metrics read after a job:
#: capture-name -> "module:Class" (the shim sits on ``__init__``)
CAPTURES: Tuple[Tuple[str, str], ...] = (
    ("schemes", "repro.core.scheme:ConservativeScheme"),
    ("sites", "repro.lmdbs.database:LocalDBMS"),
)

#: span: (layer, start, end, parent's index or -1, job label)
Span = Tuple[str, float, float, int, str]


class Recorder:
    """Holds the spans of one traced sweep and owns the installed shims.

    A shim's cost is paid on every call of the hottest functions in the
    program, so it appends four scalars to one flat list — layer id,
    depth, start, end — when the call returns; :meth:`finish` rebuilds
    parents and job labels afterwards."""

    def __init__(self, targets: Tuple[Tuple[str, str], ...] = TARGETS) -> None:
        self.targets = targets
        #: layers none of whose targets resolved (``capture:<name>`` for
        #: a capture), and one line per unresolved target
        self.missing: List[str] = []
        self.warnings: List[str] = []
        #: capture-name -> instances built since the last :meth:`begin_job`
        self.captured: Dict[str, List[Any]] = {}
        #: calls of ``core.scheme.cond`` that returned true
        self.granted = 0
        self._flat: List[Any] = []
        self._depth = [0]
        self._layers: Dict[str, int] = {}
        #: (offset into the flat list, job label), in order
        self._jobs: List[Tuple[int, str]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def begin_job(self, label: str) -> None:
        self._jobs.append((len(self._flat), label))
        self.captured = {name: [] for name, _ in CAPTURES}

    def span(self, layer: str, call: Callable[[], Any]) -> Any:
        """Run *call* inside a span (the harness's own job-root spans)."""
        return self._wrap(layer, call)()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        extend, depth, layers = self._flat.extend, self._depth, self._layers
        layer_id = layers.setdefault(layer, len(layers))
        namer = NAMERS.get(layer)

        counts_true = layer == "core.scheme.cond"

        def shim(*args: Any, **kwargs: Any) -> Any:
            level = depth[0]
            depth[0] = level + 1
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                depth[0] = level
                if namer is None:
                    extend((layer_id, level, started, ended))
                else:
                    name = namer(args[0])
                    extend((layers.setdefault(name, len(layers)), level, started, ended))
            if counts_true and result:
                self.granted += 1
            return result

        return shim

    def finish(self) -> List[Span]:
        """The recorded spans, in completion order (a parent follows its
        children), each with its parent's index and its job's label."""
        names = {index: name for name, index in self._layers.items()}
        flat, jobs = self._flat, self._jobs
        spans: List[Span] = []
        parents: List[int] = []
        #: per depth, finished spans still waiting for their parent
        orphans: Dict[int, List[int]] = {}
        job = 0
        for offset in range(0, len(flat), 4):
            while job + 1 < len(jobs) and jobs[job + 1][0] <= offset:
                job += 1
            layer_id, level, started, ended = flat[offset : offset + 4]
            index = len(spans)
            for child in orphans.pop(level + 1, ()):
                parents[child] = index
            orphans.setdefault(level, []).append(index)
            parents.append(-1)
            spans.append((names[layer_id], started, ended, -1, jobs[job][1]))
        return [
            (layer, started, ended, parent, label)
            for (layer, started, ended, _, label), parent in zip(spans, parents)
        ]

    def _capture(self, name: str, init: Callable) -> Callable:
        def shim(instance: Any, *args: Any, **kwargs: Any) -> None:
            init(instance, *args, **kwargs)
            self.captured[name].append(instance)

        return shim

    # -- install / remove ----------------------------------------------
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        resolved = set()
        for layer, target in self.targets:
            module_name, _, path = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner_name, _, method = path.partition(".")
                owner = getattr(module, owner_name)
                if not method:
                    self._patch_function(layer, owner)
                    resolved.add(layer)
                    continue
                names = (
                    [
                        name
                        for name, value in vars(owner).items()
                        if not name.startswith("_") and callable(value)
                    ]
                    if method == "*"
                    else [method]
                )
                for name in names:
                    raw = vars(owner)[name]
                    if isinstance(raw, (classmethod, staticmethod)):
                        shim = type(raw)(self._wrap(layer, raw.__func__))
                    else:
                        shim = self._wrap(layer, raw)
                    self._patch(owner, name, shim)
                resolved.add(layer)
            except (ImportError, AttributeError, KeyError):
                self.warnings.append(f"shim target {target} not found")
        self.missing = sorted({layer for layer, _ in self.targets} - resolved)
        for name, target in CAPTURES:
            module_name, _, class_name = target.partition(":")
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
                self._patch(owner, "__init__", self._capture(name, vars(owner)["__init__"]))
            except (ImportError, AttributeError, KeyError):
                self.warnings.append(f"capture target {target} not found")
                self.missing.append(f"capture:{name}")

    def _patch_function(self, layer: Any, function: Any) -> None:
        shim = self._wrap(layer, function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._patch(module, name, shim)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()


def self_times(spans: List[Span]) -> List[float]:
    """A span's self time: its duration minus its direct children's."""
    own = [end - start for _layer, start, end, _parent, _job in spans]
    for _layer, start, end, parent, _job in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
