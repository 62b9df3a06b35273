"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions of the ``repro`` modules named in
:data:`LAYER_HOOKS` with timing shims.  Each call becomes a span (name,
start, end, parent span, op index) held in memory; nothing is written
until :meth:`Tracer.dump` at the end of a run.  The shims are installed
and removed per op, so untraced ops run the program's own functions.

A span's *self* time is its duration minus the durations of its direct
children, so nested layers (``verify_chain`` inside ``load_machine``,
``validate`` inside ``Machine.__init__``) are never counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Any, Callable, Iterator

#: (module, attribute path, span name).  A module-level function is
#: wrapped where its *caller* looks it up: ``compile_program`` imports
#: ``parse_program`` into ``repro.compiler.pipeline``, the checkpoint
#: manager imports the snapshot writers into ``repro.checkpoint.manager``,
#: and so on.  Methods are wrapped on the defining class, so subclasses
#: (``TurboMachine``, ``ShardMachine``) reach the shim through ``super()``.
LAYER_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("repro.compiler.pipeline", "parse_program", "val.parse"),
    ("repro.compiler.pipeline", "check_program", "val.typecheck"),
    ("repro.compiler.pipeline", "link_program", "compiler.link"),
    ("repro.compiler.pipeline", "balance_graph", "compiler.balance"),
    ("repro.compiler.pipeline", "validate", "graph.validate"),
    ("repro.machine.machine", "validate", "graph.validate"),
    ("repro.machine.machine", "Machine.__init__", "machine.init"),
    ("repro.machine.machine", "Machine.run", "machine.run"),
    ("repro.sim.sync", "SyncSimulator.run", "sim.sync_run"),
    ("repro.backends.compiled", "analyze_schedule", "compiled.analyze"),
    ("repro.compiler.schedule", "StreamEvaluator.run", "compiled.evaluate"),
    ("repro.checkpoint.manager", "write_chain_snapshot", "checkpoint.write"),
    ("repro.checkpoint.manager", "save_snapshot", "checkpoint.write"),
    ("repro.checkpoint.snapshot", "verify_chain", "checkpoint.verify"),
    ("repro.checkpoint.snapshot", "load_machine", "checkpoint.load"),
    ("repro.machine.sharded", "partition_graph", "sharded.partition"),
    ("repro.machine.sharded", "ShardedRunner.__init__", "sharded.init"),
    ("repro.machine.sharded", "ShardedRunner.run", "sharded.run"),
)


class Tracer:
    """In-memory span recorder with installable function shims."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, op index]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._shims: list[tuple[Any, str, Any]] = []
        #: op index -> (first, end) slice of :attr:`spans`
        self._ranges: dict[int, tuple[int, int]] = {}
        self.op_index = -1
        for module_name, path, span in LAYER_HOOKS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._shims.append((owner, attr, self._shim(original, span)))
            self._patches.append((owner, attr, original))

    def _shim(self, fn: Callable, name: str) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def shim(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(
                [name, clock(), 0, stack[-1] if stack else -1, self.op_index]
            )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        shim.__wrapped__ = fn
        return shim

    @contextlib.contextmanager
    def op(self, index: int) -> Iterator[None]:
        """Trace one op: shims are live only inside this block."""
        self.op_index = index
        first = len(self.spans)
        for owner, attr, shim in self._shims:
            setattr(owner, attr, shim)
        try:
            yield
        finally:
            for owner, attr, original in self._patches:
                setattr(owner, attr, original)
            self.op_index = -1
            self._ranges[index] = (first, len(self.spans))

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A span around a step of the benchmark's own op code (for
        example the resumed run), so its layer calls nest under it."""
        if self.op_index < 0:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter_ns(), 0, parent, self.op_index]
        )
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def op_summary(self, index: int) -> dict[str, dict[str, float]]:
        """Per span name for one op: ``self`` and ``total`` seconds,
        ``calls``; plus ``"<root>"`` holding the summed duration of the
        op's top-level spans (the attributed part of the op)."""
        out: dict[str, dict[str, float]] = {}
        child_ns: dict[int, int] = {}
        first, stop = self._ranges[index]
        mine = list(enumerate(self.spans[first:stop], start=first))
        for i, (_name, start, end, parent, _op) in mine:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        root = 0
        for i, (name, start, end, parent, _op) in mine:
            entry = out.setdefault(
                name, {"self": 0.0, "total": 0.0, "calls": 0}
            )
            entry["self"] += (end - start - child_ns.get(i, 0)) / 1e9
            entry["total"] += (end - start) / 1e9
            entry["calls"] += 1
            if parent < 0:
                root += end - start
        out["<root>"] = {"self": root / 1e9, "total": root / 1e9, "calls": 0}
        return out

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write every recorded span once, at the end of the run."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
