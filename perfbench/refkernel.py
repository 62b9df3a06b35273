"""Fixed pure-Python reference kernel: the benchmark's host-speed probe.

It imports nothing from ``repro`` and its work never changes, so its
run time moves only with the host: CPU frequency, cache pressure and
neighbouring load.  It exercises the interpreter paths the event loop
lives on -- ``heapq`` pushes and pops of tuples, dict lookups and
attribute updates on small slotted objects -- because an arithmetic-only
kernel tracked the machine's own slowdowns poorly (see README.md).
"""

from __future__ import annotations

import gc
import heapq
import time

#: reference-kernel time, in seconds, of the nominal host.  Compensated
#: timings are wall times rescaled to this host speed; the constant is
#: fixed so that numbers from different runs and commits stay comparable.
R_NOMINAL = 0.0080
#: how strongly op times follow the kernel: when the host slows the
#: kernel by a factor s, ops slow by about s ** ELASTICITY.  Per-run
#: regressions on the build box gave 0.75-0.90 (figs_sim), 0.63-0.81
#: (figs_turbo) and 1.05 (parallel_ckpt); README.md, "Calibration".
ELASTICITY = 0.9

_CELLS = 96
_EVENTS = 12_000


class _Cell:
    __slots__ = ("cid", "fired", "acc", "dests")

    def __init__(self, cid: int) -> None:
        self.cid = cid
        self.fired = 0
        self.acc = cid
        self.dests = ((cid * 7 + 1) % _CELLS, (cid * 13 + 5) % _CELLS)


def _kernel() -> int:
    cells: dict[int, _Cell] = {}
    heap: list[tuple[int, int, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for c in range(32):
        push(heap, (c, c, c, c))
    seq = 32
    done = 0
    while done < _EVENTS:
        t, _s, cid, value = pop(heap)
        cell = cells.get(cid)
        if cell is None:
            cell = cells[cid] = _Cell(cid)
        cell.fired += 1
        cell.acc = (cell.acc * 31 + value) & 0xFFFF
        dst = cell.dests[cell.fired & 1]
        seq += 1
        push(heap, (t + 1 + (cell.acc & 3), seq, dst, cell.acc))
        done += 1
    return sum(c.acc for c in cells.values())


#: the kernel's result, checked on every call so the work cannot change
#: silently
_EXPECTED = _kernel()


def reference_seconds() -> float:
    """Time one kernel call, with the garbage collector paused so that
    collections owed by the workload never land in the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = _kernel()
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError("reference kernel result changed")
    return elapsed


def scale(ref_seconds: float) -> float:
    """Factor that turns a wall time measured next to a kernel call of
    ``ref_seconds`` into a time at the nominal host speed."""
    return (R_NOMINAL / ref_seconds) ** ELASTICITY
