"""Drift-compensated end-to-end and per-layer benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload figs_sim --seed 1 --seconds 30 --trace 0

One closed-loop client issues ops of the chosen workload back to back for
``--seconds`` seconds and checks every op's outputs.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A readable summary goes to
standard error.

Every op is bracketed by two calls of a fixed reference kernel
(``refkernel.py``), and the op's wall time is scaled by
``(R_NOMINAL / geometric mean of the two kernel times) ** ELASTICITY``.  This removes most of the
host's speed drift while keeping the units in seconds at a nominal host
speed.  README.md explains the method and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import refkernel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: run outputs (snapshot directories, span dumps); ignored by git
OUT = os.path.join(ROOT, ".perfbench-out")

#: setup passes per run; ``setup_s`` reports their median
SETUP_PASSES = 3
#: untimed-for-latency ops run in each setup pass (caches, pools)
WARMUP_OPS = 2

END_TO_END = {
    "setup_s": "s",
    "elements_per_s": "1/s",
    "firings_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer time metrics: name -> (span name, "self" | "total")
SPAN_METRICS = {
    "val.parse_ms": ("val.parse", "self"),
    "val.typecheck_ms": ("val.typecheck", "self"),
    "compiler.link_ms": ("compiler.link", "self"),
    "compiler.balance_ms": ("compiler.balance", "self"),
    "graph.validate_ms": ("graph.validate", "self"),
    "machine.init_ms": ("machine.init", "self"),
    "machine.run_ms": ("machine.run", "self"),
    "sim.sync_run_ms": ("sim.sync_run", "self"),
    "compiled.analyze_ms": ("compiled.analyze", "self"),
    "compiled.evaluate_ms": ("compiled.evaluate", "self"),
    "checkpoint.write_ms": ("checkpoint.write", "self"),
    "checkpoint.verify_ms": ("checkpoint.verify", "self"),
    "checkpoint.load_ms": ("checkpoint.load", "self"),
    "checkpoint.replay_ms": ("checkpoint.replay", "total"),
    "sharded.partition_ms": ("sharded.partition", "self"),
    "sharded.init_ms": ("sharded.init", "self"),
    "sharded.run_ms": ("sharded.run", "self"),
}

#: per-layer counts taken from public stats and engine attributes
COUNT_METRICS = (
    "compiler.cells",
    "machine.firings",
    "machine.packets",
    "machine.cycles",
    "sim.sync_steps",
    "compiled.jumps",
    "compiled.fallbacks",
    "checkpoint.snapshots",
    "checkpoint.bytes",
    "checkpoint.delta_bytes",
    "sharded.windows",
    "sharded.cut_arcs",
    "sharded.worker_spawns",
    "sharded.worker_reuses",
)


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), ("_seconds", "s")):
        if name.endswith(suffix):
            return unit
    return {"machine.ns_per_firing": "ns", "host.ref_spread": "ratio"}.get(
        name, "count"
    )


def per_layer_names() -> list[str]:
    return [
        *SPAN_METRICS,
        "machine.ns_per_firing",
        *COUNT_METRICS,
        "checkpoint.stats_seconds",
        "sharded.timing_mismatch_ops",
        "host.ref_ms",
        "host.ref_spread",
        "bench.raw_op_p50_ms",
        "bench.trace_overhead_pct",
        "bench.unattributed_pct",
    ]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 \
        else values[0]


def _iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def _filesystem(path: str) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    best = ("", "unknown")
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) > 2 and path.startswith(fields[1]) and \
                        len(fields[1]) >= len(best[0]):
                    best = (fields[1], fields[2])
    except OSError:
        pass
    return f"{best[1]} at {best[0] or '?'}"


def check_pins(pins: dict, workload: str, seed: int,
               got: dict[str, dict]) -> tuple[list[str], list[str]]:
    """Compare modeled numbers with ``pins.json``.  Returns (failures,
    labels with no pin for this seed)."""
    table = pins["workloads"].get(workload, {})
    failures, unpinned = [], []
    for label, value in sorted(got.items()):
        entry = table.get(label)
        if entry is None:
            failures.append(f"pin {label}: missing from pins.json")
            continue
        want = entry["any"] if "any" in entry else \
            entry["per_seed"].get(str(seed))
        if want is None:
            unpinned.append(label)
        elif want != value:
            failures.append(f"pin {label}: modeled {value} != pinned {want}")
    return failures, unpinned


class Run:
    """One benchmark run: setup passes, then the timed closed loop."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.kernel = refkernel.reference_seconds
        before = self.kernel()
        t0 = time.perf_counter()
        import workloads
        from tracing import Tracer

        self.import_s = time.perf_counter() - t0
        self.import_comp = self.import_s * self.scale_since(before)
        self.args = args
        self.workloads = workloads
        self.tracer = Tracer() if args.trace else None
        self.setup_failures: list[str] = []
        self.unpinned: list[str] = []
        with open(os.path.join(HERE, "pins.json")) as fh:
            self.pins = json.load(fh)

    def scale_since(self, before: float) -> float:
        """Compensation for the interval since the kernel call that took
        ``before`` seconds: probe again and use the geometric mean."""
        return refkernel.scale(math.sqrt(before * self.kernel()))

    # -- setup -----------------------------------------------------------
    def setup(self, wl) -> float:
        """Run the setup passes; return compensated ``setup_s``."""
        passes = []
        for n in range(SETUP_PASSES):
            before = self.kernel()
            t0 = time.perf_counter()
            wl.setup()
            elapsed = time.perf_counter() - t0
            if n == 0:
                got = wl.prepare()
                failures, self.unpinned = check_pins(
                    self.pins, wl.name, self.args.seed, got
                )
                self.setup_failures += failures
            for _ in range(WARMUP_OPS):
                t0 = time.perf_counter()
                runs = wl.op()
                elapsed += time.perf_counter() - t0
                res = wl.check(runs)
                self.setup_failures += [f"warm-up: {f}" for f in res.failures]
            passes.append(elapsed * self.scale_since(before))
        self.setup_passes = passes
        return self.import_comp + statistics.median(passes)

    # -- timed loop ------------------------------------------------------
    def loop(self, wl) -> list[dict]:
        ops: list[dict] = []
        # set-up state is long-lived: keep it out of every collection
        gc.collect()
        gc.freeze()
        # peak_rss_mb covers the timed ops, not imports and set-up
        self.peak_rss_scope = "timed ops" if _reset_peak_rss() \
            else "whole process"
        deadline = time.perf_counter() + self.args.seconds
        while time.perf_counter() < deadline:
            index = len(ops)
            traced = self.tracer is not None and index % 2 == 1
            ctx = self.tracer.op(index) if traced else contextlib.nullcontext()
            # every op starts from the same heap state, so the
            # collections it triggers fall at the same points each time
            gc.collect()
            before = self.kernel()
            t0 = time.perf_counter()
            with ctx:
                runs = wl.op()
            wall = time.perf_counter() - t0
            # the host's speed during the op, probed right before and after
            scale = self.scale_since(before)
            res = wl.check(runs)
            wl.timed_check(res)
            ops.append({"wall": wall, "scale": scale, "res": res,
                        "traced": traced, "index": index})
        return ops

    # -- metrics ---------------------------------------------------------
    def end_to_end(self, ops: list[dict], setup_s: float) -> dict:
        comp = [o["wall"] * o["scale"] for o in ops]
        busy = sum(comp)
        return {
            "setup_s": setup_s,
            "elements_per_s": sum(o["res"].elements for o in ops) / busy,
            "firings_per_s": sum(o["res"].firings for o in ops) / busy,
            "op_p50_ms": statistics.median(comp) * 1e3,
            "op_p90_ms": _p90(comp) * 1e3,
            "peak_rss_mb": _peak_rss_mb(),
        }

    def per_layer(self, ops: list[dict]) -> dict:
        traced = [o for o in ops if o["traced"]]
        plain = [o for o in ops if not o["traced"]]
        if not traced or not plain:
            raise SystemExit("perfbench: --trace 1 needs at least two ops")
        rows = []
        for o in traced:
            summary = self.tracer.op_summary(o["index"])
            row = {}
            for metric, (span, kind) in SPAN_METRICS.items():
                row[metric] = summary.get(span, {}).get(kind, 0.0) \
                    * o["scale"] * 1e3
            counters = o["res"].counters
            for metric in COUNT_METRICS:
                row[metric] = counters.get(metric, 0)
            firings = counters.get("machine.firings", 0)
            row["machine.ns_per_firing"] = (
                row["machine.run_ms"] * 1e6 / firings if firings else 0.0
            )
            row["checkpoint.stats_seconds"] = (
                counters.get("checkpoint.stats_seconds", 0.0) * o["scale"]
            )
            row["bench.unattributed_pct"] = (
                100.0 * (1.0 - summary["<root>"]["total"] / o["wall"])
            )
            self._cross_check(o, summary)
            rows.append(row)
        metrics = {
            name: statistics.median(r[name] for r in rows) for name in rows[0]
        }
        refs = [refkernel.R_NOMINAL / o["scale"] for o in ops]
        traced_p50 = statistics.median(o["wall"] * o["scale"] for o in traced)
        plain_p50 = statistics.median(o["wall"] * o["scale"] for o in plain)
        metrics.update({
            "sharded.timing_mismatch_ops": sum(
                o["res"].flags.get("timing_mismatch", 0) for o in ops
            ),
            "host.ref_ms": statistics.median(refs) * 1e3,
            "host.ref_spread": _iqr_share(refs),
            "bench.raw_op_p50_ms": statistics.median(
                o["wall"] for o in plain
            ) * 1e3,
            "bench.trace_overhead_pct": 100.0 * (traced_p50 / plain_p50 - 1),
        })
        return {name: metrics[name] for name in per_layer_names()}

    @staticmethod
    def _cross_check(o: dict, summary: dict) -> None:
        """The checkpoint layer's own timer must agree with the spans
        around its writer calls (it times the same calls from inside)."""
        spent = o["res"].counters.get("checkpoint.stats_seconds")
        if spent is None:
            return
        spans = summary.get("checkpoint.write", {}).get("total", 0.0)
        if abs(spans - spent) > 0.25 * spent + 0.002:
            o["res"].failures.append(
                f"CheckpointStats.seconds_spent {spent:.4f}s disagrees with "
                f"checkpoint.write spans {spans:.4f}s"
            )


def _reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark (``VmHWM``) to the
    current resident set.  Linux only; returns whether it worked."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    """``VmHWM``: the resident-set high-water mark since the last reset,
    or ``ru_maxrss`` (since process start) where procfs is missing."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figs_sim", "figs_turbo", "parallel_ckpt",
                                 "sharded_inproc", "sharded_procs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(args)
    os.makedirs(OUT, exist_ok=True)
    with run.workloads.opened(args.workload, args.seed, run.tracer, OUT) as wl:
        setup_s = run.setup(wl)
        ops = run.loop(wl)
    if args.trace:
        metrics = run.per_layer(ops)
        units = {name: _unit(name) for name in metrics}
        run.tracer.dump(
            os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "metrics": metrics},
        )
    else:
        metrics = run.end_to_end(ops, setup_s)
        units = END_TO_END
    failed = [o for o in ops if o["res"].failures]
    _report(args, run, ops, failed, metrics, units)
    with open(os.path.join(
        OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ), "w") as fh:
        json.dump({
            "wall": [o["wall"] for o in ops],
            "scale": [o["scale"] for o in ops],
            "elements": [o["res"].elements for o in ops],
            "firings": [o["res"].firings for o in ops],
            "metrics": metrics,
            "import_s": run.import_s,
            "import_comp": run.import_comp,
            "setup_passes": run.setup_passes,
        }, fh)
    result = {
        "correct": not failed and not run.setup_failures,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _report(args, run, ops, failed, metrics, units) -> None:
    err = sys.stderr
    raw = [o["wall"] for o in ops]
    comp = [o["wall"] * o["scale"] for o in ops]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(ops)} ops sampled, {len(failed)} failed; raw p50 "
        f"{statistics.median(raw) * 1e3:.1f} ms (IQR/median "
        f"{_iqr_share(raw):.3f}), compensated p50 "
        f"{statistics.median(comp) * 1e3:.1f} ms (IQR/median "
        f"{_iqr_share(comp):.3f}); snapshots/spans under "
        f"{_filesystem(OUT)}; peak RSS over {run.peak_rss_scope}",
        file=err,
    )
    mism = sum(o["res"].flags.get("timing_mismatch", 0) for o in ops)
    if args.workload.startswith("sharded_"):
        print(f"  sharded.timing_mismatch_ops = {mism} of {len(ops)}",
              file=err)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.4f} {units[name]}", file=err)
    if run.unpinned:
        print(f"  no pins for seed {args.seed}: {', '.join(run.unpinned)}; "
              "those modeled numbers were checked against this run's "
              "engine references only", file=err)
    for msg in run.setup_failures:
        print(f"  SETUP FAILURE: {msg}", file=err)
    for o in failed[:10]:
        print(f"  op {o['index']} FAILED: {'; '.join(o['res'].failures)}",
              file=err)


if __name__ == "__main__":
    sys.exit(main())
