"""Regenerate ``pins.json``: the modeled numbers every op is checked against.

    python3 perfbench/make_pins.py

Cycles, firings and sink arrival times are the paper's numbers and must
never move.  Run this only when a workload's definition changes (a new
program, size or input generator) -- never to absorb a change in the
modeled numbers, which is a defect for the change to fix.

A number that is the same for the first few seeds is pinned once for
every seed; the others (data-dependent merges, generated programs) are
pinned per seed for seeds ``0 .. SEEDS-1``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_SEEDS = 3
#: seeds ``0 .. SEEDS-1`` get per-seed pins of seed-dependent numbers
SEEDS = 256


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads

    out: dict = {"seeds": SEEDS, "workloads": {}}
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench-out")
    for name in workloads.WORKLOADS:
        probes = []
        for seed in range(PROBE_SEEDS):
            with workloads.opened(name, seed, None, scratch) as wl:
                wl.setup()
                probes.append(wl.prepare())
        table = {}
        varying = set()
        for label in probes[0]:
            if all(p[label] == probes[0][label] for p in probes):
                table[label] = {"any": probes[0][label]}
            else:
                table[label] = {"per_seed": {}}
                varying.add(label.split(".")[0])
        if varying:
            for seed in range(SEEDS):
                with workloads.opened(name, seed, None, scratch) as wl:
                    wl.setup()
                    got = wl.prepare(only=varying)
                for label, value in got.items():
                    if "per_seed" in table[label]:
                        table[label]["per_seed"][str(seed)] = value
        out["workloads"][name] = table
        print(f"{name}: {sorted(varying) or 'seed-independent'}",
              file=sys.stderr)
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
