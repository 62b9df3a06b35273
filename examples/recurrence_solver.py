#!/usr/bin/env python3
"""Linear recurrence solving: ODE integration as a simple for-iter.

Forward-Euler integration of dx/dt = -k(t) x + f(t) is the first-order
recurrence

    x_i = (1 - k_i dt) * x_{i-1} + f_i dt

-- exactly the class Theorem 3 covers.  The example:

* derives the companion function from the Val source automatically,
* integrates with the companion scheme at the maximum rate,
* batches 8 independent trajectories through ONE loop with the
  Section 9 interleaved scheme (full rate with no companion function),
* cross-checks everything against a plain Python integrator.

Run:  python examples/recurrence_solver.py
"""

import math

import repro
from repro import compile_program
from repro.compiler import (
    ArraySpec,
    balance_graph,
    compile_foriter_interleaved,
    deinterleave,
    extract_linear_form,
    interleave,
)
from repro.val import classify_foriter, parse_program

N_STEPS = 1200
DT = 0.01

SOURCE = """
X : array[real] :=
  for
    i : integer := 1;
    T : array[real] := [0: 1.]
  do
    let xn : real := (1. - K[i] * 0.01) * T[i-1] + F[i] * 0.01
    in
      if i < m then
        iter T := T[i: xn]; i := i + 1 enditer
      else T[i: xn]
      endif
    endlet
  endfor
"""


def coefficients(n: int, phase: float = 0.0):
    k = [0.5 + 0.3 * math.sin(0.01 * j + phase) for j in range(1, n + 1)]
    f = [0.2 * math.cos(0.02 * j + phase) for j in range(1, n + 1)]
    return k, f


def python_reference(k, f, x0=1.0):
    xs = [x0]
    for kj, fj in zip(k, f):
        xs.append((1.0 - kj * DT) * xs[-1] + fj * DT)
    return xs


def main() -> None:
    program = parse_program(SOURCE)
    info = classify_foriter(program.blocks[0].expr, {"K", "F"}, {"m": N_STEPS})
    form = extract_linear_form(info, {"m": N_STEPS})
    print("recurrence detected: x_i = P1 * x_{i-1} + P0 with")
    print(f"  P1 = {type(form.coeff).__name__} AST (1 - K[i]*0.01)")
    print(f"  P0 = {type(form.offset).__name__} AST (F[i]*0.01)")
    print("companion function: G((p1,p0),(q1,q0)) = (p1*q1, p1*q0 + p0)\n")

    k, f = coefficients(N_STEPS)
    expected = python_reference(k, f)

    for scheme in ("todd", "companion"):
        cp = compile_program(SOURCE, params={"m": N_STEPS}, foriter_scheme=scheme)
        res = cp.run({"K": k, "F": f})
        xs = res.outputs["X"].to_list()
        err = max(abs(a - b) for a, b in zip(xs, expected))
        print(
            f"{scheme:10s}: II = {res.initiation_interval('X'):.3f} "
            f"instruction times/step, {res.stats.steps} total, "
            f"max err vs Python = {err:g}"
        )

    # ---- batched integration via the Section 9 interleaved scheme ----
    batch = 8
    print(f"\ninterleaved batch of {batch} independent trajectories:")
    node = program.blocks[0].expr
    specs = {
        "K": ArraySpec("K", 1, N_STEPS),
        "F": ArraySpec("F", 1, N_STEPS),
    }
    art = compile_foriter_interleaved(
        "X", node, specs, {"m": N_STEPS}, batch=batch
    )
    balance_graph(art.graph)
    ks, fs = [], []
    for j in range(batch):
        kj, fj = coefficients(N_STEPS, phase=0.4 * j)
        ks.append(kj)
        fs.append(fj)
    res = repro.run(
        art.graph, {"K": interleave(ks), "F": interleave(fs)}, backend="sync"
    )
    outs = deinterleave(res.outputs["X"], batch)
    worst = 0.0
    for j in range(batch):
        ref = python_reference(ks[j], fs[j])
        worst = max(worst, max(abs(a - b) for a, b in zip(outs[j], ref)))
    loop = art.graph.meta["loop"]
    print(
        f"  loop: {loop['length']} stages, {loop['tokens']} values "
        f"circulating (rate bound {loop['rate_bound']})"
    )
    print(
        f"  II = {res.initiation_interval('X'):.3f} per element "
        f"({batch} trajectories advancing together), max err = {worst:g}"
    )


if __name__ == "__main__":
    main()
