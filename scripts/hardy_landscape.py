#!/usr/bin/env python3
"""Sweep the Hardy success probability over the state angle.

For each theta in the sweep, prints the Hardy yield of ``optimize_yield``
next to the exact-constraint grid oracle and the closed form
((cs(c - s)) / (1 - cs))^2, c = cos(theta), s = sin(theta), and reports the
maxima.  Exits 1 if the yield is ever more than 1e-9 from the closed form,
on either side.
"""

from __future__ import annotations

import argparse

import numpy as np

from losrkit import HardyScore, catalog, hardy_grid_maximum, optimize_yield

CLOSED_FORM_TOL = 1e-9


def closed_form(theta: float) -> float:
    c, s = np.cos(theta), np.sin(theta)
    return float((c * s * (c - s) / (1 - c * s)) ** 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=25, help="theta grid size")
    parser.add_argument("--oracle-a0", type=int, default=80, help="oracle grid density")
    args = parser.parse_args()

    thetas = np.linspace(0.05, np.pi / 4 - 0.02, args.points)
    print("theta yield oracle closed_form")
    best_opt, best_oracle, best_closed = 0.0, 0.0, 0.0
    gaps = []
    for theta in thetas:
        opt = optimize_yield(catalog.partial(float(theta)), HardyScore()).value
        oracle, _ = hardy_grid_maximum([float(theta)], a0_points=args.oracle_a0)
        closed = closed_form(float(theta))
        best_opt = max(best_opt, opt)
        best_oracle = max(best_oracle, oracle)
        best_closed = max(best_closed, closed)
        gaps.append(opt - closed)
        print(f"{theta:.6f} {opt:.8f} {oracle:.8f} {closed:.8f}")
    print(f"max over sweep: yield {best_opt:.8f}, oracle {best_oracle:.8f}, closed form {best_closed:.8f}")
    print(f"disagreement with oracle {abs(best_opt - best_oracle):.2e}")
    print(f"yield - closed form: largest {max(gaps):.2e}, smallest {min(gaps):.2e}")
    return 0 if max(abs(g) for g in gaps) <= CLOSED_FORM_TOL else 1


if __name__ == "__main__":
    raise SystemExit(main())
