"""Regenerate refs.json, the committed references of the numeric_probe workload.

    python3 perfbench/make_refs.py

Each reference is the value (A, B) of an exact axial pair at a point
x_ = r e_1, evaluated term by term from the exact AxialExpr at 80 digits
by the small evaluator below, and stored with 60 significant digits.
Neither the binary64 evaluator nor `AxialExpr.evaluate_mp` of the
program is used.  The points are drawn once from a fixed seed; the
near-axis points at r = 1e-2 and 1e-3 are where binary64 evaluation of
the higher-dimensional pairs loses digits.
"""

from __future__ import annotations

import json
import os
import random
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import FD_PAIRS, REFS_PATH, probe_pair  # noqa: E402

POINT_SEED = 1373
MODERATE_POINTS = 2
NEAR_AXIS = ((0.3, 1e-2), (0.3, 1e-3))
DPS = 80


def exact_value(expr, x0: float, r: float):
    """Sum of q x0^a r^b Q^-p E^g T(x0 r) at the exact binary values of x0 and r."""
    x0, r = mpmath.mpf(x0), mpmath.mpf(r)
    q_val = x0 * x0 + r * r
    e_val = mpmath.exp((x0 * x0 - r * r) / 2)
    trig = {"": mpmath.mpf(1), "cos": mpmath.cos(x0 * r), "sin": mpmath.sin(x0 * r)}
    total = mpmath.mpf(0)
    for (a, b, p, g, t), q in expr.terms.items():
        total += mpmath.mpf(q.numerator) / q.denominator * x0**a * r**b * q_val ** (-p) * e_val**g * trig[t]
    return total


def main() -> None:
    rng = random.Random(POINT_SEED)
    points = []
    with mpmath.workdps(DPS):
        for name in FD_PAIRS:
            for m in (3, 5, 7):
                pair = probe_pair(name, m)
                coords = [(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0)) for _ in range(MODERATE_POINTS)]
                if name in ("gauss", "gauss_fund"):
                    coords += NEAR_AXIS
                for x0, r in coords:
                    a_val, b_val = exact_value(pair.A, x0, r), exact_value(pair.B, x0, r)
                    points.append(
                        {
                            "pair": name,
                            "m": m,
                            "x0": repr(x0),
                            "r": repr(r),
                            "A": mpmath.nstr(a_val, 60, min_fixed=1, max_fixed=0),
                            "B": mpmath.nstr(b_val, 60, min_fixed=1, max_fixed=0),
                        }
                    )
    doc = {"digits": 60, "working_dps": DPS, "point_seed": POINT_SEED, "points": points}
    with open(REFS_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
