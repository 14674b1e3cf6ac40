"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
failure output) and asserts the criterion at its stated tolerance.  The
verdicts are those of `fueterlab verify --suite all`, read from the
session's single run of the check table (the `verdicts` fixture), and
every exact check must pass on exactly its expected number of instances.
"""

import math

from fueterlab.numeric import EvalPoint, ck_gauss_series


def _report(criterion: str, ok: bool, detail: str = "", bad=()):
    detail = "; ".join([detail, *bad])
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{criterion} failed{tail}"


def _read(verdicts, expected: dict):
    """Failed checks and summed wall time of the checks named in expected.

    expected maps a check id to its instance count, or to None for a
    measured check; an exact check also fails when it ran on any other
    number of instances.
    """
    bad = []
    for check_id, n in expected.items():
        res = verdicts[check_id]
        if not res.passed or (n is not None and res.instances != n):
            bad.append(res.line())
    return bad, sum(verdicts[check_id].seconds for check_id in expected)


def test_criterion_1_exact_identity_suite(verdicts):
    expected = {"e1": 8, "e2": 9, "e3": 9, "e4": 9, "e5": 8, "e6": 8, "e7": 9}
    expected.update({f"op.{name}": 50 for name in ("order0_and_commute", "i", "ii", "iii", "iv")})
    bad, elapsed = _read(verdicts, expected)
    ok = not bad and elapsed < 10.0
    _report("1 (radial-derivative identities + operator properties)", ok, f"{elapsed:.2f}s", bad)


def test_criterion_2_vekua_grid(verdicts):
    bad, elapsed = _read(verdicts, {"vekua.grid": 15 * 9})
    ok = not bad and elapsed < 60.0
    _report("2 (Vekua residuals exactly zero on the seed grid)", ok, f"{15 * 9} pairs, {elapsed:.2f}s", bad)


def test_criterion_3_inverse_seed_closed_form(verdicts):
    bad, _ = _read(verdicts, {"example2.closed": 9})
    _report("3 (1/z transform with its exact constant)", not bad, "9 (m,k) pairs", bad)


def test_criterion_4_triangle_equality(verdicts):
    bad, _ = _read(verdicts, {"example3.triangle": 44})
    print("computed proportionality constants (last four):", verdicts["example3.triangle"].detail)
    _report("4 (three-route equality for polynomial seeds)", not bad, "44 (n,k,m) cases", bad)


def test_criterion_5_hermite_recurrence_equals_closed_form(verdicts):
    bad, _ = _read(verdicts, {"hermite.rec_eq_closed": 6 * 13, "hermite.h2_h3": 6 * 2})
    _report("5 (Hermite recurrence = closed form, n <= 12)", not bad, "m in {1,2,3,4,5,7}", bad)


def test_criterion_6_gaussian_extension(verdicts):
    expected = {"gauss.restriction_symbolic": 3, "gauss.m3_closed_form": 1, "gauss.series_vs_closed": None}
    bad, _ = _read(verdicts, expected)
    series = verdicts["gauss.series_vs_closed"]
    assert "50 points per m, m in {3, 5}" in series.detail, series.line()

    max_axis = 0.0
    for x0 in [i / 20.0 for i in range(-20, 21)]:
        got = ck_gauss_series(EvalPoint(x0, (0.0, 0.0, 0.0)), 3, trunc=60)[0]
        want = math.exp(x0 * x0 / 2.0) * (1.0 + x0 * x0)
        max_axis = max(max_axis, abs(got - want) / abs(want))
    _report(
        "6 (Gaussian extension: symbolic restriction, m=3 closed form, series agreement)",
        not bad and series.max_error <= 1e-10 and max_axis <= 1e-12,
        f"series rel {series.max_error:.2e} <= 1e-10, axis rel {max_axis:.2e} <= 1e-12",
        bad,
    )


def test_criterion_7_gaussian_fundamental_solution(verdicts):
    parts = {
        "a": "gauss_fund.pole_cancellation",
        "b_res": "gauss_fund.fd_two_sided",
        "b_order": "gauss_fund.fd_convergence_order",
        "c": "gauss_fund.decay_sup_stable",
    }
    detail = "; ".join(f"{label}:{'ok' if verdicts[i].passed else 'fail'}" for label, i in parts.items())
    bad, _ = _read(verdicts, dict.fromkeys(parts.values()))
    _report("7 (fundamental solution: pole cancellation, two-sidedness, decay)", not bad, detail, bad)


def test_criterion_8_clifford_core_properties(verdicts):
    expected = {"core.blade_sign_oracle": 340}
    families = ("associativity", "vector_products", "conjugation_antihom", "norm_and_grades", "fact1", "fact2")
    expected.update({f"core.{name}": 200 for name in families})
    bad, _ = _read(verdicts, expected)
    _report("8 (core algebra property tests, 200 cases each)", not bad, f"{len(expected)} families", bad)
