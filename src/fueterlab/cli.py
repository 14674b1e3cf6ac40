"""Command-line front end: verification suites, closed-form printing, sampling.

Exit codes: 0 all requested checks pass, 1 identity failure, 2 usage
error, 3 unsupported hypothesis (even m), 4 invalid P_k, 5 I/O failure.
A command returns 0 or 1 and raises every other outcome; `main` alone
checks --m, prints the error and maps its class to a code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

from . import numeric, verify
from .axial import format_axial
from .clifford import _check_dimension
from .cliffpoly import InvalidPkError, format_poly, hermite_closed, hermite_rec, parse_poly
from .fueter import (
    SEED_NAMES,
    EvenDimensionError,
    axial_to_poly,
    fueter,
    gauss_ck_pair,
    seed as make_seed,
    triangle_check,
    vekua_ok,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_EVEN_M = 3
EXIT_BAD_PK = 4
EXIT_IO = 5


def finite_float(text: str) -> float:
    """A float flag value; nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def parse_range(text: str) -> list:
    """`lo:hi:count` with inclusive endpoints, or a single value; every value must be finite."""
    parts = text.split(":")
    if len(parts) == 1:
        return [finite_float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be 'lo:hi:count' or a single value, got {text!r}")
    lo, hi, count = finite_float(parts[0]), finite_float(parts[1]), int(parts[2])
    try:
        return numeric.lin_range(lo, hi, count)
    except ValueError as exc:  # a count below 1, or a span whose step overflows
        raise argparse.ArgumentTypeError(f"range {text!r}: {exc}") from None


def _dist_version(dist: str):
    import importlib.metadata

    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_revision():
    """HEAD of the git checkout holding this package's source, or None outside one."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "-C", os.path.dirname(os.path.abspath(__file__)), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_environment() -> dict:
    """Versions and git revision for the JSON report; mpmath and numpy are looked up in the package metadata,
    never imported.  This and its two helpers import what they use, so only `verify --json` loads
    importlib.metadata, platform and subprocess."""
    import platform

    return {
        "python": platform.python_version(),
        "mpmath": _dist_version("mpmath"),
        "numpy": _dist_version("numpy"),
        "git_revision": _git_revision(),
    }


def cmd_verify(args) -> int:
    ms = (args.m,) if args.m is not None else None
    # --from re-verifies its file once, before any check: a fault in it stops the run there;
    # the result is printed last, as the last check of gauss_fund, the last suite of all
    csv_results = []
    if args.from_csv is not None:
        if args.suite not in ("gauss_fund", "all"):
            raise ValueError(f"suite {args.suite!r} re-verifies no sample CSV; only gauss_fund and all do")
        start = time.perf_counter()
        ok, nrows = numeric.verify_sample_csv(args.from_csv, "gauss-fund")
        seconds = time.perf_counter() - start
        detail = f"{nrows} rows re-verified"
        csv_results.append(verify.CheckResult("gauss_fund.csv_roundtrip", ok, 0.0, detail, seconds=seconds))
    results = verify.run_suite(args.suite, rng_seed=args.rng_seed, ms=ms) + csv_results
    for line in verify.report_lines(args.suite, results):
        print(line)
    passed = all(r.passed for r in results)
    if args.json:
        # JSON has no NaN or infinity: such an error is written as null, beside the check's own verdict
        checks = [{**asdict(r), "max_error": r.max_error if math.isfinite(r.max_error) else None} for r in results]
        payload = {
            "suite": args.suite,
            "rng_seed": args.rng_seed,
            "passed": passed,
            **run_environment(),
            "checks": checks,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_hermite(args) -> int:
    if args.form in ("rec", "both"):
        rec = hermite_rec(args.n, args.m).poly
        print(f"rec:    {format_poly(rec)}")
    if args.form in ("closed", "both"):
        closed = hermite_closed(args.n, args.m).poly
        print(f"closed: {format_poly(closed)}")
    if args.form == "both":
        verdict = "EQUAL" if rec == closed else "DIFFER"
        print(verdict)
        return EXIT_OK if verdict == "EQUAL" else EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_fueter(args) -> int:
    pk = None
    if args.pk_file:
        # the read stays inside: text that is not in the file's encoding is a P_k that does not parse
        try:
            with open(args.pk_file) as fh:
                pk = parse_poly(fh.read().strip(), args.m)
        except ValueError as exc:
            raise InvalidPkError(f"cannot parse P_k: {exc}") from None
    s = make_seed(args.seed, args.n)
    pair = fueter(s, args.k, args.m, pk)
    pk_text = format_poly(pair.pk) if pair.pk is not None else "(generic)"
    print(f"m = {pair.m}, k = {pair.k}, P_k = {pk_text}")
    print(f"A = {format_axial(pair.A)}")
    print(f"B = {format_axial(pair.B)}")
    ok = vekua_ok(pair)
    print(f"VEKUA {'OK' if ok else 'FAIL'}")
    code = EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.seed == "z_pow" and pair.pk is not None:
        print(f"poly = {format_poly(axial_to_poly(pair))}")
        res = triangle_check(args.n, args.k, args.m, pair.pk)
        label = "OK" if res.ok else "FAIL"
        const = f" c={res.constant}" if res.constant is not None else ""
        print(f"TRIANGLE {label}{const}")
        if not res.ok:
            code = EXIT_CHECK_FAILED
    return code


def cmd_ck_gauss(args) -> int:
    if args.r < 0:
        raise ValueError("r must be nonnegative")
    pair = gauss_ck_pair(args.m)  # the closed form needs odd m: an even m raises here, before anything is evaluated
    xs = (args.r,) + (0.0,) * (args.m - 1)
    pt = numeric.EvalPoint(args.x0, xs)
    where = f"at (x0={args.x0!r}, r={args.r!r})"
    try:
        series = numeric.ck_gauss_series(pt, args.m, trunc=args.trunc)
    except OverflowError:  # a power of -r^2 leaves binary64
        raise OverflowError(f"series is out of range {where}") from None
    # the closed form is computed before anything is printed;
    # the axis formula serves every point whose r * r is 0 or subnormal (r below about 1.49e-154):
    # off the axis, such a radius drives the closed form's negative powers of r and Q past binary64
    if pt.r * pt.r < sys.float_info.min:
        closed = numeric.ck_gauss_restriction(args.x0, args.m)
        closed_line = f"closed (x_=0 axis): {closed!r}"
        err = abs(series[0] - closed) / max(abs(closed), 1e-300)
    else:
        try:
            closed_mv = numeric.eval_axial(pair, pt)
        except ValueError:  # math's cos and sin refuse an infinite x0 * r, where IEEE 754 gives NaN
            raise ValueError(f"closed form is NaN {where}") from None
        except OverflowError:  # exp(x0^2/2) or a negative power of r leaves binary64
            raise OverflowError(f"closed form is out of range {where}") from None
        closed_line = f"closed (axial):     {closed_mv}"
        # hypot over the parts, where norm() squares them: below about 1e-154 the squares underflow
        diff = series - closed_mv
        err = math.hypot(*diff.coeffs.values()) / max(math.hypot(*closed_mv.coeffs.values()), 1e-300)
    if not math.isfinite(err):  # a NaN or infinite value leaves no deviation to print
        raise OverflowError(f"relative deviation {err} is not finite {where}")
    print(f"series (N={args.trunc}): {series}")
    print(closed_line)
    print(f"relative deviation: {err:.3e}")
    return EXIT_OK


def cmd_sample(args) -> int:
    nrows = numeric.write_sample_csv(args.out, args.target, args.m, args.x0, args.r)
    print(f"wrote {nrows} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fueterlab",
        description="Exact and numerical workbench for axial monogenic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run an identity/property suite")
    p.add_argument("--suite", required=True, choices=verify.SUITE_NAMES)
    p.add_argument("--m", type=int, default=None, help="the one m to check; a check tied to other m prints no line")
    p.add_argument("--rng-seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--from", dest="from_csv", default=None, metavar="CSV", help="re-verify a sample CSV")
    p.add_argument("--json", default=None, metavar="PATH", help="also write results as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hermite", help="print generalized Hermite polynomials")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--form", choices=("rec", "closed", "both"), default="rec")
    p.set_defaults(func=cmd_hermite)

    p = sub.add_parser("fueter", help="transform a holomorphic seed and check the Vekua system")
    p.add_argument("--seed", required=True, choices=SEED_NAMES)
    p.add_argument("--n", type=int, default=None, help="order for the z_pow seed")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--pk-file", default=None, help="file with a P_k polynomial in the text grammar")
    p.set_defaults(func=cmd_fueter)

    p = sub.add_parser("ck-gauss", help="evaluate the Gaussian extension, series vs closed form")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x0", type=finite_float, default=0.0)
    p.add_argument("--r", type=finite_float, default=1.0)
    p.add_argument("--trunc", type=int, default=60)
    p.set_defaults(func=cmd_ck_gauss)

    p = sub.add_parser("sample", help="write a CSV grid of axial values")
    p.add_argument("--target", required=True, choices=numeric.SAMPLE_TARGETS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x0", type=parse_range, required=True, help="value or lo:hi:count")
    p.add_argument("--r", type=parse_range, required=True, help="value or lo:hi:count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    return parser


_RANGE_FLAGS = ("--x0", "--r")


def _join_range_values(argv):
    """Fold `--x0 -2:2:41` into `--x0=-2:2:41` so argparse keeps a value that starts with '-';
    every value of the two flags is folded, since their types parse or refuse it either way."""
    out = []
    for tok in argv:
        if out and out[-1] in _RANGE_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# exit code by error class, the first match winning: both subclasses of ValueError come before it
EXIT_CODES = (
    (EvenDimensionError, EXIT_EVEN_M),
    (InvalidPkError, EXIT_BAD_PK),
    (OSError, EXIT_IO),
    (ValueError, EXIT_USAGE),
    (OverflowError, EXIT_USAGE),  # an input whose floats leave binary64, as --x0 1e200 in a plan's x0 ** a
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_range_values(list(argv) if argv is not None else sys.argv[1:]))
    try:
        if args.m is not None:  # every command has --m; only verify's is optional
            _check_dimension(args.m)
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        cls, code = next(row for row in EXIT_CODES if isinstance(exc, row[0]))
        prefix = "binary64 overflow: " if cls is OverflowError else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
