"""Command-line front end.

Five subcommands cover the toolkit: ``solve`` runs the boundary blow-up
solver and the gradient-energy bound check, ``whitney`` builds a cube
decomposition and verifies its properties, ``verify-inequality`` sweeps the
weighted embedding over a family of test functions, ``constants`` evaluates
the embedding and series constants for given parameters, and ``audit-chain``
replays the localization argument step by step on grid data.

Every run writes a JSON report into the output directory (``--report``,
overridden by the BLOWUP_REPORT_DIR environment variable).  Reports are
deterministic for a fixed configuration except for the ``generated_at``
timestamp and, in solve reports, the measured ``runtime_seconds``.  Exit
status: 0 when every enabled check passes, 2 when a check fails, 1 on
configuration or runtime errors (with a usage message when the
configuration does not parse).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from fractions import Fraction

import numpy as np

from .energy import build_singular_part
from .geometry import Box, Disk, Polygon, default_profile, domain_from_json
from .grid import Grid, ScalarField
from .inequalities import (
    c2_constant,
    chain_audit,
    embedding_report,
    resolve_hardy_constant,
    sigma_growth_scan,
    sigma_q,
    standard_family,
)
from .solver import (
    SolverConfig,
    corollary4_check,
    liouville_defect,
    liouville_residual,
    solve,
)
from .svg import decomposition_to_svg, field_to_svg
from .whitney import (
    BumpFunction,
    WhitneyParams,
    decompose,
    derive_constants,
    verify_properties,
)


class UsageError(Exception):
    """Configuration that does not parse or validate."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit-code contract
    # reserves 2 for failed checks, so route parse errors through UsageError
    def error(self, message):
        raise UsageError(message)


_DOMAINS = {
    "disk": lambda: Disk((0.0, 0.0), 1.0),
    "square": lambda: Box((0.0, 0.0), (1.0, 1.0)),
    "lshape": lambda: Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
}


def parse_mesh_size(text: str) -> float:
    """Mesh size as a fraction string ("1/256") or decimal ("0.01")."""
    try:
        value = float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse mesh size {text!r}") from exc
    if not 0.0 < value <= 0.5:
        raise UsageError(f"mesh size must lie in (0, 1/2], got {text!r}")
    return value


def parse_domain(text: str):
    """Domain from a shorthand name, an inline JSON object, or a JSON file."""
    key = text.strip()
    if key.lower() in _DOMAINS:
        return _DOMAINS[key.lower()]()
    if key.startswith("{"):
        try:
            return domain_from_json(key)
        except (ValueError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad domain JSON: {exc}") from exc
    path = pathlib.Path(key)
    if path.is_file():
        try:
            return domain_from_json(path.read_text())
        except (ValueError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad domain file {text!r}: {exc}") from exc
    names = ", ".join(sorted(_DOMAINS))
    raise UsageError(f"unknown domain {text!r} (expected {names}, JSON, or a file)")


def _parse_q_list(text: str) -> list[float]:
    try:
        qs = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse exponent list {text!r}") from exc
    if not qs or any(q <= 2.0 for q in qs):
        raise UsageError("exponent list must be non-empty with every q > 2")
    return qs


def _output_dir(args) -> str:
    directory = os.environ.get("BLOWUP_REPORT_DIR") or args.report
    os.makedirs(directory, exist_ok=True)
    return directory


def _write_json(payload: dict, directory: str, name: str) -> str:
    payload = dict(payload)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check_line(name: str, passed: bool, detail: str = "") -> None:
    tag = "ok  " if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> bool:
    domain = parse_domain(args.domain)
    h = parse_mesh_size(args.h)
    if args.hardy is not None and args.hardy <= 0:
        raise UsageError("--hardy must be positive")
    try:
        config = SolverConfig(
            gradient_tol=args.gradient_tol, max_iterations=args.max_iterations
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    grid = Grid(domain, h)
    profile = default_profile(domain)
    sp = build_singular_part(domain, profile, grid, residual_mode=args.residual_mode)
    report = solve(domain, profile=profile, grid=grid, config=config, singular_part=sp)

    if args.hardy is not None:
        hardy = {"value": args.hardy, "method": "configured"}
        h_const = args.hardy
    else:
        estimate = resolve_hardy_constant(domain, grid)
        hardy = estimate.to_json_dict()
        h_const = estimate.value
    corollary4_check(report, sp, h_const)
    residual = liouville_residual(report, sp)

    outdir = _output_dir(args)
    payload = report.to_json_dict()
    payload.update(
        {
            "domain": domain.to_json_dict(),
            "singular_part": sp.to_json_dict(),
            "hardy": hardy,
            "liouville_residual": residual,
        }
    )
    path = _write_json(payload, outdir, "solve_report.json")

    if args.csv:
        report.u.to_csv(os.path.join(outdir, "u.csv"))
        report.w.to_csv(os.path.join(outdir, "w.csv"))
        sp.v.to_csv(os.path.join(outdir, "v.csv"))
    if args.svg:
        field_to_svg(
            report.u, os.path.join(outdir, "solution.svg"), title="u = v + w"
        )
        field_to_svg(
            liouville_defect(report, sp),
            os.path.join(outdir, "residual.svg"),
            title="pointwise defect, distance-squared weighted",
        )

    _check_line(
        "converged",
        report.converged,
        f"{report.iterations} iterations, grad norm {report.final_grad_norm:.3e}",
    )
    c4 = report.corollary4
    _check_line(
        "gradient-energy bound",
        c4["pass"],
        f"lhs {c4['lhs']:.6g} <= rhs {c4['rhs']:.6g}, H {c4['H']:.6g}",
    )
    if report.oracle is not None:
        print(
            f"       disk oracle: sup error {report.oracle['sup_error']:.3e} "
            f"on depth > {report.oracle['region_depth']}"
        )
    print(f"report: {path}")
    return report.converged and bool(c4["pass"])


def _cmd_whitney(args) -> bool:
    domain = parse_domain(args.domain)
    try:
        params = WhitneyParams(
            eta=args.eta, eta_prime=args.eta_prime, k_max=args.k_max
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.samples < 1 or (
        args.coverage_samples is not None and args.coverage_samples < 1
    ):
        raise UsageError("--samples and --coverage-samples must be positive")
    decomp = decompose(domain, params)
    report = verify_properties(
        decomp,
        sample_count=args.samples,
        coverage_samples=args.coverage_samples,
        seed=args.seed,
    )

    outdir = _output_dir(args)
    cube_path = _write_json(decomp.to_json_dict(), outdir, "whitney_cubes.json")
    prop_payload = {
        "domain": domain.to_json_dict(),
        "seed": args.seed,
        "sample_count": args.samples,
        **report.to_json_dict(),
    }
    prop_path = _write_json(prop_payload, outdir, "whitney_properties.json")
    if args.svg:
        decomposition_to_svg(decomp, os.path.join(outdir, "whitney.svg"))

    for check in report.checks:
        detail = check.detail
        if check.worst is not None:
            detail = f"worst {check.worst:.6g}" + (f"; {detail}" if detail else "")
        _check_line(check.name, check.passed, detail)
    print(f"cubes: {cube_path}")
    print(f"report: {prop_path}")
    return report.all_passed


def _cmd_verify_inequality(args) -> bool:
    domain = parse_domain(args.domain)
    h = parse_mesh_size(args.h)
    qs = _parse_q_list(args.q)
    try:
        params = WhitneyParams(eta=args.eta, eta_prime=args.eta_prime)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    constants = derive_constants(params, BumpFunction(params.eta_prime))
    grid = Grid(domain, h)

    rows = []
    for name, fn in standard_family(domain):
        u = ScalarField(grid, fn(grid.points))
        if not np.any(u.values):
            continue
        for row in embedding_report(u, constants, qs):
            rows.append({"function": name, **row})

    outdir = _output_dir(args)
    payload = {
        "domain": domain.to_json_dict(),
        "h": h,
        "eta": params.eta,
        "eta_prime": params.eta_prime,
        "p": float(domain.dim),
        "rows": rows,
    }
    path = _write_json(payload, outdir, "inequality_report.json")

    all_pass = all(row["pass"] for row in rows)
    worst = max((row["ratio"] for row in rows), default=0.0)
    _check_line(
        "weighted embedding",
        all_pass,
        f"{len(rows)} cases, worst lhs/bound ratio {worst:.3e}",
    )
    print(f"report: {path}")
    return all_pass


def _cmd_constants(args) -> bool:
    if args.N < 2:
        raise UsageError("--N must be at least 2")
    try:
        params = WhitneyParams(
            eta=args.eta, eta_prime=args.eta_prime, dim=args.N
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    constants = derive_constants(params, BumpFunction(params.eta_prime))
    sig = sigma_q(constants, args.q, n=args.N)
    if args.c1 is not None:
        if args.c1 <= 0:
            raise UsageError("--c1 must be positive")
        c1 = args.c1
    else:
        # default coupling: twice the convergence threshold, so the series
        # converges with a comfortable margin
        probe = c2_constant(1.0, constants, n=args.N)
        c1 = 2.0 * probe.threshold_c1
    series = c2_constant(c1, constants, n=args.N)

    outdir = _output_dir(args)
    payload = {
        "dim": args.N,
        "q": args.q,
        "p": float(args.N),
        "eta": params.eta,
        "eta_prime": params.eta_prime,
        "constants": constants.to_json_dict(),
        "sigma_q": sig,
        "series": series.to_json_dict(),
    }
    path = _write_json(payload, outdir, "constants_report.json")

    growth_path = os.path.join(outdir, "sigma_growth.csv")
    with open(growth_path, "w") as fh:
        fh.write("q,sigma_q,normalized\n")
        for row in sigma_growth_scan(constants, range(3, 61), n=args.N):
            fh.write(f"{row['q']:g},{row['sigma_q']!r},{row['normalized']!r}\n")

    print(f"sigma_q(q={args.q:g}, p={args.N:g}, dim={args.N}) = {sig:.12e}")
    if series.diverges:
        print(
            f"series constant diverges at c1 = {c1:.6g} "
            f"(threshold {series.threshold_c1:.6g})"
        )
    else:
        print(
            f"series constant = {series.value:.12e} at c1 = {c1:.6g} "
            f"(tail bound {series.tail_bound:.3e}, {series.terms_used} terms)"
        )
    print(f"report: {path}")
    print(f"growth table: {growth_path}")
    return True


def _cmd_audit_chain(args) -> bool:
    domain = parse_domain(args.domain)
    h = parse_mesh_size(args.h)
    if args.q <= 2.0:
        raise UsageError("--q must exceed 2")
    try:
        params = WhitneyParams(eta=args.eta, eta_prime=args.eta_prime)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    decomp = decompose(domain, params)
    grid = Grid(domain, h)

    family = standard_family(domain)
    if args.function is not None:
        family = [(n, f) for n, f in family if n == args.function]
        if not family:
            names = ", ".join(n for n, _ in standard_family(domain))
            raise UsageError(
                f"unknown test function {args.function!r} (expected one of {names})"
            )

    runs = []
    total_violations = 0
    all_passed = True
    for name, fn in family:
        u = ScalarField(grid, fn(grid.points))
        if not np.any(u.values):
            continue
        rep = chain_audit(u, decomp, q=args.q)
        runs.append({"function": name, **rep.to_json_dict()})
        total_violations += rep.total_violations
        all_passed = all_passed and rep.all_passed
        _check_line(
            f"chain[{name}]",
            rep.all_passed,
            f"{len(rep.steps)} steps, {rep.total_violations} violations",
        )

    outdir = _output_dir(args)
    payload = {
        "domain": domain.to_json_dict(),
        "h": h,
        "q": args.q,
        "p": float(domain.dim),
        "total_violations": total_violations,
        "runs": runs,
    }
    path = _write_json(payload, outdir, "chain_report.json")
    print(f"report: {path}")
    return all_passed and total_violations == 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blowup",
        description="Boundary blow-up solver and weighted-inequality toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument(
            "--report",
            default=".",
            help="output directory (BLOWUP_REPORT_DIR overrides)",
        )

    p = sub.add_parser("solve", help="minimize the renormalized energy")
    p.add_argument("--domain", required=True, help="disk|square|lshape, JSON, or file")
    p.add_argument("--h", default="1/128", help='mesh size, e.g. "1/256"')
    p.add_argument("--gradient-tol", type=float, default=1e-8)
    p.add_argument("--max-iterations", type=int, default=40)
    p.add_argument(
        "--residual-mode", choices=("continuum", "lattice"), default="continuum"
    )
    p.add_argument(
        "--hardy",
        type=float,
        default=None,
        help="constant for the gradient-energy bound (default: resolved per domain)",
    )
    p.add_argument("--csv", action="store_true", help="write u, w, v as CSV")
    p.add_argument("--svg", action="store_true", help="write heatmaps of u and defect")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("whitney", help="build and verify a cube decomposition")
    p.add_argument("--domain", required=True)
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--eta-prime", type=float, default=1.05)
    p.add_argument("--k-max", type=int, default=10, help="finest dyadic level")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--coverage-samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", action="store_true", help="write a cube layout drawing")
    common(p)
    p.set_defaults(func=_cmd_whitney)

    p = sub.add_parser(
        "verify-inequality", help="check the weighted embedding on a test family"
    )
    p.add_argument("--domain", required=True)
    p.add_argument("--h", default="1/128")
    p.add_argument("--q", default="3,4,6,10,20", help="comma-separated exponents")
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--eta-prime", type=float, default=1.05)
    common(p)
    p.set_defaults(func=_cmd_verify_inequality)

    p = sub.add_parser(
        "constants", help="evaluate the embedding and series constants"
    )
    p.add_argument("--N", type=int, default=2, help="space dimension, at least 2")
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--eta-prime", type=float, default=1.05)
    p.add_argument(
        "--c1", type=float, default=None, help="series coupling (default: 2x threshold)"
    )
    common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser(
        "audit-chain", help="replay the localization argument on grid data"
    )
    p.add_argument("--domain", required=True)
    p.add_argument(
        "--h",
        default="1/250",
        help="mesh size; an off-dyadic default keeps partition gradients "
        "nonvanishing at grid nodes",
    )
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--eta-prime", type=float, default=1.05)
    p.add_argument("--function", default=None, help="restrict to one test function")
    common(p)
    p.set_defaults(func=_cmd_audit_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        passed = args.func(args)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure, not a failed check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
