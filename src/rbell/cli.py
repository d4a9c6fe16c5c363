"""Command-line front end.

Commands: ``run`` (scenario from a config file), ``analytic`` (closed
form / quadrature inequality evaluation), ``optimize`` (angle search),
``check`` (inequality over a stored correlation table) and ``verify``
(identity and model-invariant battery).

Exit codes: 0 all satisfied, 1 configuration or input error,
2 insufficient data (missing or under-count cells), 3 at least one
inequality violated.

Machine-readable JSON goes to stdout; human-oriented one-liners go to
stderr (numbers there are rounded to 6 decimals, JSON keeps full
precision).  Angles are accepted as decimal radians or multiples of pi
("pi/4", "-pi/4", "3pi/8"); use the ``--flag=value`` form for negative
angles.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import CellError, ConfigError, RbellError
from .estimation import (
    analytic_ch_probs,
    analytic_correlations,
    analytic_marginals,
    mc_correlations,
    read_table,
    resolve_workers,
)
from .inequalities import (
    ANGLE_FLAGS,
    INEQUALITIES,
    QUARTET,
    RETARDED_FLAGS,
    CorrelationInput,
    InequalityReport,
    ch_identity_check,
    chsh_identity_check,
)
from .models import (
    get_model,
    hardy_closed_form_E,
    hardy_closed_form_p12,
    model_names,
    quantum_joint_probs,
)
from .optimizer import ObjectiveSpec, optimize
from .scenarios import load_config, run_scenario
from .spacetime import parse_angle

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INSUFFICIENT = 2
EXIT_VIOLATED = 3

ANALYTIC_INEQS = tuple(INEQUALITIES)
CORRELATION_INEQS = tuple(n for n, q in INEQUALITIES.items() if not q.probability)


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _report_line(report: InequalityReport) -> str:
    return (
        f"{report.name}: value={report.value:.6f} "
        f"bounds=[{report.lower_bound:g}, {report.upper_bound:g}] "
        f"verdict={report.verdict}"
    )


def _given_angles(args, flags: Sequence[str]) -> dict[str, float]:
    """Flag -> angle for each of ``flags`` given on the command line; a
    malformed angle is reported with its flag."""
    return {k: _flag_angle(k, getattr(args, k)) for k in flags if getattr(args, k) is not None}


def _flag_angle(flag: str, raw: str) -> float:
    try:
        return parse_angle(raw)
    except ValueError as exc:
        raise ConfigError(f"--{flag}: {exc}") from None


def _exit_code_for(reports: Sequence[InequalityReport]) -> int:
    if any(r.verdict == "violated" for r in reports):
        return EXIT_VIOLATED
    return EXIT_OK


# ----------------------------------------------------------------------
# analytic
# ----------------------------------------------------------------------


def _resolve_ids(args, ineq: str, by_value: bool) -> dict[str, str]:
    """Flag name -> cell id after checking the inequality's required flags.

    A flag's id is its own name (``analytic``, where flags carry angles)
    or its value (``check``, where flags carry label ids); an absent
    retarded flag takes the id of its actual flag.
    """
    for name in INEQUALITIES[ineq].needs:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name} is required for {ineq}")
    ids = {}
    for name in ANGLE_FLAGS:
        value = getattr(args, name, None)
        if value is None and name in RETARDED_FLAGS:
            ids[name] = ids[name[:-1]]
        else:
            ids[name] = value if by_value else name
    return ids


def _analytic(args) -> int:
    model = get_model(args.model)
    ineq = args.ineq
    if ineq not in ANALYTIC_INEQS:
        raise ConfigError(f"unknown inequality {ineq!r}; choose from {ANALYTIC_INEQS}")
    spec = INEQUALITIES[ineq]
    ids = _resolve_ids(args, ineq, by_value=False)
    angles = _given_angles(args, spec.needs + RETARDED_FLAGS)
    quads = spec.cells(ids)

    if spec.probability:
        cells = CorrelationInput(analytic_ch_probs(model, angles, quads))
        singles = analytic_marginals(
            model, angles[spec.flag(ids, "a2")], angles[spec.flag(ids, "b2")]
        )
        report = spec.evaluate(cells, ids, singles)
    else:
        report = spec.evaluate(analytic_correlations(model, angles, quads), ids)

    payload = report.to_dict()
    payload["angles"] = angles
    reports = [report]

    if args.n and spec.probability:
        _say(f"note: --n is ignored for {ineq}")
    elif args.n:
        mc = mc_correlations(model, angles, quads, n=args.n, seed=args.seed)
        mc_report = spec.evaluate(mc, ids)
        payload["monte_carlo"] = mc_report.to_dict()
        reports.append(mc_report)
        _say(_report_line(mc_report) + f" (monte carlo, n={args.n})")

    print(json.dumps(payload, indent=2))
    _say(_report_line(report))
    return _exit_code_for(reports)


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


def _check(args) -> int:
    table = read_table(args.table, min_count=args.min_count)
    ineq = args.ineq
    if ineq not in CORRELATION_INEQS:
        raise ConfigError(
            f"check supports correlation inequalities {CORRELATION_INEQS}"
        )
    ids = _resolve_ids(args, ineq, by_value=True)
    report = INEQUALITIES[ineq].evaluate(table, ids)
    print(json.dumps(report.to_dict(), indent=2))
    _say(_report_line(report))
    return _exit_code_for([report])


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def _run(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.n is not None:
        overrides["n_trials"] = args.n
    if args.min_count is not None:
        overrides["min_count"] = args.min_count
    if args.definition is not None:
        overrides["retarded_definition"] = args.definition
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    result = run_scenario(config, workers=resolve_workers())
    outdir = Path(args.out)
    paths = result.write_outputs(outdir)
    _say(f"run: {len(result.log)} trials, {len(result.table.cells)} cells")
    for report in result.reports:
        _say(_report_line(report))
    for skip in result.skipped:
        _say(f"skipped {skip['name']}: {skip['reason']}")
    _say(f"outputs in {outdir}")
    print(
        json.dumps(
            {
                "trials": len(result.log),
                "reports": [r.to_dict() for r in result.reports],
                "classification": result.classification,
                "outputs": {k: str(v) for k, v in paths.items()},
            },
            indent=2,
        )
    )
    if result.violated():
        return EXIT_VIOLATED
    if not result.reports:
        return EXIT_INSUFFICIENT
    return EXIT_OK


# ----------------------------------------------------------------------
# optimize
# ----------------------------------------------------------------------


def _optimize(args) -> int:
    if args.spec is not None:
        path = Path(args.spec)
        try:
            spec = ObjectiveSpec.from_json(path.read_text())
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    else:
        fixed = _given_angles(args, QUARTET)
        retarded = _given_angles(args, RETARDED_FLAGS) or args.retarded
        free = tuple(s.strip() for s in args.free.split(",") if s.strip())
        grid_step = _flag_angle("grid-step", args.grid_step)
        if not (math.isfinite(grid_step) and grid_step > 0):
            raise ConfigError(f"--grid-step must be finite and positive, got {args.grid_step}")
        spec = ObjectiveSpec(
            model=args.model,
            inequality=args.ineq,
            direction="minimize" if args.direction in ("min", "minimize") else "maximize",
            free=free,
            fixed=fixed,
            retarded=retarded,
            grid_step=grid_step,
        )
    optimum = optimize(spec)
    print(json.dumps(optimum.to_dict(), indent=2))
    _say(
        f"optimize {spec.model} {spec.inequality} {spec.direction}: "
        f"value={optimum.value:.6f} after {optimum.evaluations} evaluations"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def _verify_checks(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    hardy = get_model("hardy")
    quantum = get_model("quantum")

    res = chsh_identity_check()
    checks.append(("chsh-identity-16-assignments", res.passed, f"checked {res.checked}"))

    res = ch_identity_check(1_000_000, seed=int(rng.integers(2**31)))
    checks.append(("ch-identity-bounds", res.passed, f"checked {res.checked}"))

    defect = hardy.hidden.normalization_defect()
    checks.append(("hidden-density-normalized", defect <= 1e-9, f"defect {defect:.2e}"))

    nodes = 1 << 20
    lam = (np.arange(nodes) + 0.5) * (math.tau / nodes)
    worst = 0.0
    for _ in range(8):
        a, br = rng.uniform(0, math.tau, 2)
        mean = float(np.mean(hardy.outcome_A(a, br, lam)))
        worst = max(worst, abs(mean))
    # midpoint error bound for a two-jump +-1 integrand at 2^20 nodes
    checks.append(("hardy-zero-marginals", worst <= 5e-6, f"worst {worst:.2e}"))

    from .estimation import quadrature_E

    worst = 0.0
    for _ in range(100):
        a, b, ar, br = rng.uniform(0, math.tau, 4)
        q = quadrature_E(hardy, a, b, ar, br, nodes=100_000)
        c = float(hardy_closed_form_E(a, b, ar, br))
        worst = max(worst, abs(q - c))
    checks.append(("quadrature-matches-closed-form", worst <= 1e-4, f"worst {worst:.2e}"))

    grid = np.linspace(0, math.tau, 64, endpoint=False)
    ga, gb = np.meshgrid(grid, grid)
    diff = np.abs(hardy_closed_form_E(ga, gb, ga, gb) - (-np.cos(ga - gb)))
    checks.append(
        ("closed-form-reduces-to-singlet", float(diff.max()) <= 1e-12,
         f"worst {float(diff.max()):.2e}")
    )

    angles = rng.uniform(0, math.tau, (8, 10_000))
    a, a2, b, b2, ar, a2r, br, b2r = angles
    s = (
        hardy_closed_form_E(a2, b2, a2r, b2r)
        + hardy_closed_form_E(a2, b, ar, b2r)
        + hardy_closed_form_E(a, b2, a2r, br)
        - hardy_closed_form_E(a, b, ar, br)
    )
    ok = bool(np.all(s >= -2 - 1e-9) and np.all(s <= 2 + 1e-9))
    checks.append(("lhv-retarded-chsh-bound", ok, f"range [{s.min():.6f}, {s.max():.6f}]"))

    ch = (
        hardy_closed_form_p12(a2, b2, a2r, b2r)
        + hardy_closed_form_p12(a2, b, ar, b2r)
        + hardy_closed_form_p12(a, b2, a2r, br)
        - hardy_closed_form_p12(a, b, ar, br)
        - 0.5
        - 0.5
    )
    ok = bool(np.all(ch >= -1 - 1e-9) and np.all(ch <= 1e-9))
    checks.append(("lhv-retarded-ch-bound", ok, f"range [{ch.min():.6f}, {ch.max():.6f}]"))

    worst = 0.0
    for _ in range(50):
        a1, b1 = rng.uniform(0, math.tau, 2)
        probs = quantum_joint_probs(a1, b1)
        e = probs[0] - probs[1] - probs[2] + probs[3]
        worst = max(worst, abs(sum(probs) - 1.0), abs(e - float(quantum.E(a1, b1))))
    checks.append(("quantum-joint-consistent", worst <= 1e-12, f"worst {worst:.2e}"))

    worst = 0.0
    same, general = INEQUALITIES["same_retarded_chsh"], INEQUALITIES["retarded_chsh"]
    tied = dict(zip(ANGLE_FLAGS, QUARTET + ("a", "a", "b", "b")))
    for _ in range(100):
        amap = dict(zip(QUARTET, rng.uniform(0, math.tau, 4)))
        corr = analytic_correlations(hardy, amap, general.cells(tied))
        r1 = same.evaluate(corr, tied)
        r2 = general.evaluate(corr, tied)
        worst = max(worst, abs(r1.value - r2.value))
    checks.append(("same-retarded-reduction-exact", worst == 0.0, f"worst {worst:.2e}"))

    # one changed end cannot violate the probability bound (quantum inputs)
    dgrid = np.arange(0.0, math.tau, math.pi / 180)
    v = 2.0 * (1.0 - np.cos(dgrid)) / 4.0 - 1.0  # a2 = a case collapses
    ok = bool(np.all(v >= -1 - 1e-12) and np.all(v <= 1e-12))
    checks.append(("ch-one-end-cannot-violate", ok, f"range [{v.min():.6f}, {v.max():.6f}]"))

    return checks


def _verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = _verify_checks(rng)
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name} ({detail})")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_ERROR


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _add_angle_flags(parser: argparse.ArgumentParser) -> None:
    for name in ANGLE_FLAGS:
        parser.add_argument(f"--{name}", default=None, metavar="ANGLE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbell",
        description="Bell-test simulation and inequality evaluation with "
        "light-cone retarded settings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="rbell_out")
    p_run.add_argument("--n", type=int, default=None, help="override n_trials")
    p_run.add_argument("--min-count", type=int, default=None, dest="min_count")
    p_run.add_argument(
        "--definition", choices=("simple", "predictive"), default=None
    )
    p_run.set_defaults(func=_run)

    p_an = sub.add_parser("analytic", help="evaluate an inequality exactly")
    p_an.add_argument("model", help=f"model name ({', '.join(model_names())})")
    p_an.add_argument("ineq", help=f"one of {', '.join(ANALYTIC_INEQS)}")
    _add_angle_flags(p_an)
    p_an.add_argument("--n", type=int, default=0,
                      help="also run a Monte Carlo cross-check with n trials per cell")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.set_defaults(func=_analytic)

    p_opt = sub.add_parser("optimize", help="search settings for an extremum")
    p_opt.add_argument("--spec", default=None, help="objective spec JSON file")
    p_opt.add_argument("--model", default="quantum")
    p_opt.add_argument("--ineq", default="chsh")
    p_opt.add_argument("--direction", choices=("min", "max", "minimize", "maximize"),
                       default="min")
    p_opt.add_argument("--free", default="a,a2,b,b2")
    p_opt.add_argument("--retarded", choices=("tied", "free"), default="tied")
    p_opt.add_argument("--grid-step", default="pi/24", dest="grid_step")
    _add_angle_flags(p_opt)
    p_opt.set_defaults(func=_optimize)

    p_chk = sub.add_parser("check", help="evaluate an inequality over a stored table")
    p_chk.add_argument("--table", required=True)
    p_chk.add_argument("--ineq", default="retarded_chsh")
    p_chk.add_argument("--min-count", type=int, default=None, dest="min_count")
    for name in ANGLE_FLAGS:
        p_chk.add_argument(f"--{name}", default=None, metavar="LABEL_ID")
    p_chk.set_defaults(func=_check)

    p_ver = sub.add_parser("verify", help="run the identity and invariant battery")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # checked here, not by argparse, whose exit code 2 means "insufficient data"
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.command == "run" and args.n is not None and args.n < 1:
            raise ConfigError(f"--n must be at least 1, got {args.n}")
        if getattr(args, "min_count", None) is not None and args.min_count < 0:
            raise ConfigError(f"--min-count must be non-negative, got {args.min_count}")
        return args.func(args)
    except CellError as exc:
        _say(f"error: {exc}")
        return EXIT_INSUFFICIENT
    except (RbellError, ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
