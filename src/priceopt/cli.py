"""Command-line interface.

Subcommands: gen, solve, oracle, project, compare, export-mip, sweep, suite.
Exit codes: 0 success, 1 usage, 2 data/validation, 3 capacity guard,
4 numeric failure.  The default seed can be overridden with the SOLVER_SEED
environment variable, which only a command that uses the default reads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

import numpy as np

from . import generator, lpformat, numtext, oracle, storage
from .errors import CapacityError, NumericError, PriceOptError, ValidationError
from .instance import Instance, profit_z, spectral_bounds, with_k
from .projection import certify_in_H, project_feasible
from .solver import SolveReport, SolverParams, gpa_solve, multi_start, performance_bound

USAGE_EXIT = 1
DATA_EXIT = 2
CAPACITY_EXIT = 3
NUMERIC_EXIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, with help text
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _seed(args) -> int:
    """``--seed`` if given, else ``SOLVER_SEED``, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("SOLVER_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"SOLVER_SEED must be an integer, got {raw!r}") from None


def _parse_number(token: str, option: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{option} expects finite numbers, got {token.strip()!r}")
    return value


def _parse_delta_mode(text: str) -> tuple[str, float]:
    kind, _, value = text.partition(":")
    kind = kind.strip().lower()
    if kind in ("const", "c"):
        return ("const", _parse_number(value, "--delta"))
    if kind in ("frac", "fraction", "f"):
        return ("fraction", _parse_number(value, "--delta"))
    raise ValidationError(f"delta mode must look like const:0.5 or frac:0.1, got {text!r}")


def _parse_bounds_mode(text: str) -> Optional[tuple[float, float, float, float]]:
    if text.strip().lower() == "none":
        return None
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise ValidationError(f"bounds must be 'none' or four comma-separated numbers, got {text!r}")
    return tuple(_parse_number(p, "--bounds") for p in parts)  # type: ignore[return-value]


def _solver_params(args) -> SolverParams:
    return SolverParams(
        L_mode=args.l_mode,
        eps=args.eps,
        max_iters=args.max_iters,
        refine=args.refine,
        seed=_seed(args),
    )


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l-mode", choices=("gershgorin", "power"), default="gershgorin")
    p.add_argument("--eps", type=float, default=1e-9, help="relative stopping threshold")
    p.add_argument("--max-iters", type=int, default=50_000)
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="priceopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k-frac", type=float, default=0.10)
    g.add_argument("--delta", default="const:1.0", help="const:X or frac:R")
    g.add_argument("--bounds", default="none", help="none or l_lo,l_hi,u_lo,u_hi")
    g.add_argument("--seed", type=int)
    g.add_argument("--mixed-signs", action="store_true")
    g.add_argument("--no-dominance-fix", action="store_true")
    g.add_argument("--literal-sign", action="store_true")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="multi-start solve of an instance file")
    s.add_argument("--instance", required=True)
    s.add_argument("--starts", type=int, default=5, choices=range(1, 6))
    s.add_argument("--bounds-report", action="store_true", help="attach suboptimality bounds to the best run")
    s.add_argument("--report", required=True)
    _add_solver_flags(s)

    o = sub.add_parser("oracle", help="exhaustive global optimum (small instances only)")
    o.add_argument("--instance", required=True)
    o.add_argument("--out", required=True)

    pr = sub.add_parser("project", help="project a query point onto the feasible set")
    pr.add_argument("--instance", required=True)
    pr.add_argument("--q", required=True, help="file of whitespace-separated floats")
    pr.add_argument("--out", required=True)

    c = sub.add_parser("compare", help="adjusted objective gap between two solutions")
    c.add_argument("--base-profit", required=True)
    c.add_argument("--a", required=True, help="reference solver profit")
    c.add_argument("--b", required=True, help="candidate solver profit")

    e = sub.add_parser("export-mip", help="write the MIP model in LP file syntax")
    e.add_argument("--instance", required=True)
    e.add_argument("--big-m", type=float, default=None)
    e.add_argument("--out", required=True)

    w = sub.add_parser("sweep", help="re-solve under a list of change budgets")
    w.add_argument("--instance", required=True)
    w.add_argument("--k-list", default="0.02,0.05,0.1,0.2,0.4,1.0")
    w.add_argument("--out", required=True)
    _add_solver_flags(w)

    st = sub.add_parser("suite", help="generate and solve the benchmark grid end to end")
    st.add_argument("--scale", choices=("desk", "full"), default="desk")
    st.add_argument("--out-dir", required=True)
    st.add_argument("--seed", type=int)
    return parser


def _load_instance(path: str) -> Instance:
    if not os.path.exists(path):
        raise ValidationError(f"instance file not found: {path}")
    return storage.read_instance(path)


def _cmd_gen(args) -> int:
    config = generator.GenConfig(
        n=args.n,
        k_fraction=args.k_frac,
        delta_mode=_parse_delta_mode(args.delta),
        bounds_mode=_parse_bounds_mode(args.bounds),
        dominance_fix=not args.no_dominance_fix,
        allow_mixed_signs=args.mixed_signs,
        literal_sign=args.literal_sign,
        seed=_seed(args),
    )
    instance = generator.generate(config)
    storage.write_instance(instance, args.out)
    print(f"wrote instance n={instance.n} k={instance.k} -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    params = _solver_params(args)
    best, reports = multi_start(instance, params, n_starts=args.starts)
    if args.bounds_report:
        if instance.bounds is not None:
            print("suboptimality bounds unavailable (valid for the unbounded model only)")
        else:
            lam_n = spectral_bounds(instance, want_lambda_min=True).lambdan_est
            if best.stationary and lam_n is not None:
                _, best.bound_ii = performance_bound(instance, best, lam_n)
                print(f"suboptimality bounds attached (lambda_n estimated: {lam_n:.6g})")
            else:
                print("suboptimality bounds unavailable (needs a converged lambda_n and a stationary point)")
    storage.write_report(reports, args.report)
    total_wall = sum(r.wall_time for r in reports)
    print(
        f"best start {best.start_id}: profit {best.final_profit:.6g} "
        f"({best.improvement_pct:+.2f}% vs baseline), stationary={int(best.stationary)}, "
        f"{total_wall:.2f}s over {len(reports)} starts"
    )
    return 0


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    p_star, q_star = oracle.global_optimum(instance)
    z_star = profit_z(instance, p_star)
    text = (
        f"q_value {storage.format_float(q_star)}\n"
        f"profit {storage.format_float(z_star)}\n"
        f"p {numtext.format_floats(p_star)}\n"
    )
    storage.atomic_write_text(args.out, text)
    print(f"global optimum: profit {z_star:.6g}")
    return 0


def _cmd_project(args) -> int:
    instance = _load_instance(args.instance)
    q = storage.read_vector(args.q, instance.n)
    p = project_feasible(instance, q)
    with np.errstate(over="ignore"):
        dist_sq = float(np.sum((p - q) ** 2))
    if not math.isfinite(dist_sq):
        raise NumericError("squared distance from the query to the feasible set overflows")
    ok = certify_in_H(instance, q, p)
    text = (
        f"in_H {int(ok)}\n"
        f"dist_sq {storage.format_float(dist_sq)}\n"
        f"changed {int(np.count_nonzero(p != instance.p0))}\n"
        f"p {numtext.format_floats(p)}\n"
    )
    storage.atomic_write_text(args.out, text)
    print(f"projected query: {int(np.count_nonzero(p != instance.p0))} changes, dist_sq {dist_sq:.6g}")
    return 0


def _cmd_compare(args) -> int:
    gap = storage.adjusted_gap(
        _parse_number(args.base_profit, "--base-profit"),
        _parse_number(args.a, "--a"),
        _parse_number(args.b, "--b"),
    )
    print(f"{gap:.6g}")
    return 0


def _cmd_export(args) -> int:
    instance = _load_instance(args.instance)
    lpformat.export_mip_lp(instance, args.out, big_m=args.big_m)
    print(f"wrote LP model -> {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    instance = _load_instance(args.instance)
    fractions = [_parse_number(t, "--k-list") for t in args.k_list.split(",") if t.strip()]
    if not fractions:
        raise ValidationError("--k-list must contain at least one fraction")
    for frac in fractions:
        if not 0.0 < frac <= 1.0:
            raise ValidationError(f"--k-list fractions must be in (0, 1], got {frac:g}")
    params = _solver_params(args)
    reports: list[SolveReport] = []
    warm: Optional[np.ndarray] = None
    for frac in fractions:
        k = max(1, min(instance.n, round(frac * instance.n)))
        inst_k = with_k(instance, k)
        best, _ = multi_start(inst_k, params)
        if warm is not None:
            warmed = gpa_solve(inst_k, warm, params)
            if warmed.final_q_obj < best.final_q_obj:
                best = warmed
                best.start_id = 6
        best.instance_id = f"k_frac={frac:g}"
        reports.append(best)
        warm = best.final_p
    storage.write_report(reports, args.out)
    print(f"swept {len(fractions)} budgets -> {args.out}")
    return 0


def _cmd_suite(args) -> int:
    configs = generator.benchmark_suite(args.scale, base_seed=_seed(args))
    os.makedirs(args.out_dir, exist_ok=True)
    inst_dir = os.path.join(args.out_dir, "instances")
    os.makedirs(inst_dir, exist_ok=True)
    all_reports: list[SolveReport] = []
    for idx, config in enumerate(configs):
        instance = generator.generate(config)
        mode, value = config.delta_mode
        bounds_tag = "none" if config.bounds_mode is None else "-".join(f"{b:g}" for b in config.bounds_mode)
        tag = f"n{config.n}_d{value:g}_b{bounds_tag}"
        storage.write_instance(instance, os.path.join(inst_dir, f"{tag}.txt"))
        params = SolverParams(seed=config.seed)
        best, reports = multi_start(instance, params)
        for r in reports:
            r.instance_id = tag
        all_reports.extend(reports)
        print(f"[{idx + 1}/{len(configs)}] {tag}: best profit {best.final_profit:.6g}")
    storage.write_report(all_reports, os.path.join(args.out_dir, "results.csv"))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "project": _cmd_project,
    "compare": _cmd_compare,
    "export-mip": _cmd_export,
    "sweep": _cmd_sweep,
    "suite": _cmd_suite,
}


def run(argv: Optional[list[str]] = None) -> int:
    args = None
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAPACITY_EXIT
    except MemoryError:
        # args is None when parsing itself ran out of memory
        print(f"error: {'priceopt' if args is None else args.command}: out of memory", file=sys.stderr)
        return CAPACITY_EXIT
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except PriceOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
