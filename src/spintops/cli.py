"""Command-line interface: run trajectories, reversal and convergence checks,
period estimation. CSV is the only output format; plotting stays external.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import NumericalError
from .harness import (
    MODELS,
    ConfigError,
    PeriodEstimationError,
    RunConfig,
    convergence_study,
    drift_report,
    estimate_period,
    reversal_test,
    run,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _reals(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(float(p) for p in parts)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--scheme", required=True,
                   choices=list(dict.fromkeys(s for m in MODELS.values() for s in m.schemes)))
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--init", help="6 comma-separated reals (w,gamma or m,a)")
    p.add_argument("--inertia", help="A,B,C", default="1,2,3")
    p.add_argument("--gravity", help="x0,y0,z0 (times mg=1)", default="0,0,0")
    p.add_argument("--p", dest="vertical", help="constant vertical (lagrange)",
                   default="0,0,1")
    p.add_argument("--out", dest="out_path")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        model=args.model,
        scheme=args.scheme,
        h=args.h,
        steps=args.steps,
        stride=args.stride,
        c0=args.c0,
        inertia=_reals(args.inertia),
        gravity=_reals(args.gravity),
        vertical=_reals(args.vertical),
        init=_reals(args.init) if args.init else None,
        out_path=args.out_path,
    ).validated()


def _cmd_run(args) -> int:
    traj = run(_config_from_args(args))
    report = drift_report(traj)
    print(f"ran {args.steps} steps of {args.model}/{args.scheme} at h={args.h}")
    for name, d in report.per_invariant.items():
        print(
            f"  {name}: initial={d.initial:.15g} min={d.min:.15g} "
            f"max={d.max:.15g} max|dev|={d.max_abs_deviation:.3e}"
        )
    if args.out_path:
        print(f"wrote {args.out_path}")
    return 0


def _cmd_reverse(args) -> int:
    err = reversal_test(_config_from_args(args), args.n)
    print(f"round-trip error after {args.n} steps forward + backward: {err:.6e}")
    return 0


def _cmd_converge(args) -> int:
    rows = convergence_study(_config_from_args(args), list(_reals(args.h_list)), args.t_end)
    print(f"{'h':>12} {'endpoint error':>16} {'observed order':>15}")
    for h, err, order in rows:
        order_s = f"{order:.3f}" if order is not None else "-"
        print(f"{h:>12g} {err:>16.6e} {order_s:>15}")
    return 0


def _cmd_period(args) -> int:
    config = _config_from_args(args)
    model = MODELS[config.model]
    if args.column not in model.columns + model.invariant_names:
        raise ConfigError(f"model {config.model!r} has no column {args.column!r}")
    traj = run(config)
    period = estimate_period(traj.column(args.column), args.h * args.stride)
    print(f"estimated period of {args.column}: {period:.6g}")
    return 0


def _join_list_values(argv: list[str]) -> list[str]:
    """Join each comma list that starts with '-' to the flag before it, as
    --flag=value: argparse reads a value such as -1,0,0 as an unknown option."""
    out: list[str] = []
    for arg in argv:
        if arg.startswith("-") and "," in arg and out and out[-1].startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spintops",
                                     description="Discrete spinning-top schemes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate and report invariant drift")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_rev = sub.add_parser("reverse", help="forward/backward round-trip error")
    _add_run_flags(p_rev)
    p_rev.add_argument("--n", type=int, default=1000, help="steps each direction")
    p_rev.set_defaults(func=_cmd_reverse)

    p_conv = sub.add_parser("converge", help="observed-order study")
    _add_run_flags(p_conv)
    p_conv.add_argument("--h-list", required=True, help="comma-separated step sizes")
    p_conv.add_argument("--t-end", type=float, required=True)
    p_conv.set_defaults(func=_cmd_converge)

    p_per = sub.add_parser("period", help="dominant oscillation period of a column")
    _add_run_flags(p_per)
    p_per.add_argument("--column", default="g3")
    p_per.set_defaults(func=_cmd_period)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ConfigError, PeriodEstimationError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
