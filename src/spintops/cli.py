"""Command-line interface: run trajectories, reversal and convergence checks,
period estimation. CSV is the only output format; plotting stays external.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys

from .algebra import NumericalError
from .harness import (
    MODELS,
    ConfigError,
    PeriodEstimationError,
    RunConfig,
    Trajectory,
    convergence_study,
    drift_report,
    estimate_period,
    reversal_test,
    run,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# The RunConfig fields given on the command line as comma lists.
_VECTORS = ("inertia", "gravity", "vertical", "init")


def _reals(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(float(p) for p in parts)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags every command takes, one per RunConfig field but the counts.
    A parameter flag that is not given keeps RunConfig's default."""
    p.add_argument("--model", required=True, choices=MODELS)
    p.add_argument("--scheme", required=True,
                   choices=list(dict.fromkeys(s for m in MODELS.values() for s in m.schemes)))
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--c0", type=float)
    p.add_argument("--init", help="6 comma-separated reals (w,gamma or m,a)")
    p.add_argument("--inertia", help="A,B,C")
    p.add_argument("--gravity", help="x0,y0,z0 (times mg=1)")
    p.add_argument("--p", dest="vertical", help="constant vertical (lagrange)")


def _check_out(path: str | None) -> None:
    """Refuse, before the run, an --out path that open() would refuse for
    where it points, with the reason open() gives: an empty path, a directory
    or a path that ends in a separator, or one whose directory is missing or
    is a file."""
    if path is None:
        return
    if not path:
        raise ConfigError(f"cannot write --out '': {os.strerror(errno.ENOENT)}")
    try:
        parent = os.stat(os.path.dirname(path.rstrip(os.sep)) or ".")
        reason = None if stat.S_ISDIR(parent.st_mode) else errno.ENOTDIR
    except OSError as e:
        reason = e.errno
    if reason is None and (os.path.isdir(path) or path.endswith(os.sep)):
        reason = errno.EISDIR
    if reason is not None:
        raise ConfigError(f"cannot write --out {path!r}: {os.strerror(reason)}")


def _run_to_csv(config: RunConfig, path: str | None) -> Trajectory:
    """Run config and write the trajectory to the --out path, if any. A path
    it cannot write is a ConfigError, raised before the run where it can be."""
    _check_out(path)
    traj = run(config)
    if path:
        try:
            traj.to_csv(path)
        except OSError as e:
            raise ConfigError(f"cannot write --out {path!r}: {e.strerror or e}") from e
    return traj


def _cmd_run(config: RunConfig, args) -> int:
    report = drift_report(_run_to_csv(config, args.out_path))
    print(f"ran {config.steps} steps of {config.model}/{config.scheme} at h={config.h}")
    for name, d in report.items():
        print(f"  {name}: initial={d.initial:.15g} min={d.min:.15g} "
              f"max={d.max:.15g} max|dev|={d.max_abs_deviation:.3e}")
    if args.out_path:
        print(f"wrote {args.out_path}")
    return 0


def _cmd_reverse(config: RunConfig, args) -> int:
    err = reversal_test(config, args.n)
    print(f"round-trip error after {args.n} steps forward + backward: {err:.6e}")
    return 0


def _cmd_converge(config: RunConfig, args) -> int:
    rows = convergence_study(config, list(_reals(args.h_list)), args.t_end)
    print(f"{'h':>12} {'endpoint error':>16} {'observed order':>15}")
    for h, err, order in rows:
        order_s = f"{order:.3f}" if order is not None else "-"
        print(f"{h:>12g} {err:>16.6e} {order_s:>15}")
    return 0


def _cmd_period(config: RunConfig, args) -> int:
    model = MODELS[config.model]
    if args.column not in model.columns + model.invariant_names:
        raise ConfigError(f"model {config.model!r} has no column {args.column!r}")
    if args.column in model.schemes[config.scheme].exact:
        raise ConfigError(f"{config.model}/{config.scheme} keeps {args.column!r} exact, "
                          "so it holds only roundoff and has no period")
    traj = _run_to_csv(config, args.out_path)
    period = estimate_period(traj.values(args.column), config.h * config.stride)
    print(f"estimated period of {args.column}: {period:.6g}")
    return 0


def _is_negative_value(arg: str) -> bool:
    """Whether arg is a comma list or a number, such as -1e-3 or -inf, that
    starts with '-'."""
    if not arg.startswith("-"):
        return False
    try:
        float(arg)
    except ValueError:
        return "," in arg
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join each negative value to the flag before it, as --flag=value:
    argparse reads a value such as -1,0,0 or -1e-3 as an unknown option.
    --help takes no value, so it is left to print help."""
    out: list[str] = []
    for arg in argv:
        if _is_negative_value(arg) and out and out[-1].startswith("--") and out[-1] != "--help":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spintops",
                                     description="Discrete spinning-top schemes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate and report invariant drift")
    p_rev = sub.add_parser("reverse", help="forward/backward round-trip error")
    p_conv = sub.add_parser("converge", help="observed-order study")
    p_per = sub.add_parser("period", help="dominant oscillation period of a column")
    for p in (p_run, p_rev, p_conv, p_per):
        _add_run_flags(p)
        p.set_defaults(parser=p)
    # reverse validates --steps but does not use it, as converge does --h.
    for p in (p_run, p_rev, p_per):
        p.add_argument("--steps", type=int)
    for p in (p_run, p_per):
        p.add_argument("--stride", type=int, default=10)
        p.add_argument("--out", dest="out_path")
    p_run.set_defaults(func=_cmd_run)
    p_rev.add_argument("--n", type=int, default=1000, help="steps each direction")
    p_rev.set_defaults(func=_cmd_reverse)
    p_conv.add_argument("--h-list", required=True, help="comma-separated step sizes")
    p_conv.add_argument("--t-end", type=float, required=True)
    p_conv.set_defaults(func=_cmd_converge)
    p_per.add_argument("--column", default="g3")
    p_per.set_defaults(func=_cmd_period)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args, unknown = build_parser().parse_known_args(
                _join_negative_values(sys.argv[1:] if argv is None else argv))
            if unknown:
                # Reported with the usage of the command, not of spintops.
                args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
            # Only the flags given reach RunConfig, which supplies the rest:
            # a flag left out, or one the command does not take, reads None.
            given = {name: getattr(args, name, None) for name in RunConfig._fields}
            config = RunConfig(**{name: _reals(value) if name in _VECTORS else value
                                  for name, value in given.items() if value is not None})
            return args.func(config.validated(), args)
        except (ConfigError, PeriodEstimationError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except NumericalError as e:
            print(f"numerical failure: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # Nothing reads stdout any more: point it at the null device, so that
        # the flush at interpreter exit has somewhere to write.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
