"""Outside-in benchmark for spintops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout: the package is imported from `src/` there
and nowhere else, and every file the benchmark writes goes to `.bench_out/`.
It drives spintops only through its public entry points, `harness.run` and
the `spintops` CLI (which runs `reversal_test`, `convergence_study` and
`estimate_period`), in a closed loop: one client, one operation at a time.
It repeats passes of the workload until `--seconds` is used up and reports
medians over passes. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics
with `--trace 1`.

Workloads (the "why" of each is in BENCHMARK.json):

- kowalevski-dense: `harness.run` on the Kowalevski model at its default
  data, h=1e-3, stride 1, once per scheme hk, hybrid, bohlin-a/b/c.
- free-heavy-sparse: `harness.run` sampling only the endpoint, on seeded
  states: Euler top with bs and symmetric (inertia 1,2,3), Lagrange top with
  bs; h=1e-2.
- cli-diagnostics: the README's CLI commands, each in a fresh interpreter.
  `period` needs 50 000 steps (about 6 s), so it runs once per run, before
  the passes; the others run in every pass.

Every end-to-end metric is printed on every workload. A per-scheme rate or
command time that a workload's own operations do not produce comes from a
small fill-in operation of the same sampling shape, run after the
workload's own operations in each pass and left out of `wall_s` and
`steps_per_s`. The report marks each metric with its source.

The traced run (`--trace 1`) alternates untraced and traced passes. A traced
pass wraps every public function of the spintops modules at its import
sites (see spans.py), in this process and, through cli_child.py, in each
CLI child; fill-in operations are traced too. `trace.overhead_ratio` is the
traced `wall_s` over the untraced one, minus 1.

Times are normalized for machine speed. The shared machine this was written
on runs for seconds at a time up to 1.8 times slower than usual, which moved
run medians of raw times by 20-50 % between runs. So before each operation
the benchmark times `reference_work()`, fixed code of its own that never
calls spintops, and reports every time t as t * REF_NOMINAL_S / r, with r
the mean of the reference times just before and just after it: seconds at
the machine speed at which the reference takes REF_NOMINAL_S. A change to
spintops moves t and not r. The process and its CLI children are kept on
one CPU so that r is measured where the operation runs. The report gives
the measured speed factors.

Final states and CLI outputs are compared with values recorded from the
code at the parent commit of this benchmark (expected.json) or with an
independent re-implementation (checks.py). An operation that raises, exits
non-zero or fails a check is counted as failed; the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_SAMPLES = 7
CMD_TIMEOUT_S = 90
# Median of reference_work() on a 2-core Intel Xeon at its usual speed.
REF_NOMINAL_S = 0.006

KOW_H = 1e-3
FREE_H = 1e-2
# Metric name -> (model, scheme).
SCHEME_OF = {
    "steps_per_s.hk": ("kowalevski", "hk"),
    "steps_per_s.hybrid": ("kowalevski", "hybrid"),
    "steps_per_s.bohlin-a": ("kowalevski", "bohlin-a"),
    "steps_per_s.bohlin-b": ("kowalevski", "bohlin-b"),
    "steps_per_s.bohlin-c": ("kowalevski", "bohlin-c"),
    "steps_per_s.bs-euler": ("euler", "bs"),
    "steps_per_s.symmetric": ("euler", "symmetric"),
    "steps_per_s.bs-lagrange": ("lagrange", "bs"),
}


@dataclass(frozen=True)
class Sizes:
    kow_steps: int
    bs_steps: int
    sym_steps: int
    states: int  # seeded Euler and Lagrange states per scheme


# Short operations and many passes: a median over many short samples stays
# put where one over a few long ones does not. The cost of a symmetric step depends on the state (4 to 5.5 fixed-point
# iterations), so the seeded schemes run over several states per pass.
FULL = Sizes(kow_steps=1000, bs_steps=500, sym_steps=100, states=8)
# Fill-in operations, and every operation under --tiny.
SMALL = Sizes(kow_steps=300, bs_steps=120, sym_steps=30, states=8)

_KOW = ["--model", "kowalevski", "--h", "0.001"]
# (metric, integrator steps, CLI arguments); "OUT" stands for the CSV path.
CLI_README = [
    ("cmd_s.run", 2000, ["run", *_KOW, "--scheme", "hk", "--steps", "2000", "--stride", "10", "--out", "OUT"]),
    ("cmd_s.reverse", 2000, ["reverse", *_KOW, "--scheme", "hk", "--steps", "1000", "--n", "1000"]),
    ("cmd_s.reverse", 2000, ["reverse", *_KOW, "--scheme", "bohlin-a", "--steps", "1000", "--n", "1000"]),
    # 50 + 100 + 200 scheme steps and 4000 RK4 reference steps at min(h)/20
    ("cmd_s.converge", 4350, ["converge", "--model", "kowalevski", "--scheme", "hybrid", "--h", "0.01",
                              "--h-list", "0.02,0.01,0.005", "--t-end", "1.0"]),
    # Two periods of g3 need the README's 50 000 steps; fewer is a failure.
    # At about 6 s it runs once per run, before the passes (see ONCE).
    ("cmd_s.period", 50000, ["period", *_KOW, "--scheme", "hk", "--steps", "50000", "--stride", "10",
                             "--column", "g3"]),
]
CLI_SMALL = [
    ("cmd_s.run", 500, ["run", *_KOW, "--scheme", "hk", "--steps", "500", "--stride", "10", "--out", "OUT"]),
    ("cmd_s.reverse", 200, ["reverse", *_KOW, "--scheme", "hk", "--steps", "100", "--n", "100"]),
    ("cmd_s.reverse", 200, ["reverse", *_KOW, "--scheme", "bohlin-a", "--steps", "100", "--n", "100"]),
    ("cmd_s.converge", 435, ["converge", "--model", "kowalevski", "--scheme", "hybrid", "--h", "0.01",
                             "--h-list", "0.02,0.01,0.005", "--t-end", "0.1"]),
    ("cmd_s.period", 1000, ["period", "--model", "euler", "--scheme", "bs", "--h", "0.02", "--steps", "1000",
                            "--stride", "1", "--inertia", "1,2,3", "--init", "1,1,1,1,0,0", "--column", "w1"]),
]
# Workload operations too long to repeat in every pass: run once, before the passes.
ONCE = {"cmd_s.period"}


def seeded_states(seed: int, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """n Euler-top states (w, gamma) and n Lagrange states (m, a)."""
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    euler = [np.concatenate([unit() * rng.uniform(0.5, 1.5), unit()]) for _ in range(n)]
    lagrange = [np.concatenate([rng.normal(size=3), unit()]) for _ in range(n)]
    return euler, lagrange


def reference_work() -> float:
    """Time a fixed piece of work with the same mix of interpreter and
    small-array numpy calls as a spintops step, in code of the benchmark's own."""
    t0 = time.perf_counter()
    x, v = np.array([0.3, -0.2, 0.9]), np.array([1.0, 0.5, -0.25])
    for _ in range(150):
        k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        x = np.linalg.solve(np.eye(3) + 0.01 * k, x + 0.01 * np.cross(x, v))
        x = np.array([float(c) for c in x])
    return time.perf_counter() - t0


@dataclass
class Op:
    label: str
    metric: str  # the per-scheme rate or command time this operation feeds
    steps: int  # integrator steps it performs
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    core: bool  # part of the workload proper, not a fill-in
    is_cli: bool = False


@dataclass
class PassRecord:
    traced: bool
    wall_s: float = 0.0
    steps: int = 0
    per_metric: dict = field(default_factory=dict)  # metric -> [steps, seconds]
    branch_flips: int = 0
    nonzero_exits: int = 0


class Bench:
    """One benchmark run: its workload, inputs, tracer and measurements."""

    def __init__(self, workload: str, seed: int, trace: bool, tiny: bool, extra_ops: tuple = ()):
        self.workload, self.seed, self.trace, self.tiny = workload, seed, trace, tiny
        self.extra_ops = extra_ops
        self.sizes = SMALL if tiny else FULL
        # One CPU for this process and the CLI children it starts, so the
        # reference work and each operation run on the same core.
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        sys.path.insert(0, str(ROOT / "src"))
        self.harness = importlib.import_module("spintops.harness")
        self.cli = importlib.import_module("spintops.cli")
        import checks
        from spans import Tracer

        self.checks = checks
        self.tracer = Tracer() if trace else None
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        OUT_DIR.mkdir(exist_ok=True)
        self.csv_path = OUT_DIR / f"traj-{os.getpid()}.csv"
        self.child_spans = OUT_DIR / f"child-spans-{os.getpid()}.npz"
        self.import_s: list[tuple[int, float]] = []  # (pass id, seconds)
        self.speed: dict[int, list[float]] = {}  # pass id -> REF_NOMINAL_S / reference time
        self._last_ref: float | None = None
        self.once_s: dict[str, float] = {}  # label -> seconds of each ONCE operation
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.current_pass = 0
        self.current: PassRecord | None = None

    # --- operations ---------------------------------------------------------

    def scheme_op(self, metric: str, init, h: float, steps: int, stride: int, core: bool) -> Op:
        model, scheme = SCHEME_OF[metric]
        if steps % stride:
            raise ValueError(f"{steps} steps do not end on a sample at stride {stride}")
        cfg = dict(model=model, scheme=scheme, h=h, steps=steps, stride=stride,
                   inertia=(1.0, 2.0, 3.0), vertical=(0.0, 0.0, 1.0), init=init)

        def call():
            return self.harness.run(self.harness.RunConfig(**cfg)).states

        # The reference final state of a seeded run is computed here, before
        # any timing starts.
        if model == "euler":
            want = self.checks.oracle_euler(scheme, init, h, steps)
        elif model == "lagrange":
            want = self.checks.oracle_lagrange(init, h, steps)

        def check(states):
            if model == "kowalevski":
                if stride == 1:
                    self.current.branch_flips += self.checks.branch_flips(states, h)
                return self.checks.check_kowalevski(
                    states, scheme, f"kowalevski/{scheme}/h={h}/steps={steps}")
            if model == "euler":
                return self.checks.check_euler(states, scheme, want)
            return self.checks.check_lagrange(states, h, want)

        return Op(f"{model}/{scheme}", metric, steps, call, check, core)

    def cli_op(self, metric: str, steps: int, template: list[str], core: bool, in_process: bool) -> Op:
        key = " ".join(template)
        args = [str(self.csv_path) if a == "OUT" else a for a in template]
        csv = self.csv_path if "OUT" in template else None

        def call_in_process():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(args)
                except SystemExit as e:  # argparse rejects its input this way
                    code = e.code if isinstance(e.code, int) else 1
            return code, out.getvalue(), err.getvalue()

        def call_subprocess():
            traced = self.tracer is not None and self.current.traced
            head = ([sys.executable, str(HERE / "cli_child.py"), str(self.child_spans)] if traced
                    else [sys.executable, "-m", "spintops.cli"])
            cp = subprocess.run(head + args, cwd=ROOT, env=self.env, capture_output=True,
                                text=True, timeout=CMD_TIMEOUT_S)
            if traced and self.child_spans.exists():
                extra = self.tracer.merge(str(self.child_spans), self.current_pass)
                self.import_s.append((self.current_pass, float(extra["import_s"])))
                self.child_spans.unlink()
            return cp.returncode, cp.stdout, cp.stderr

        def check(out):
            return self.checks.check_cli(key, *out, csv)

        return Op(f"cli {key}", metric, steps, call_in_process if in_process else call_subprocess,
                  check, core, is_cli=True)

    def ops(self) -> list[Op]:
        s = self.sizes
        euler, lagrange = seeded_states(self.seed, max(s.states, SMALL.states))
        core: list[Op] = []
        if self.workload == "kowalevski-dense":
            stride = 1
            for m in ("hk", "hybrid", "bohlin-a", "bohlin-b", "bohlin-c"):
                core.append(self.scheme_op(f"steps_per_s.{m}", None, KOW_H, s.kow_steps, 1, True))
        elif self.workload == "free-heavy-sparse":
            stride = 0  # endpoint only
            for y in euler[: s.states]:
                core.append(self.scheme_op("steps_per_s.bs-euler", y, FREE_H, s.bs_steps, s.bs_steps, True))
                core.append(self.scheme_op("steps_per_s.symmetric", y, FREE_H, s.sym_steps, s.sym_steps, True))
            for y in lagrange[: s.states]:
                core.append(self.scheme_op("steps_per_s.bs-lagrange", y, FREE_H, s.bs_steps, s.bs_steps, True))
        elif self.workload == "cli-diagnostics":
            stride = 10  # the CLI's default
            for metric, steps, template in (CLI_SMALL if self.tiny else CLI_README):
                core.append(self.cli_op(metric, steps, template, True, in_process=False))
        else:
            raise ValueError(f"unknown workload {self.workload!r}")

        covered = {op.metric for op in core if op.metric not in ONCE}
        fill: list[Op] = []
        for metric, (model, _) in SCHEME_OF.items():
            if metric in covered:
                continue
            inits, h, steps = {
                "kowalevski": ([None], KOW_H, SMALL.kow_steps),
                "euler": (euler[: SMALL.states], FREE_H,
                          SMALL.sym_steps if metric.endswith("symmetric") else SMALL.bs_steps),
                "lagrange": (lagrange[: SMALL.states], FREE_H, SMALL.bs_steps),
            }[model]
            for init in inits:
                fill.append(self.scheme_op(metric, init, h, steps, stride or steps, False))
        for metric, steps, template in CLI_SMALL:
            if metric not in covered:
                fill.append(self.cli_op(metric, steps, template, False, in_process=True))
        return core + fill + [make(self) for make in self.extra_ops]

    def setup_args(self, first: Op) -> list[str]:
        """A one-step CLI `run` of the workload's first operation."""
        if first.is_cli:
            return ["run", *_KOW, "--scheme", "hk", "--steps", "1"]
        model, scheme = SCHEME_OF[first.metric]
        if model == "kowalevski":
            return ["run", *_KOW, "--scheme", scheme, "--steps", "1"]
        euler, _ = seeded_states(self.seed, 1)
        return ["run", "--model", model, "--scheme", scheme, "--h", str(FREE_H), "--steps", "1",
                "--inertia", "1,2,3", "--init=" + ",".join(repr(float(v)) for v in euler[0])]  # "=": it may start with "-"

    # --- measurement --------------------------------------------------------

    def _attempt(self, label: str, call: Callable[[], object], check) -> tuple[object, float, bool]:
        """Run one operation; return its output, its speed-normalized time
        and whether it passed its check."""
        self.attempted += 1
        before = self._last_ref if self._last_ref is not None else reference_work()
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as e:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            problems = [f"{label}: {type(e).__name__}: {e}"]
            out = None
        else:
            dt = time.perf_counter() - t0
            problems = check(out)
        self._last_ref = reference_work()
        speed = REF_NOMINAL_S / (0.5 * (before + self._last_ref))
        self.speed.setdefault(self.current_pass, []).append(speed)
        dt *= speed
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
        return out, dt, not problems

    def setup(self, first: Op) -> list[float]:
        """Wall time of fresh interpreters that import spintops, validate the
        config, build the stepper and take one step, after one unmeasured
        start that fills the byte-code cache."""
        args = self.setup_args(first)
        self.current = PassRecord(traced=self.trace)
        probe = self.cli_op("setup", 1, args, core=False, in_process=False)

        def exited_cleanly(out):
            code, _, stderr = out
            return [] if code == 0 and "Traceback" not in stderr else [f"setup {' '.join(args)}: exit {code}"]

        probe.check = exited_cleanly
        times = []
        for i in range(SETUP_SAMPLES + 1):
            _, dt, _ = self._attempt(probe.label, probe.call, probe.check)
            if i:
                times.append(dt)
        return times

    def run_pass(self, ops: list[Op], traced: bool) -> PassRecord:
        self.current_pass += 1
        rec = self.current = PassRecord(traced=traced)
        if traced:
            self.tracer.current_pass = self.current_pass
            self.tracer.install()
        try:
            for op in ops:
                out, dt, _ = self._attempt(op.label, op.call, op.check)
                if op.is_cli and (out is None or out[0] != 0):
                    rec.nonzero_exits += 1
                steps_s = rec.per_metric.setdefault(op.metric, [0, 0.0])
                steps_s[0] += op.steps
                steps_s[1] += dt
                if op.core:
                    rec.wall_s += dt
                    rec.steps += op.steps
        finally:
            if traced:
                self.tracer.uninstall()
        return rec

    def measure(self, seconds: float) -> tuple[list[float], list[PassRecord]]:
        self.op_list = self.ops()
        once = [op for op in self.op_list if op.core and op.metric in ONCE]
        ops = [op for op in self.op_list if op not in once]
        setup = self.setup(ops[0])
        self.current = PassRecord(traced=False)
        for op in once:
            self.once_s[op.label] = self._attempt(op.label, op.call, op.check)[1]
        deadline = time.perf_counter() + seconds
        passes: list[PassRecord] = []
        while True:
            t0 = time.perf_counter()
            passes.append(self.run_pass(ops, traced=self.trace and len(passes) % 2 == 1))
            took = time.perf_counter() - t0
            need_more = self.trace and len(passes) < 2
            if not need_more and time.perf_counter() + took > deadline:
                return setup, passes


# --- statistics and report ----------------------------------------------------


def summarize(samples: list[float], better: str) -> dict:
    """Median, quartiles and the highest percentile on the bad side that has
    at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    q1, med, q3 = statistics.quantiles(xs, n=4) if n >= 2 else (xs[0],) * 3
    tail = None
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            q = float(np.percentile(xs, p if better == "lower" else 100 - p))
            tail = {"percentile": p, "side": "high" if better == "lower" else "low", "value": q}
            break
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "tail": tail, "n": n}


def end_to_end(bench: Bench, setup: list[float], passes: list[PassRecord]) -> dict:
    plain = [p for p in passes if not p.traced]
    samples: dict[str, list[float]] = {
        "setup_s": setup,
        "wall_s": [p.wall_s for p in plain],
        "steps_per_s": [p.steps / p.wall_s for p in plain],
    }
    for metric in SCHEME_OF:
        samples[metric] = [p.per_metric[metric][0] / p.per_metric[metric][1] for p in plain]
    for metric in ("cmd_s.run", "cmd_s.reverse", "cmd_s.converge"):
        samples[metric] = [p.per_metric[metric][1] for p in plain]
    who = resource.RUSAGE_CHILDREN if bench.workload == "cli-diagnostics" else resource.RUSAGE_SELF
    samples["peak_rss_mb"] = [resource.getrusage(who).ru_maxrss / 1024.0]
    samples["ops_ok_ratio"] = [1.0 - bench.failed / bench.attempted]
    return samples


# Per-layer metrics named after a layer function that lives elsewhere.
SPAN_OF = {"models.lagrange_invariants": "euler_lagrange.lagrange_invariants"}


def per_layer(bench: Bench, passes: list[PassRecord]) -> dict:
    samples: dict[str, list[float]] = {m["name"]: [] for m in SPEC["per_layer"]}
    plain = [p.wall_s for p in passes if not p.traced]
    traced = [(i + 1, p) for i, p in enumerate(passes) if p.traced]
    # Span times are normalized by the median speed factor of their pass.
    speed = {pid: statistics.median(f) for pid, f in bench.speed.items()}
    for pass_id, rec in traced:
        s = bench.tracer.pass_summary(pass_id)
        span = lambda name: s.get(SPAN_OF.get(name, name), {"calls": 0, "self_s": 0.0, "total_s": 0.0, "tag": 0.0})
        errors = {e: c for (p, e), c in bench.tracer.errors.items() if p == pass_id}
        sym_calls = span("euler_lagrange.symmetric_step_euler")["calls"]
        csv, conv = span("harness.to_csv"), span("harness.convergence_study")
        derived = {
            "algebra.singular_errors": errors.get("SingularSystemError", 0),
            "euler_lagrange.convergence_errors": errors.get("ConvergenceError", 0),
            "kowalevski.branch_flips": rec.branch_flips,
            "euler_lagrange.fp_iters_per_step": s["_bs_solve_in_symmetric"] / sym_calls if sym_calls else 0.0,
            "harness.csv_rows_per_s": csv["tag"] / (csv["total_s"] * speed[pass_id]) if csv["total_s"] else 0.0,
            "harness.reference_share": s["_reference_run_s"] / conv["total_s"] if conv["total_s"] else 0.0,
            "cli.nonzero_exits": rec.nonzero_exits,
            "trace.wall_s_traced": rec.wall_s,
        }
        for name, values in samples.items():
            if name in derived:
                values.append(float(derived[name]))
            elif name.endswith(".self_s"):
                values.append(span(name[: -len(".self_s")])["self_s"] * speed[pass_id])
            elif name.endswith(".calls"):
                values.append(float(span(name[: -len(".calls")])["calls"]))
    samples["cli.import_s"] = [secs * speed[pid] for pid, secs in bench.import_s]
    samples["trace.wall_s_untraced"] = plain
    samples["trace.overhead_ratio"] = [
        statistics.median(samples["trace.wall_s_traced"]) / statistics.median(plain) - 1.0
    ]
    return samples


def metadata(bench: Bench, seconds: int, passes: list[PassRecord]) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    cpu = "unknown"
    with contextlib.suppress(OSError):
        cpu = next((ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo") if ln.startswith("model name")), cpu)
    return {
        "workload": bench.workload, "seed": bench.seed, "seconds": seconds, "trace": bench.trace,
        "tiny": bench.tiny, "passes": len(passes), "traced_passes": sum(p.traced for p in passes),
        "git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted((ROOT / "src").rglob("*.py"))),
        "ops_attempted": bench.attempted, "ops_failed": bench.failed,
        "ops_failed_ratio": bench.failed / bench.attempted,
    }


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False,
                  extra_ops: tuple = ()) -> dict:
    """Run one workload and return the full report; `report["result"]` is
    the object the last output line carries. `extra_ops` (functions of the
    Bench returning an Op) are appended to the workload's operations."""
    bench = Bench(workload, seed, trace, tiny, extra_ops)
    setup, passes = bench.measure(seconds)
    samples = per_layer(bench, passes) if trace else end_to_end(bench, setup, passes)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    stats = {name: summarize(samples[name], BETTER[name]) for name in names}
    core_metrics = {op.metric for op in bench.op_list if op.core}
    source = {name: "fill-in" if (name in SCHEME_OF or name.startswith("cmd_s.")) and name not in core_metrics
              else "workload" for name in names}
    report = {
        "meta": metadata(bench, seconds, passes),
        "once_s": bench.once_s,
        # REF_NOMINAL_S over the measured reference time, one per operation
        "speed_factor": summarize([f for fs in bench.speed.values() for f in fs], "higher"),
        "stats": {name: {**stats[name], "unit": UNITS[name], "source": source[name]} for name in names},
        "problems": bench.problems,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": stats[name]["median"], "unit": UNITS[name]} for name in names},
        },
    }
    if trace:
        bench.tracer.dump(str(OUT_DIR / f"spans-{workload}-seed{seed}.npz"))
    bench.csv_path.unlink(missing_ok=True)
    return report


def print_report(report: dict) -> None:
    meta = report["meta"]
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    sf = report["speed_factor"]
    print(f"speed factor: median {sf['median']:.4g} q1 {sf['q1']:.4g} q3 {sf['q3']:.4g} n {sf['n']}")
    for label, secs in report["once_s"].items():
        print(f"once: {label}: {secs:.6g} s")
    print(f"{'metric':<44}{'median':>14}{'q1':>14}{'q3':>14}  {'tail':<22}{'n':>4}  unit  source")
    for name, s in report["stats"].items():
        tail = "-" if s["tail"] is None else f"p{s['tail']['percentile']:g}({s['tail']['side']})={s['tail']['value']:.6g}"
        print(f"{name:<44}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}  {tail:<22}{s['n']:>4}  "
              f"{s['unit']}  {s['source']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every operation, for a smoke test")
    args = ap.parse_args(argv)
    # On SIGTERM, leave through SystemExit so that subprocess.run kills and
    # reaps the CLI child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "spintops" / "__init__.py").is_file():
        print(f"perfbench: no spintops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
