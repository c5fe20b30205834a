"""Run driver: the model/scheme table, trajectory generation, invariant drift
reports, reversibility and convergence diagnostics, period estimation, CSV
emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import euler_lagrange, kowalevski
from .algebra import NumericalError, cross, numerical_guard
from .hk import hk_step
from .models import KOWALEVSKI_INERTIA, euler_poisson_rhs, invariants, kowalevski_invariants


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class Model:
    """A model's column names and constructors, each from a validated RunConfig:
    to states (n, 6) -> invariant columns (n, k), and per scheme to a step
    function (y, h) -> y'.
    `reads` names the model parameters (c0, inertia, gravity, vertical) that
    the model uses; the others must keep their defaults."""

    columns: tuple[str, ...]
    invariant_names: tuple[str, ...]
    invariants: Callable[[RunConfig], Callable]
    schemes: dict[str, Callable[[RunConfig], Callable]]
    reads: tuple[str, ...]
    default_init: np.ndarray | None = None


@dataclass(frozen=True)
class RunConfig:
    model: str
    scheme: str
    h: float
    steps: int
    stride: int = 1
    c0: float = 1.0
    inertia: tuple[float, float, float] = (1.0, 2.0, 3.0)
    gravity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    vertical: tuple[float, float, float] = (0.0, 0.0, 1.0)
    init: np.ndarray | None = None
    out_path: str | None = None

    def validated(self) -> "RunConfig":
        model = MODELS.get(self.model)
        if model is None:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.scheme not in model.schemes:
            raise ConfigError(f"scheme {self.scheme!r} not valid for model {self.model!r}")
        if not (0 < self.h < math.inf):
            raise ConfigError("h must be positive and finite")
        if self.steps < 0:
            raise ConfigError("steps must be nonnegative")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        init = self.init if self.init is not None else model.default_init
        if init is None:
            raise ConfigError(f"model {self.model!r} requires an explicit init")
        init = np.array(init, dtype=float)
        if init.shape != (6,):
            raise ConfigError("init must have 6 components")
        vectors = ("inertia", "gravity", "vertical")
        for name in vectors:
            if np.shape(getattr(self, name)) != (3,):
                raise ConfigError(f"{name} must have 3 components")
        params = [self.c0, *self.inertia, *self.gravity, *self.vertical, *init]
        if not np.all(np.isfinite(params)) or min(self.inertia) <= 0:
            raise ConfigError("parameters and init must be finite, inertia positive")
        for name in ("c0", *vectors):
            unread = name not in model.reads
            if unread and not np.array_equal(getattr(self, name), getattr(RunConfig, name)):
                raise ConfigError(f"model {self.model!r} does not read {name}")
        return replace(self, c0=float(self.c0), init=init,
                       **{name: tuple(float(v) for v in getattr(self, name)) for name in vectors})

    def body(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The inertia and gravity vector of a body-frame model."""
        if self.model == "kowalevski":
            return KOWALEVSKI_INERTIA, (self.c0, 0.0, 0.0)
        return self.inertia, self.gravity


@dataclass
class Trajectory:
    model: str
    h: float
    steps: np.ndarray
    t: np.ndarray
    states: np.ndarray  # rows of 6 state components
    invariant_names: tuple[str, ...]
    invariant_values: np.ndarray  # one column per invariant name

    def column(self, name: str) -> np.ndarray:
        cols = MODELS[self.model].columns
        if name in cols:
            return self.states[:, cols.index(name)]
        if name in self.invariant_names:
            return self.invariant_values[:, self.invariant_names.index(name)]
        raise KeyError(name)

    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    def to_csv(self, path: str) -> None:
        names = ("step", "t") + MODELS[self.model].columns + self.invariant_names
        with open(path, "w", newline="\n") as f:
            f.write(",".join(names) + "\n")
            for n, t, state, invs in zip(self.steps.tolist(), self.t.tolist(),
                                         self.states.tolist(), self.invariant_values.tolist()):
                cells = [f"{v:.17g}" for v in state]
                cells += ["" if math.isnan(v) else f"{v:.17g}" for v in invs]
                f.write(f"{n},{t:.17g}," + ",".join(cells) + "\n")


def _rk4(rhs):
    def step(y: np.ndarray, h: float) -> np.ndarray:
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _stepper(step, params, options):
    """Stepper (y, h) -> y' of step(y, *params, h, *options). The arguments are
    bound once; each shape in use is written out, so a call passes them as
    plain positional arguments and unpacks nothing per step."""
    if len(params) == 2:
        a, b = params
        return lambda y, h: step(y, a, b, h)
    (a,) = params
    if options:
        (o,) = options
        return lambda y, h: step(y, a, h, o)
    return lambda y, h: step(y, a, h)


def _body_invariants(config: RunConfig, c0: float | None):
    """states -> columns (gamma_sq, two_ell, E, k_sq); two_ell and k_sq are NaN
    (blank) unless the Kowalevski c0 is given."""
    inertia, g = config.body()

    def columns(states: np.ndarray) -> np.ndarray:
        gamma_sq, _, energy = invariants(states, inertia, g)
        blank = np.full(len(states), np.nan)
        two_ell, _, k_sq = kowalevski_invariants(states, c0) if c0 is not None else (blank,) * 3
        return np.column_stack([gamma_sq, two_ell, energy, k_sq])

    return columns


def _lagrange_invariants(config: RunConfig):
    return lambda states: np.column_stack(
        euler_lagrange.lagrange_invariants(states, config.vertical, config.h))


def _body_reference(config: RunConfig):
    inertia, g = config.body()
    return _rk4(lambda y: euler_poisson_rhs(y, inertia, g))


def _lagrange_reference(config: RunConfig):
    p = config.vertical
    return _rk4(lambda y: np.concatenate([cross(p, y[3:]), cross(y[:3], y[3:])]))


_BODY_COLUMNS = ("w1", "w2", "w3", "g1", "g2", "g3")
_BODY_INVARIANTS = ("gamma_sq", "two_ell", "E", "k_sq")
_BODY_SCHEMES = {
    "hk": lambda c: _stepper(hk_step, c.body(), ()),
    "reference": _body_reference,
}

# The one list of models and of the schemes each runs. Step functions are
# looked up when a stepper is built, not when this table is.
MODELS: dict[str, Model] = {
    "euler": Model(_BODY_COLUMNS, _BODY_INVARIANTS, lambda c: _body_invariants(c, None), {
        **_BODY_SCHEMES,
        "bs": lambda c: _stepper(euler_lagrange.bs_step_euler, (c.inertia,), ()),
        "symmetric": lambda c: _stepper(euler_lagrange.symmetric_step_euler, (c.inertia,), ()),
    }, reads=("inertia",)),
    "lagrange": Model(
        ("m1", "m2", "m3", "a1", "a2", "a3"), ("a_sq", "m_dot_p", "m_dot_a", "E"),
        _lagrange_invariants, {
            "bs": lambda c: _stepper(euler_lagrange.lagrange_step, (c.vertical,), ()),
            "reference": _lagrange_reference,
        }, reads=("vertical",),
    ),
    # The default init is the standard test point: w = (2, 0, 0), gamma_3 = 0.001.
    "kowalevski": Model(_BODY_COLUMNS, _BODY_INVARIANTS, lambda c: _body_invariants(c, c.c0), {
        **_BODY_SCHEMES,
        "bohlin-a": lambda c: _stepper(kowalevski.bohlin_algorithm_step, (c.c0,),
                                       (kowalevski.gamma_step_bs,)),
        "bohlin-b": lambda c: _stepper(kowalevski.bohlin_algorithm_step, (c.c0,),
                                       (kowalevski.gamma_step_stereo,)),
        "bohlin-c": lambda c: _stepper(kowalevski.bohlin_algorithm_step, (c.c0,),
                                       (kowalevski.gamma_step_rotation,)),
        "hybrid": lambda c: _stepper(kowalevski.hybrid_step, (c.c0,), ()),
    }, reads=("c0",),
        default_init=np.array([2.0, 0.0, 0.0, math.sqrt(1.0 - 0.001**2), 0.0, 0.001])),
    "general": Model(_BODY_COLUMNS, _BODY_INVARIANTS, lambda c: _body_invariants(c, None),
                     _BODY_SCHEMES, reads=("inertia", "gravity")),
}


def make_stepper(config: RunConfig):
    """Packed-state step function y -> y' for the configured model/scheme."""
    return MODELS[config.model].schemes[config.scheme](config)


def run(config: RunConfig) -> Trajectory:
    """Iterate the configured scheme from the init as six floats, sampling
    every stride-th step, then compute the invariant columns of the samples.
    Raises NumericalError naming the first step whose state is non-finite, or
    when anything overflows."""
    config = config.validated()
    model, y, h = MODELS[config.model], tuple(config.init.tolist()), config.h
    step = make_stepper(config)
    with numerical_guard(f"{config.model}/{config.scheme} run"):
        rows_steps, rows_states = [0], [y]
        for n in range(1, config.steps + 1):
            y = step(y, h)
            # A finite norm proves every component finite; a state of norm
            # above 1.8e308 can be finite too, so only then check each one.
            # hypot raises nothing on the reference's numpy rows either.
            if not math.isfinite(math.hypot(*y)) and not all(map(math.isfinite, y)):
                raise NumericalError(f"non-finite state at step {n}")
            if n % config.stride == 0:
                rows_steps.append(n)
                rows_states.append(y)
        states = np.array(rows_states)
        invariant_values = model.invariants(config)(states)
    steps_arr = np.array(rows_steps)
    traj = Trajectory(
        model=config.model,
        h=config.h,
        steps=steps_arr,
        t=steps_arr * config.h,
        states=states,
        invariant_names=model.invariant_names,
        invariant_values=invariant_values,
    )
    if config.out_path:
        traj.to_csv(config.out_path)
    return traj


def reversal_test(config: RunConfig, n: int) -> float:
    """Forward n steps with +h then n steps with -h; max-norm distance from
    the starting state. Raises NumericalError naming the first step of the
    round trip whose state is non-finite."""
    config = config.validated()
    if n < 0:
        raise ConfigError("n must be nonnegative")
    step, y = make_stepper(config), tuple(config.init.tolist())
    with numerical_guard(f"{config.model}/{config.scheme} round trip"):
        for k, h in enumerate([config.h] * n + [-config.h] * n, 1):
            y = step(y, h)
            if not math.isfinite(math.hypot(*y)) and not all(map(math.isfinite, y)):
                raise NumericalError(f"non-finite state at step {k} of the round trip")
        return float(np.max(np.abs(y - config.init)))


@dataclass(frozen=True)
class InvariantDrift:
    initial: float
    final: float
    min: float
    max: float
    max_abs_deviation: float


@dataclass(frozen=True)
class DriftReport:
    per_invariant: dict[str, InvariantDrift] = field(default_factory=dict)

    def __getitem__(self, name: str) -> InvariantDrift:
        return self.per_invariant[name]


def drift_report(traj: Trajectory) -> DriftReport:
    """Extrema and max deviation from the initial value, per invariant column."""
    if len(traj.steps) == 0:
        raise ValueError("empty trajectory")
    out = {}
    for j, name in enumerate(traj.invariant_names):
        col = traj.invariant_values[:, j]
        if np.all(np.isnan(col)):
            continue
        out[name] = InvariantDrift(
            initial=float(col[0]),
            final=float(col[-1]),
            min=float(np.min(col)),
            max=float(np.max(col)),
            max_abs_deviation=float(np.max(np.abs(col - col[0]))),
        )
    return DriftReport(out)


class PeriodEstimationError(ValueError):
    """Series does not oscillate enough to define a period."""


def estimate_period(series: np.ndarray, dt: float) -> float:
    """Dominant oscillation period from the mean spacing of successive upward
    mean-crossings, with linear interpolation at the crossings."""
    x = np.asarray(series, dtype=float) - float(np.mean(series))
    idx = np.nonzero((x[:-1] <= 0.0) & (x[1:] > 0.0))[0]
    crossings_total = int(np.sum((x[:-1] <= 0.0) != (x[1:] <= 0.0)))
    if len(idx) < 2 or crossings_total < 3:
        raise PeriodEstimationError("series crosses its mean fewer than 3 times")
    frac = -x[idx] / (x[idx + 1] - x[idx])
    times = (idx + frac) * dt
    return float(np.mean(np.diff(times)))


def convergence_study(
    config: RunConfig, h_list: list[float], t_end: float
) -> list[tuple[float, float, float | None]]:
    """Endpoint error against a fourth-order reference at min(h)/20, for each
    h in h_list. Returns rows (h, error, observed_order) where observed_order
    compares each row against the previous one (None if either error is 0).
    """
    config = config.validated()
    if len(h_list) < 3:
        raise ConfigError("need at least 3 step sizes")
    if not all(0 < x < math.inf for x in [*h_list, t_end]):
        raise ConfigError("step sizes and t_end must be positive and finite")
    h_ref = min(h_list) / 20.0
    if t_end < h_ref:
        raise ConfigError(f"t_end={t_end:g} is shorter than the reference step min(h)/20={h_ref:g}")
    for h in h_list:
        n = t_end / h
        if round(n) < 1 or abs(n - round(n)) > 1e-9:
            raise ConfigError(f"t_end/h not a positive integer for h={h}")

    n_ref = round(t_end / h_ref)
    ref_cfg = replace(config, scheme="reference", h=h_ref, steps=n_ref, stride=n_ref)
    y_ref = run(ref_cfg).final_state()

    rows: list[tuple[float, float, float | None]] = []
    prev: tuple[float, float] | None = None
    for h in sorted(h_list, reverse=True):
        n = round(t_end / h)
        cfg = replace(config, h=h, steps=n, stride=n)
        err = float(np.max(np.abs(run(cfg).final_state() - y_ref)))
        order = None
        if prev is not None and prev[1] > 0 and err > 0:
            h_prev, err_prev = prev
            order = math.log(err_prev / err) / math.log(h_prev / h)
        rows.append((h, err, order))
        prev = (h, err)
    return rows
