"""Run driver: the model/scheme table, trajectory generation, invariant drift
reports, reversibility and convergence diagnostics, period estimation, CSV
emission.

Every stepper, the RK4 `reference` included, takes the state as six floats
and returns a tuple of six. `run`, `reversal_test` and `convergence_study`
step through one checked loop, `_steps`. `run` keeps every stride-th state as
six floats in a Trajectory and writes no file; the other two keep the loop's
last state and compare endpoints. None of them imports numpy. A Trajectory
computes its invariants on floats, one sample at a time, when `to_csv`,
`drift_report` or `values` first reads them, so `to_csv` and `drift_report`
never import numpy, nor does `estimate_period`, which takes floats. numpy
enters only in `Trajectory.states`, the one array, made when first read.
`RunConfig`, `Model` and `InvariantDrift` are named tuples and `Trajectory`
is a plain class: `dataclasses` would import `inspect`, and so `ast`, `dis`
and `tokenize`, in every CLI process.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import cached_property
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import euler_lagrange, kowalevski
from .algebra import NumericalError, numerical_guard
from .hk import hk_step
from .models import KOWALEVSKI_INERTIA, euler_poisson_rhs, invariants, kowalevski_invariants

if TYPE_CHECKING:
    import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration."""


class Model(NamedTuple):
    """A model's column names and constructors, each from a validated RunConfig:
    to a function of one state -> one float per name of `invariant_names`, and
    per scheme to a step function (y, h) -> y'.
    `reads` names the model parameters (c0, inertia, gravity, vertical) that
    the model uses; the others must keep their defaults."""

    columns: tuple[str, ...]
    invariant_names: tuple[str, ...]
    invariants: Callable[[RunConfig], Callable]
    schemes: dict[str, Callable[[RunConfig], Callable]]
    reads: tuple[str, ...]
    default_init: tuple[float, ...] | None = None


def _is_real(x) -> bool:
    """Whether x is a real number, a numpy scalar included, and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_count(x) -> bool:
    """Whether x is an integer from 0 to sys.maxsize, a numpy integer
    included, and not a bool: a count that repeat and islice take."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and 0 <= x <= sys.maxsize


def _is_step(x) -> bool:
    """Whether x is a positive real number within the float range."""
    return _is_real(x) and 0 < x <= sys.float_info.max


def _floats(values, n: int, name: str) -> tuple[float, ...]:
    """values as n floats; ConfigError unless it is a sequence of n finite
    real numbers."""
    try:
        values = tuple(values)
    except TypeError:  # a scalar
        values = ()
    if len(values) != n:
        raise ConfigError(f"{name} must have {n} components")
    if not all(map(_is_real, values)):
        raise ConfigError("parameters and init must be real numbers")
    if not all(abs(v) <= sys.float_info.max for v in values):
        raise ConfigError("parameters and init must be finite, inertia positive")
    return tuple(map(float, values))


class RunConfig(NamedTuple):
    """The one parameter object of a run. Immutable; derive a variant with
    `config._replace(...)`."""

    model: str
    scheme: str
    h: float
    steps: int
    stride: int = 1
    c0: float = 1.0
    inertia: tuple[float, float, float] = (1.0, 2.0, 3.0)
    gravity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    vertical: tuple[float, float, float] = (0.0, 0.0, 1.0)
    init: tuple[float, ...] | None = None

    def validated(self) -> "RunConfig":
        """This config with h a float, steps and stride ints, c0 a float, and
        the inertia, gravity, vertical and init tuples of floats. Raises
        ConfigError for any value that cannot be run."""
        model = MODELS.get(self.model) if isinstance(self.model, str) else None
        if model is None:
            raise ConfigError(f"unknown model {self.model!r}")
        if not (isinstance(self.scheme, str) and self.scheme in model.schemes):
            raise ConfigError(f"scheme {self.scheme!r} not valid for model {self.model!r}")
        if not _is_step(self.h):
            raise ConfigError("h must be positive and finite")
        if not _is_count(self.steps):
            raise ConfigError(f"steps must be an integer from 0 to {sys.maxsize}")
        if not (_is_count(self.stride) and self.stride >= 1):
            raise ConfigError(f"stride must be an integer from 1 to {sys.maxsize}")
        init = self.init if self.init is not None else model.default_init
        if init is None:
            raise ConfigError(f"model {self.model!r} requires an explicit init")
        params = {"c0": _floats((self.c0,), 1, "c0")[0],
                  **{name: _floats(getattr(self, name), 3, name)
                     for name in ("inertia", "gravity", "vertical")}}
        init = _floats(init, 6, "init")
        if min(params["inertia"]) <= 0:
            raise ConfigError("parameters and init must be finite, inertia positive")
        for name, value in params.items():
            if name not in model.reads and value != RunConfig._field_defaults[name]:
                raise ConfigError(f"model {self.model!r} does not read {name}")
        return self._replace(h=float(self.h), steps=int(self.steps), stride=int(self.stride),
                             init=init, **params)

    def body(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The inertia and gravity vector of a body-frame model."""
        if self.model == "kowalevski":
            return KOWALEVSKI_INERTIA, (self.c0, 0.0, 0.0)
        return self.inertia, self.gravity


class Trajectory:
    """The states of a run at steps 0, stride, 2*stride, ... as six floats
    each, in `samples`, from a validated config. The invariants and the
    `states` array are computed when first read, once."""

    def __init__(self, config: RunConfig, samples: list[tuple[float, ...]]):
        self.config = config
        self.samples = samples

    @property
    def steps(self) -> range:
        """The step number of each sample."""
        return range(0, self.config.steps + 1, self.config.stride)

    @cached_property
    def states(self) -> np.ndarray:
        """Rows of 6 state components."""
        import numpy as np

        n = len(self.samples)
        # One flat pass over the floats: 2.5 times as fast as from the tuples.
        return np.fromiter(chain.from_iterable(self.samples), float, 6 * n).reshape(n, 6)

    @cached_property
    def _invariant_columns(self) -> list:
        """Per invariant name of the model, its value at each sample, computed
        on the sample's floats. Raises NumericalError naming the first value
        that is not finite."""
        config = self.config
        model = MODELS[config.model]
        columns = list(zip(*map(model.invariants(config), self.samples)))
        # A finite sum proves every value finite; only a sum that overflows
        # or is not finite needs each value checked.
        bad = [j for j, col in enumerate(columns)
               if not math.isfinite(sum(col)) and not all(map(math.isfinite, col))]
        if bad:
            i, j = min((next(i for i, v in enumerate(columns[j]) if not math.isfinite(v)), j)
                       for j in bad)
            raise NumericalError(f"{config.model}/{config.scheme} run: invariant "
                                 f"{model.invariant_names[j]} overflows at step "
                                 f"{self.steps[i]}")
        return columns

    def values(self, name: str) -> list[float]:
        """A state column or an invariant of the model, one float per sample."""
        model = MODELS[self.config.model]
        if name in model.columns:
            j = model.columns.index(name)
            return [y[j] for y in self.samples]
        if name in model.invariant_names:
            return list(self._invariant_columns[model.invariant_names.index(name)])
        raise KeyError(name)

    def to_csv(self, path: str) -> None:
        """Write one row per sample. Every invariant is computed and checked
        before the file is opened."""
        config = self.config
        rows = zip(*self._invariant_columns)
        model = MODELS[config.model]
        names = ("step", "t") + model.columns + model.invariant_names
        with open(path, "w", newline="\n") as f:
            f.write(",".join(names) + "\n")
            for n, state, invs in zip(self.steps, self.samples, rows):
                cells = ",".join([f"{v:.17g}" for v in state + invs])
                f.write(f"{n},{n * config.h:.17g},{cells}\n")


def _rk4(rhs):
    """Classical RK4 step of dy = rhs(y) on six floats. Each stage state and
    the update are formed componentwise, in numpy's elementwise order."""
    def step(y, h: float) -> tuple[float, ...]:
        y0, y1, y2, y3, y4, y5 = y
        hh = 0.5 * h
        a0, a1, a2, a3, a4, a5 = rhs(y)
        b0, b1, b2, b3, b4, b5 = rhs((y0 + hh * a0, y1 + hh * a1, y2 + hh * a2,
                                      y3 + hh * a3, y4 + hh * a4, y5 + hh * a5))
        c0, c1, c2, c3, c4, c5 = rhs((y0 + hh * b0, y1 + hh * b1, y2 + hh * b2,
                                      y3 + hh * b3, y4 + hh * b4, y5 + hh * b5))
        d0, d1, d2, d3, d4, d5 = rhs((y0 + h * c0, y1 + h * c1, y2 + h * c2,
                                      y3 + h * c3, y4 + h * c4, y5 + h * c5))
        h6 = h / 6.0
        return (y0 + h6 * (((a0 + 2.0 * b0) + 2.0 * c0) + d0),
                y1 + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
                y2 + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
                y3 + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
                y4 + h6 * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
                y5 + h6 * (((a5 + 2.0 * b5) + 2.0 * c5) + d5))

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


def _body_invariants(config: RunConfig):
    """y -> (gamma_sq, E)."""
    inertia, g = config.body()
    return lambda y: invariants(y, inertia, g)[::2]


def _lagrange_invariants(config: RunConfig):
    return lambda y: euler_lagrange.lagrange_invariants(y, config.vertical, config.h)


def _body_reference(config: RunConfig):
    inertia, g = config.body()
    return _rk4(lambda y: euler_poisson_rhs(y, inertia, g))


def _lagrange_reference(config: RunConfig):
    p0, p1, p2 = config.vertical

    def rhs(y) -> tuple[float, ...]:
        # (p x a, m x a)
        m0, m1, m2, a0, a1, a2 = y
        return (p1 * a2 - p2 * a1, p2 * a0 - p0 * a2, p0 * a1 - p1 * a0,
                m1 * a2 - m2 * a1, m2 * a0 - m0 * a2, m0 * a1 - m1 * a0)

    return _rk4(rhs)


_BODY_COLUMNS = ("w1", "w2", "w3", "g1", "g2", "g3")
_BODY_INVARIANTS = ("gamma_sq", "E")
_BODY_SCHEMES = {
    "hk": lambda c: _stepper(hk_step, c.body(), ()),
    "reference": _body_reference,
}

# The one list of models and of the schemes each runs. Step and invariant
# functions are looked up when they are used, not when this table is built.
MODELS: dict[str, Model] = {
    "euler": Model(_BODY_COLUMNS, _BODY_INVARIANTS, _body_invariants, {
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
    "kowalevski": Model(_BODY_COLUMNS, ("gamma_sq", "two_ell", "E", "k_sq"),
                        lambda c: lambda y: kowalevski_invariants(y, c.c0), {
        **_BODY_SCHEMES,
        "bohlin-a": lambda c: _stepper(kowalevski.bohlin_algorithm_step, (c.c0,),
                                       (kowalevski.gamma_step_bs,)),
        "bohlin-b": lambda c: _stepper(kowalevski.bohlin_algorithm_step, (c.c0,),
                                       (kowalevski.gamma_step_stereo,)),
        "bohlin-c": lambda c: _stepper(kowalevski.bohlin_algorithm_step, (c.c0,),
                                       (kowalevski.gamma_step_rotation,)),
        "hybrid": lambda c: _stepper(kowalevski.hybrid_step, (c.c0,), ()),
    }, reads=("c0",),
        default_init=(2.0, 0.0, 0.0, math.sqrt(1.0 - 0.001**2), 0.0, 0.001)),
    "general": Model(_BODY_COLUMNS, _BODY_INVARIANTS, _body_invariants, _BODY_SCHEMES,
                     reads=("inertia", "gravity")),
}


def make_stepper(config: RunConfig):
    """Packed-state step function y -> y' for the configured model/scheme."""
    return MODELS[config.model].schemes[config.scheme](config)


def _steps(config: RunConfig, hs, what: str):
    """Yield the state after each step of the configured scheme from the init,
    one step per h in hs, as six floats. Raises NumericalError, prefixed with
    the model, the scheme and `what`, naming the first step whose state is
    non-finite."""
    step, y = make_stepper(config), config.init
    with numerical_guard(f"{config.model}/{config.scheme} {what}"):
        for k, h in enumerate(hs, 1):
            y = step(y, h)
            # A finite norm proves every component finite; a state of norm
            # above 1.8e308 can be finite too, so only then check each one.
            if not math.isfinite(math.hypot(*y)) and not all(map(math.isfinite, y)):
                raise NumericalError(f"non-finite state at step {k} of the {what}")
            yield y


def run(config: RunConfig) -> Trajectory:
    """Iterate the configured scheme from the init as six floats and keep
    every stride-th state. Raises ConfigError, before any step, if the last
    sample time steps*h is past the float range, and NumericalError naming
    the first step whose state is non-finite; the invariants are checked when
    first read."""
    config = config.validated()
    if not math.isfinite(config.steps * config.h):
        raise ConfigError(f"steps*h must be finite, not {config.steps}*{config.h:g}")
    stride = config.stride
    loop = _steps(config, repeat(config.h, config.steps), "run")
    return Trajectory(config, [config.init, *islice(loop, stride - 1, None, stride)])


def reversal_test(config: RunConfig, n: int) -> float:
    """Forward n steps with +h then n steps with -h; max-norm distance from
    the starting state. Raises NumericalError naming the first step of the
    round trip whose state is non-finite."""
    config = config.validated()
    if not _is_count(n):
        raise ConfigError(f"n must be an integer from 0 to {sys.maxsize}")
    y = config.init
    for y in _steps(config, chain(repeat(config.h, n), repeat(-config.h, n)), "round trip"):
        pass
    return max(abs(a - b) for a, b in zip(y, config.init))


class InvariantDrift(NamedTuple):
    initial: float
    final: float
    min: float
    max: float
    max_abs_deviation: float


def drift_report(traj: Trajectory) -> dict[str, InvariantDrift]:
    """Extrema and max deviation from the initial value, per invariant name of
    the model. Raises NumericalError if an invariant overflows."""
    names = MODELS[traj.config.model].invariant_names
    out = {}
    for name, col in zip(names, traj._invariant_columns):
        first, lo, hi = col[0], min(col), max(col)
        # Rounding is monotonic, so the largest |v - first| is at an extremum.
        out[name] = InvariantDrift(initial=first, final=col[-1], min=lo, max=hi,
                                   max_abs_deviation=max(hi - first, first - lo))
    return out


class PeriodEstimationError(ValueError):
    """Series does not oscillate enough to define a period."""


def estimate_period(series, dt: float) -> float:
    """Dominant oscillation period from the mean spacing of successive upward
    mean-crossings, with linear interpolation at the crossings, of any
    sequence of floats. Both means are `math.fsum` sums; the series mean sums
    each value divided by the count, so it cannot overflow."""
    n = len(series)
    try:
        mean = math.fsum(v / n for v in series)
    except ValueError:  # +inf and -inf, whose mean is NaN
        mean = math.nan
    x = [v - mean for v in series]
    pairs = list(zip(x, x[1:]))
    times = [(i - a / (b - a)) * dt for i, (a, b) in enumerate(pairs) if a <= 0.0 < b]
    if len(times) < 2 or sum((a <= 0.0) != (b <= 0.0) for a, b in pairs) < 3:
        raise PeriodEstimationError("series crosses its mean fewer than 3 times")
    return math.fsum(b - a for a, b in zip(times, times[1:])) / (len(times) - 1)


def convergence_study(
    config: RunConfig, h_list: list[float], t_end: float
) -> list[tuple[float, float, float | None]]:
    """Endpoint error against a fourth-order reference at min(h)/20, for each
    h in h_list. Returns rows (h, error, observed_order) where observed_order
    compares each row against the previous one (None if either error is 0).
    Raises NumericalError naming the first step of a run whose state is
    non-finite.
    """
    config = config.validated()
    try:
        h_list = list(h_list)
    except TypeError:
        raise ConfigError("h_list must be a list of step sizes") from None
    if len(h_list) < 3:
        raise ConfigError("need at least 3 step sizes")
    if not all(map(_is_step, [*h_list, t_end])):
        raise ConfigError("step sizes and t_end must be positive and finite")
    if len(set(h_list)) < len(h_list):
        raise ConfigError("step sizes must be distinct")
    h_ref = min(h_list) / 20.0
    if t_end < h_ref:
        raise ConfigError(f"t_end={t_end:g} is shorter than the reference step min(h)/20={h_ref:g}")
    if t_end / h_ref > sys.maxsize:
        raise ConfigError(f"t_end={t_end:g} needs more than {sys.maxsize} reference steps")
    for h in h_list:
        n = t_end / h
        if round(n) < 1 or abs(n - round(n)) > 1e-9:
            raise ConfigError(f"t_end/h not a positive integer for h={h}")

    ref_cfg = config._replace(scheme="reference")
    y_ref = ref_cfg.init
    for y_ref in _steps(ref_cfg, repeat(h_ref, round(t_end / h_ref)), "run"):
        pass

    rows: list[tuple[float, float, float | None]] = []
    prev: tuple[float, float] | None = None
    for h in sorted(h_list, reverse=True):
        y = config.init
        for y in _steps(config, repeat(h, round(t_end / h)), "run"):
            pass
        err = max(abs(a - b) for a, b in zip(y, y_ref))
        order = None
        if prev is not None and prev[1] > 0 and err > 0:
            h_prev, err_prev = prev
            order = math.log(err_prev / err) / math.log(h_prev / h)
        rows.append((h, err, order))
        prev = (h, err)
    return rows
