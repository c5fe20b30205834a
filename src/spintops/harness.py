"""Run driver: the model/scheme table `MODELS`, which also declares each
scheme's order, reversibility and exact invariant columns; trajectory
generation, invariant drift reports, reversibility and convergence
diagnostics, period estimation, CSV emission.

Each `MODELS` scheme's `make` calls one stepper factory, the RK4 `reference`
included: it takes the model parameters, then h, and returns the step, which
takes the state as six floats and returns a tuple of six. `run`,
`reversal_test` and `convergence_study` step through one checked loop,
`_steps`, over legs of (h, n), with the step bound once per leg by
`make_stepper(config, h)`; it turns every failure of a step into a
NumericalError that names the model and scheme. `run` keeps every stride-th
state as six floats in a Trajectory and writes no file; the other two keep
the loop's last state and compare endpoints, `convergence_study` with the
Taylor-series endpoint `_taylor_endpoint`. A Trajectory computes its
invariants on floats, one sample at a time, when first read, so nothing here
imports numpy but `Trajectory.states`, the one array, which needs the
`array` extra. `RunConfig`, `Model`, `Scheme` and `InvariantDrift` are named
tuples and `Trajectory` is a plain class: `dataclasses` would import
`inspect`, and so `ast`, `dis` and `tokenize`, in every CLI process.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import cached_property, reduce
from itertools import chain, islice
from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import euler_lagrange, kowalevski
from .algebra import NumericalError
from .hk import hk_stepper
from .models import KOWALEVSKI_INERTIA, euler_poisson_rhs, invariants, kowalevski_invariants

if TYPE_CHECKING:
    import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration."""


class Scheme(NamedTuple):
    """A scheme of a model: `make` builds its step function y -> y' from a
    validated RunConfig and a step size h, and the rest is what it promises,
    which tests/test_contracts.py checks on random states. `order` is its
    order of accuracy, or None where it claims none; `reversible` whether a
    step with -h undoes a step with h, to roundoff; `exact` the invariant
    columns of the model that it keeps to roundoff."""

    make: Callable[[RunConfig, float], Callable]
    order: int | None
    reversible: bool
    exact: tuple[str, ...] = ()


class Model(NamedTuple):
    """A model's column names; `invariants`, which builds from a validated
    RunConfig the function of one state -> one float per name of
    `invariant_names`; and its schemes by name, each with its contract.
    `reads` names the model parameters (c0, inertia, gravity, vertical) that
    the model uses; the others must keep their defaults."""

    columns: tuple[str, ...]
    invariant_names: tuple[str, ...]
    invariants: Callable[[RunConfig], Callable]
    schemes: dict[str, Scheme]
    reads: tuple[str, ...]
    default_init: tuple[float, ...] | None = None


def _is_real(x) -> bool:
    """Whether x is a real number, a numpy scalar included, and not a bool.
    A float is tested first: the ABC check is several times slower."""
    return isinstance(x, float) or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_count(x) -> bool:
    """Whether x is an integer from 0 to sys.maxsize, a numpy integer
    included, and not a bool: a count that range and islice take. A plain int
    is tested first: the ABC check is several times slower."""
    return ((type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool))
            and 0 <= x <= sys.maxsize)


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
    steps: int = 0
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
        """Rows of 6 state components, a numpy array: the `array` extra."""
        try:
            import numpy as np
        except ImportError as e:
            raise ImportError("Trajectory.states needs numpy: pip install 'spintops[array]'") from e

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


def _rk4(rhs, h: float):
    """Classical RK4 step y -> y' of dy = rhs(y) on six floats, at step h.
    Each stage state and the update are formed componentwise, in numpy's
    elementwise order."""
    hh, h6 = 0.5 * h, h / 6.0

    def step(y) -> tuple[float, ...]:
        y0, y1, y2, y3, y4, y5 = y
        a0, a1, a2, a3, a4, a5 = rhs(y)
        b0, b1, b2, b3, b4, b5 = rhs((y0 + hh * a0, y1 + hh * a1, y2 + hh * a2,
                                      y3 + hh * a3, y4 + hh * a4, y5 + hh * a5))
        c0, c1, c2, c3, c4, c5 = rhs((y0 + hh * b0, y1 + hh * b1, y2 + hh * b2,
                                      y3 + hh * b3, y4 + hh * b4, y5 + hh * b5))
        d0, d1, d2, d3, d4, d5 = rhs((y0 + h * c0, y1 + h * c1, y2 + h * c2,
                                      y3 + h * c3, y4 + h * c4, y5 + h * c5))
        return (y0 + h6 * (((a0 + 2.0 * b0) + 2.0 * c0) + d0),
                y1 + h6 * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
                y2 + h6 * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
                y3 + h6 * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
                y4 + h6 * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
                y5 + h6 * (((a5 + 2.0 * b5) + 2.0 * c5) + d5))

    return step


def _body_invariants(config: RunConfig):
    """y -> (gamma_sq, E)."""
    inertia, g = config.body()
    return lambda y: invariants(y, inertia, g)[::2]


def _lagrange_invariants(config: RunConfig):
    return lambda y: euler_lagrange.lagrange_invariants(y, config.vertical, config.h)


def _body_reference(config: RunConfig, h: float):
    inertia, g = config.body()
    return _rk4(lambda y: euler_poisson_rhs(y, inertia, g), h)


def _lagrange_reference(config: RunConfig, h: float):
    p0, p1, p2 = config.vertical

    def rhs(y) -> tuple[float, ...]:
        # (p x a, m x a)
        m0, m1, m2, a0, a1, a2 = y
        return (p1 * a2 - p2 * a1, p2 * a0 - p0 * a2, p0 * a1 - p1 * a0,
                m1 * a2 - m2 * a1, m2 * a0 - m0 * a2, m0 * a1 - m1 * a0)

    return _rk4(rhs, h)


def _body_series(inertia, g):
    """(k, six coefficient lists to degree k-1) -> the six coefficients of
    degree k of the body flow w' = I^-1 (Iw x w + gamma x g), gamma' =
    gamma x w, whose Iw x w is ((B-C) w2 w3, (C-A) w3 w1, (A-B) w1 w2)."""
    (A, B, C), (e0, e1, e2) = inertia, g
    a, b, c = (B - C) / A, (C - A) / B, (A - B) / C

    def coefficient(k: int, w0, w1, w2, g0, g1, g2) -> tuple[float, ...]:
        return ((a * sum(map(mul, w1, reversed(w2))) + (g1[-1] * e2 - g2[-1] * e1) / A) / k,
                (b * sum(map(mul, w2, reversed(w0))) + (g2[-1] * e0 - g0[-1] * e2) / B) / k,
                (c * sum(map(mul, w0, reversed(w1))) + (g0[-1] * e1 - g1[-1] * e0) / C) / k,
                (sum(map(mul, g1, reversed(w2))) - sum(map(mul, g2, reversed(w1)))) / k,
                (sum(map(mul, g2, reversed(w0))) - sum(map(mul, g0, reversed(w2)))) / k,
                (sum(map(mul, g0, reversed(w1))) - sum(map(mul, g1, reversed(w0)))) / k)

    return coefficient


# convergence_study's reference: Taylor series of this degree, each step sized
# so that the last two terms stay below this tolerance times max(1, |y|), then
# shortened by this factor (Jorba and Zou, Experiment. Math. 14 (2005)).
_TAYLOR_DEGREE, _TAYLOR_TOL, _TAYLOR_SAFETY = 20, 1e-16, math.exp(-0.7)


def _taylor_endpoint(config: RunConfig, t_end: float, max_steps: int) -> tuple[float, ...]:
    """The state at t_end of the model's flow from the init, by Taylor steps
    whose last lands on t_end. Raises NumericalError, prefixed with the model,
    the scheme and "reference", for a coefficient or state that is not
    finite, a step size that is not positive, and more than max_steps steps.
    The Lagrange flow m' = p x a, a' = m x a is the body flow of (-m, a) at
    unit inertia and g = p, and negation is exact."""
    lagrange = config.model == "lagrange"
    coefficient = _body_series(*((1.0, 1.0, 1.0), config.vertical) if lagrange else config.body())
    flip = (lambda y: (-y[0], -y[1], -y[2], *y[3:])) if lagrange else tuple
    y, t, p = flip(config.init), 0.0, _TAYLOR_DEGREE
    where = f"{config.model}/{config.scheme} reference:"
    for n in range(1, max_steps + 1):
        cs = [[v] for v in y]
        for k in range(1, p + 1):
            new = coefficient(k, *cs)
            # As in _steps, only a sum that is not finite needs each checked.
            if not math.isfinite(sum(new)) and not all(map(math.isfinite, new)):
                raise NumericalError(f"{where} Taylor coefficient {k} overflows at step {n}")
            for c, v in zip(cs, new):
                c.append(v)
        tol, h = _TAYLOR_TOL * max(1.0, *map(abs, y)), math.inf
        for k in (p - 1, p):
            top = sum(abs(c[k]) for c in cs)
            if top:
                h = min(h, _TAYLOR_SAFETY * (tol / top) ** (1.0 / k))
        if not h > 0:
            raise NumericalError(f"{where} step size {h:g} at step {n}")
        last = h >= t_end - t
        if last:
            h = t_end - t
        y = tuple(reduce(lambda acc, v: acc * h + v, reversed(c)) for c in cs)
        if not math.isfinite(sum(y)) and not all(map(math.isfinite, y)):
            raise NumericalError(f"{where} non-finite state at step {n}")
        if last:
            return flip(y)
        t += h
    raise NumericalError(f"{where} needs more than {max_steps} steps, the count of the finest run")


_BODY_COLUMNS = ("w1", "w2", "w3", "g1", "g2", "g3")
_BODY_INVARIANTS = ("gamma_sq", "E")
_BODY_SCHEMES = {
    "hk": Scheme(lambda c, h: hk_stepper(*c.body(), h), 2, True),
    "reference": Scheme(_body_reference, 4, False),
}
_KOWALEVSKI_EXACT = ("gamma_sq", "k_sq")

# The one list of models, of the schemes each runs and of what each scheme
# promises. Factories are looked up when a run binds a step, invariant
# functions when they run. The free-top bs and symmetric steps leave gamma
# where it is, so they claim no order (ROADMAP item 2).
MODELS: dict[str, Model] = {
    "euler": Model(_BODY_COLUMNS, _BODY_INVARIANTS, _body_invariants, {
        **_BODY_SCHEMES,
        "bs": Scheme(lambda c, h: euler_lagrange.bs_stepper(c.inertia, h),
                     None, False, ("gamma_sq",)),
        "symmetric": Scheme(lambda c, h: euler_lagrange.symmetric_stepper(c.inertia, h),
                            None, True, ("gamma_sq", "E")),
    }, reads=("inertia",)),
    "lagrange": Model(
        ("m1", "m2", "m3", "a1", "a2", "a3"), ("a_sq", "m_dot_p", "m_dot_a", "E"),
        _lagrange_invariants, {
            "bs": Scheme(lambda c, h: euler_lagrange.lagrange_stepper(c.vertical, h),
                         1, False, ("a_sq", "m_dot_p", "m_dot_a", "E")),
            # RK4 keeps every linear invariant, and m.p is linear.
            "reference": Scheme(_lagrange_reference, 4, False, ("m_dot_p",)),
        }, reads=("vertical",),
    ),
    # The default init is the standard test point: w = (2, 0, 0), gamma_3 = 0.001.
    "kowalevski": Model(_BODY_COLUMNS, ("gamma_sq", "two_ell", "E", "k_sq"),
                        lambda c: lambda y: kowalevski_invariants(y, c.c0), {
        **_BODY_SCHEMES,
        "bohlin-a": Scheme(
            lambda c, h: kowalevski.bohlin_stepper(c.c0, h, kowalevski.gamma_step_bs),
            1, False, _KOWALEVSKI_EXACT),
        "bohlin-b": Scheme(
            lambda c, h: kowalevski.bohlin_stepper(c.c0, h, kowalevski.gamma_step_stereo),
            1, False, _KOWALEVSKI_EXACT),
        "bohlin-c": Scheme(
            lambda c, h: kowalevski.bohlin_stepper(c.c0, h, kowalevski.gamma_step_rotation),
            1, False, _KOWALEVSKI_EXACT),
        "hybrid": Scheme(lambda c, h: kowalevski.hybrid_stepper(c.c0, h),
                         2, False, _KOWALEVSKI_EXACT),
    }, reads=("c0",),
        default_init=(2.0, 0.0, 0.0, math.sqrt(1.0 - 0.001**2), 0.0, 0.001)),
    "general": Model(_BODY_COLUMNS, _BODY_INVARIANTS, _body_invariants, _BODY_SCHEMES,
                     reads=("inertia", "gravity")),
}


def make_stepper(config: RunConfig, h: float):
    """Packed-state step function y -> y' of the configured model/scheme at
    step size h, from a validated config. Everything that depends only on the
    config and h is bound here, once."""
    return MODELS[config.model].schemes[config.scheme].make(config, h)


def _steps(config: RunConfig, legs, what: str):
    """Yield the state after each step of the configured scheme from the init,
    as six floats, over legs of (h, n): n steps at h, with the step bound once
    per leg. Steps are numbered from 1 across the legs. Raises NumericalError,
    prefixed with the model, the scheme and `what`, naming the first step
    whose state is non-finite, and for any failure of a step: a
    NumericalError keeps its type, and an ArithmeticError or a ValueError,
    such as the overflow of a Python power or math.tan(inf), becomes one."""
    y, done = config.init, 0
    prefix = f"{config.model}/{config.scheme} {what}: "
    try:
        for h, n in legs:
            step = make_stepper(config, h)
            for k in range(done + 1, done + n + 1):
                y = step(y)
                # A finite sum proves every component finite; a sum that
                # overflows can come from finite ones, so only then check each.
                a, b, c, d, e, f = y
                if not math.isfinite(a + b + c + d + e + f) and not all(map(math.isfinite, y)):
                    raise NumericalError(f"non-finite state at step {k} of the {what}")
                yield y
            done += n
    except NumericalError as e:
        e.args = (prefix + str(e),)
        raise
    except (ArithmeticError, ValueError) as e:
        raise NumericalError(prefix + str(e)) from e


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
    loop = _steps(config, [(config.h, config.steps)], "run")
    return Trajectory(config, [config.init, *islice(loop, stride - 1, None, stride)])


def reversal_test(config: RunConfig) -> float:
    """Forward config.steps steps with +h then as many with -h; max-norm
    distance from the starting state. Raises NumericalError naming the first
    step of the round trip whose state is non-finite."""
    config = config.validated()
    h, n, y = config.h, config.steps, config.init
    for y in _steps(config, [(h, n), (-h, n)], "round trip"):
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
    """Endpoint error at t_end, for each h in h_list, against the Taylor
    reference `_taylor_endpoint`, which is at roundoff level and may take no
    more steps than the run at min(h). Returns rows (h, error, observed_order)
    where observed_order compares each row against the previous one (None if
    either error is 0). Raises NumericalError for a failure of the reference
    and naming the first step of a run whose state is non-finite.
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
    if t_end / min(h_list) > sys.maxsize:
        raise ConfigError(f"t_end={t_end:g} needs more than {sys.maxsize} steps at min(h)")
    for h in h_list:
        n = t_end / h
        if round(n) < 1 or abs(n - round(n)) > 1e-9:
            raise ConfigError(f"t_end/h not a positive integer for h={h}")

    y_ref = _taylor_endpoint(config, t_end, round(t_end / min(h_list)))

    rows: list[tuple[float, float, float | None]] = []
    prev: tuple[float, float] | None = None
    for h in sorted(h_list, reverse=True):
        y = config.init
        for y in _steps(config, [(h, round(t_end / h))], "run"):
            pass
        err = max(abs(a - b) for a, b in zip(y, y_ref))
        order = None
        if prev is not None and prev[1] > 0 and err > 0:
            h_prev, err_prev = prev
            order = math.log(err_prev / err) / math.log(h_prev / h)
        rows.append((h, err, order))
        prev = (h, err)
    return rows
