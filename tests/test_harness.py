import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spintops.algebra import NumericalError, bs_solve
from spintops.cli import build_parser, main
from spintops import harness
from spintops.euler_lagrange import FIXED_POINT_TOL, MAX_FIXED_POINT_ITERATIONS, ConvergenceError
from spintops.harness import (
    MODELS,
    ConfigError,
    PeriodEstimationError,
    RunConfig,
    convergence_study,
    drift_report,
    estimate_period,
    make_stepper,
    reversal_test,
    run,
)
from spintops.models import KOWALEVSKI_INERTIA, invariants, kowalevski_invariants

from conftest import ORDER_TOL, SRC, spawn, vector_body_rhs, vector_lagrange_rhs, vector_rk4


def kow_cfg(**kw):
    base = dict(model="kowalevski", scheme="hk", h=0.001, steps=100, stride=1)
    base.update(kw)
    return RunConfig(**base)


class TestRunConfigValidation:
    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            kow_cfg(model="sphere").validated()

    def test_scheme_model_mismatch(self):
        with pytest.raises(ConfigError):
            RunConfig(model="euler", scheme="hybrid", h=0.01, steps=1,
                      init=np.zeros(6)).validated()

    def test_nonpositive_h(self):
        with pytest.raises(ConfigError):
            kow_cfg(h=0.0).validated()

    def test_bad_stride(self):
        with pytest.raises(ConfigError):
            kow_cfg(stride=0).validated()

    def test_missing_init_for_euler(self):
        with pytest.raises(ConfigError):
            RunConfig(model="euler", scheme="hk", h=0.01, steps=1).validated()

    def test_wrong_init_length(self):
        with pytest.raises(ConfigError):
            kow_cfg(init=np.zeros(4)).validated()

    @pytest.mark.parametrize("model, scheme, name, value", [
        ("euler", "bs", "inertia", (1.0, 2.0)),
        ("euler", "hk", "inertia", (1.0, 2.0, 3.0, 4.0)),
        ("general", "reference", "gravity", (0.5, 1.0)),
        ("lagrange", "bs", "vertical", 1.0),
    ])
    def test_wrong_parameter_vector_length(self, model, scheme, name, value):
        cfg = RunConfig(model=model, scheme=scheme, h=0.01, steps=1, init=np.ones(6),
                        **{name: value})
        with pytest.raises(ConfigError, match=f"{name} must have 3 components"):
            cfg.validated()

    def test_non_numeric_parameter(self):
        cfg = RunConfig(model="euler", scheme="bs", h=0.01, steps=1, init=(1, 1, 1, 1, 0, 0),
                        inertia=("a", 1, 2))
        with pytest.raises(ConfigError, match="parameters and init must be real numbers"):
            cfg.validated()

    def test_default_kowalevski_init(self):
        cfg = kow_cfg().validated()
        assert cfg.init[0] == 2.0
        assert cfg.init[5] == 0.001
        assert cfg.init[3] == pytest.approx(np.sqrt(1 - 0.001**2), abs=1e-16)

    def test_default_vertical_is_the_unit_z_axis(self):
        # A Lagrange run with the vertical left out ends on the bits of one
        # with vertical=(0, 0, 1).
        cfg = RunConfig("lagrange", "bs", 0.01, 40, init=_FORM_CONFIGS["lagrange"]["init"])
        left_out, given = (" ".join(map(float.hex, run(c).samples[-1]))
                           for c in (cfg, cfg._replace(vertical=(0.0, 0.0, 1.0))))
        assert left_out == given

    def test_config_is_an_immutable_value(self):
        # Equal configs compare and hash equal, a field cannot be assigned,
        # and validating a validated config changes nothing.
        cfg = kow_cfg().validated()
        with pytest.raises(AttributeError):
            cfg.h = 0.01
        assert cfg == kow_cfg().validated() and hash(cfg) == hash(kow_cfg().validated())
        assert cfg.validated() == cfg
        with pytest.raises(ConfigError, match="h must be positive"):
            cfg._replace(h=-1.0).validated()

    def test_default_parameter_given_as_an_int(self):
        # c0=1 equals the default 1.0, so euler, which does not read c0, accepts it.
        cfg = RunConfig(model="euler", scheme="bs", h=0.01, steps=1, c0=1,
                        init=(1, 1, 1, 1, 0, 0)).validated()
        assert type(cfg.c0) is float and cfg.c0 == 1.0

    def test_fields_become_floats_and_ints(self):
        cfg = RunConfig(model="euler", scheme="bs", h=np.float64(0.01), steps=np.int64(3),
                        stride=np.int64(1), init=np.array([1, 1, 1, 1, 0, 0])).validated()
        assert type(cfg.h) is float and type(cfg.steps) is int and type(cfg.stride) is int
        assert type(cfg.init) is tuple and len(cfg.init) == 6
        assert all(type(v) is float for v in cfg.init)
        assert cfg.init == (1.0, 1.0, 1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("field, value", [
        ("steps", 2.5), ("steps", "3"), ("steps", True), ("h", "a"), ("h", True),
        pytest.param("h", 10**400, id="h-int-beyond-float-range"), ("stride", 1.5),
        ("stride", math.nan), ("init", (True, 0, 0, 1, 0, 0)),
        # unhashable, so not a key of the model and scheme tables
        ("model", ["euler"]), ("model", {"euler": 1}), ("scheme", ["bs"]), ("scheme", {"bs": 1}),
        # counts above sys.maxsize, which repeat and islice refuse
        pytest.param("steps", 10**20, id="steps-above-maxsize"),
        pytest.param("stride", 10**20, id="stride-above-maxsize"),
    ])
    def test_field_of_the_wrong_type(self, field, value):
        cfg = RunConfig(model="euler", scheme="bs", h=0.01, steps=3, init=(1, 1, 1, 1, 0, 0))
        with pytest.raises(ConfigError):
            run(cfg._replace(**{field: value}))

    def test_round_trip_and_study_arguments_of_the_wrong_type(self):
        cfg = RunConfig(model="euler", scheme="bs", h=0.01, steps=3, init=(1, 1, 1, 1, 0, 0))
        for n in (2.5, "3", True, -1, 10**20):
            with pytest.raises(ConfigError):
                reversal_test(cfg._replace(steps=n))
        for h_list, t_end in [([0.02, "0.01", 0.005], 0.02), ([0.02, 0.02, 0.01], 0.02),
                              (0.5, 1.0), ([0.02, 0.01, 0.005], True),
                              ([1e-300, 2e-300, 4e-300], 1e300)]:
            with pytest.raises(ConfigError):
                convergence_study(cfg, h_list, t_end)


# Values of each field and argument for the fuzz test, valid ones and not.
_FUZZ_FIELDS = {
    "model": ["sphere", 3],
    "scheme": ["rk9", None],
    "h": [0.1, 1e300, np.float64(0.01), 1, 0.0, -0.01, math.nan, math.inf, "a", "0.01", True,
          None, 10**400, np.array(0.01)],
    "steps": [0, 3, np.int64(2), -1, 2.5, 3.0, "3", True, None, math.nan, 10**20],
    "stride": [2, np.int64(1), 0, 1.5, math.nan, True, "1", -2, 10**20],
    "c0": [2, -0.5, math.nan, "a", None, True, 10**400],
    "inertia": [(2, 2, 1), (1, 2), (0, 1, 1), ("a", 1, 2), 1.0, (math.inf, 1, 1), "abc"],
    "gravity": [(0.5, 0, 1), (1, 2), (math.nan, 0, 0), "abc", None],
    "vertical": [(1, 0, 0), 1.0, (0, 0, "1"), (-1e300, 0, 1e300)],
    "init": [(1, 1, 1, 1, 0, 0), np.array([0.3, -0.2, 0.9, 0.6, 0, 0.8]), (1e300,) * 6,
             (1e200, 0, 0, 1, 0, 0), (-1e300, 1e300, -1e300, 1e300, -1e300, 1e300),
             (1, 1, 1, 1), (math.nan, 0, 0, 1, 0, 0), ("a",) * 6, (True, 0, 0, 1, 0, 0), 5.0,
             np.ones((6, 1)), "123456"],
}
_FUZZ_N = [0, 3, np.int64(2), -1, 2.5, "3", True, None, math.inf, 10**20]
_FUZZ_H_LISTS = [[0.02, 0.01, 0.005], [0.1, 0.05, 0.025], [0.02, 0.01], [0.02, "0.01", 0.005],
                 [0.02, 0.02, 0.01], [0.02, 0.01, 0.003], 0.5, None, [0.02, math.nan, 0.005],
                 [0.02, True, 0.005], [2e300, 1e300, 5e299], (0.04, 0.02, 0.01), ["a", "b", "c"],
                 [-0.02, -0.01, -0.005], np.array([0.02, 0.01, 0.005])]
_FUZZ_T_END = [0.02, 0.1, 0.04, 1e-300, -1.0, math.nan, math.inf, "1", True, None]


class TestLibraryInputContract:
    @pytest.mark.filterwarnings("error")
    def test_fuzz_returns_or_raises_config_or_numerical_error(self, rng):
        # Valid configs and arguments, with up to two fields and each argument
        # replaced half the time by a value of any type: run, reversal_test
        # and convergence_study each return or raise ConfigError or
        # NumericalError, never anything else or a warning.
        def pick(values):
            return values[rng.integers(len(values))]

        pairs = [(m, s) for m in MODELS for s in MODELS[m].schemes]
        outcomes = set()
        for _ in range(400):
            model, scheme = pick(pairs)
            fields = dict(model=model, scheme=scheme, h=0.01, steps=3, stride=1,
                          init=None if model == "kowalevski" else (0.3, -0.2, 0.9, 0.6, 0, 0.8))
            for name in rng.choice(list(_FUZZ_FIELDS), size=rng.integers(3), replace=False):
                fields[name] = pick(_FUZZ_FIELDS[name])
            cfg = RunConfig(**fields)
            n = pick(_FUZZ_N) if rng.random() < 0.5 else 3
            h_list = pick(_FUZZ_H_LISTS) if rng.random() < 0.5 else [0.02, 0.01, 0.005]
            t_end = pick(_FUZZ_T_END) if rng.random() < 0.5 else 0.02
            for call in (lambda: run(cfg), lambda: reversal_test(cfg._replace(steps=n)),
                         lambda: convergence_study(cfg, h_list, t_end)):
                try:
                    call()
                    outcomes.add("returned")
                except ConfigError:
                    outcomes.add("ConfigError")
                except NumericalError:
                    outcomes.add("NumericalError")
        # The fuzz reaches all three outcomes.
        assert outcomes == {"returned", "ConfigError", "NumericalError"}, outcomes


class TestRun:
    def test_zero_steps_single_row(self):
        traj = run(kow_cfg(steps=0))
        assert len(traj.steps) == 1
        assert np.array_equal(traj.states[0], kow_cfg().validated().init)

    def test_row_count(self):
        cfg = kow_cfg(steps=100, stride=7).validated()
        traj = run(cfg)
        assert len(traj.steps) == 100 // 7 + 1
        assert traj.steps == range(0, 101, 7)
        # Row i is the state after traj.steps[i] hand steps, bit for bit.
        step, y, n = make_stepper(cfg, cfg.h), cfg.init, 0
        for k, state in zip(traj.steps, traj.states):
            while n < k:
                y, n = step(y), n + 1
            assert np.array_equal(state, y), k

    def test_time_column(self, tmp_path):
        # The t cell of each CSV row is its step number times h, to 17 digits.
        traj = run(kow_cfg(steps=20, stride=5))
        path = tmp_path / "traj.csv"
        traj.to_csv(str(path))
        rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [[str(n), f"{n * 0.001:.17g}"]
                                             for n in range(0, 21, 5)]

    def test_invariant_columns_self_consistent(self):
        traj = run(kow_cfg(steps=50))
        rows = list(zip(*map(traj.values, MODELS["kowalevski"].invariant_names)))
        assert len(rows) == len(traj.steps)
        for i, row in enumerate(rows):
            y = traj.states[i]
            gamma_sq, _, energy = invariants(y, KOWALEVSKI_INERTIA, (1.0, 0.0, 0.0))
            assert row == kowalevski_invariants(traj.samples[i], 1.0)
            assert abs(row[0] - gamma_sq) <= 1e-15
            assert abs(row[2] - energy) <= 1e-15

    def test_last_sample_time_past_the_float_range(self, monkeypatch):
        # 3 * 1e308 overflows, so the t of the last CSV row would be inf: run
        # refuses the config before it steps. One step of 1e308 runs, a round
        # trip of no steps runs, and convergence_study, which ignores steps,
        # runs too.
        cfg = RunConfig(model="euler", scheme="reference", h=1e308, steps=3, stride=1,
                        init=(0, 0, 0, 1, 0, 0))
        with monkeypatch.context() as m:
            m.setattr("spintops.harness.make_stepper", None)
            with pytest.raises(ConfigError, match=r"^steps\*h must be finite, not 3\*1e\+308$"):
                run(cfg)
        assert run(cfg._replace(steps=1)).steps == range(2)
        assert reversal_test(cfg._replace(steps=0)) == 0.0
        assert len(convergence_study(cfg, [0.02, 0.01, 0.005], 0.02)) == 3

    def test_determinism_identical_csv_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(kow_cfg(steps=200, stride=10)).to_csv(str(p1))
        run(kow_cfg(steps=200, stride=10)).to_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("model", MODELS)
    def test_csv_and_invariants_follow_the_model_schema(self, model, tmp_path):
        # Each model has exactly the invariants its function returns: the CSV
        # header, every CSV row, the drift report and values() all follow its
        # invariant_names, with no blank value; values() of a state column
        # reads the states.
        invariant_names = {"euler": ("gamma_sq", "E"),
                           "lagrange": ("a_sq", "m_dot_p", "m_dot_a", "E"),
                           "kowalevski": ("gamma_sq", "two_ell", "E", "k_sq"),
                           "general": ("gamma_sq", "E")}[model]
        m = MODELS[model]
        assert m.invariant_names == invariant_names
        init = {"kowalevski": None, "lagrange": (0, 0, 1, 1, 0, 0)}.get(
            model, (0.3, -0.2, 0.9, 0.6, 0, 0.8))
        traj = run(RunConfig(model=model, scheme=next(iter(m.schemes)), h=0.01, steps=6,
                             stride=2, init=init))
        path = tmp_path / "traj.csv"
        traj.to_csv(str(path))
        header, *rows = path.read_text().splitlines()
        assert header == ",".join(("step", "t") + m.columns + invariant_names)
        assert len(rows) == 4
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 2 + len(m.columns) + len(invariant_names) and all(cells), row
        assert tuple(drift_report(traj)) == invariant_names
        invariants_of = m.invariants(traj.config)
        for j, name in enumerate(invariant_names):
            assert traj.values(name) == [invariants_of(y)[j] for y in traj.samples], name
            assert len(traj.values(name)) == 4, name
        for j, name in enumerate(m.columns):
            assert traj.values(name) == traj.states[:, j].tolist(), name

    def test_values_of_an_unknown_name_is_a_key_error(self):
        # A name that is neither a state column nor an invariant of the
        # model: a Lagrange invariant read from a Kowalevski run, say.
        traj = run(kow_cfg(steps=2))
        for name in ("nope", "a_sq"):
            with pytest.raises(KeyError, match=name):
                traj.values(name)

    def test_invariants_checked_when_read(self, tmp_path):
        # The bs step keeps this state finite, and its energy overflows: run
        # returns, and every reader of the invariants raises, naming the
        # invariant and the sample step.
        cfg = RunConfig(model="euler", scheme="bs", h=0.01, steps=3, stride=1,
                        init=(1e200, 0, 0, 1, 0, 0))
        traj = run(cfg)
        assert np.all(np.isfinite(traj.states))
        assert traj.states is traj.states
        path = tmp_path / "traj.csv"
        for read in (lambda: traj.values("E"), lambda: drift_report(traj),
                     lambda: traj.to_csv(str(path))):
            with pytest.raises(NumericalError, match=r"^euler/bs run: invariant E overflows at step 0$"):
                read()
        assert not path.exists()

    def test_states_without_numpy_names_the_extra(self, monkeypatch):
        # numpy is not a dependency of the package: without it a run returns
        # its samples, and only `states` raises, naming the extra to install.
        traj = run(kow_cfg(steps=2))
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", None)
            with pytest.raises(ImportError, match=r"^Trajectory\.states needs numpy: "
                                                  r"pip install 'spintops\[array\]'$"):
                traj.states
        assert np.array_equal(traj.states, traj.samples)

    def test_invariant_overflow_names_the_first_invariant(self):
        # gamma_sq overflows first at this init, and |xi| is past the float
        # range too: the error names gamma_sq.
        cfg = RunConfig(model="kowalevski", scheme="hk", h=0.001, steps=0,
                        init=(0, 0, 0, -1.5e308, -1.5e308, 0))
        with pytest.raises(NumericalError,
                           match=r"^kowalevski/hk run: invariant gamma_sq overflows at step 0$"):
            drift_report(run(cfg))

    def test_lagrange_csv_header(self, tmp_path):
        path = tmp_path / "lag.csv"
        cfg = RunConfig(model="lagrange", scheme="bs", h=0.01, steps=2, stride=1,
                        init=np.array([0, 0, 1, 1, 0, 0.0]))
        run(cfg).to_csv(str(path))
        assert path.read_text().splitlines()[0] == \
            "step,t,m1,m2,m3,a1,a2,a3,a_sq,m_dot_p,m_dot_a,E"

    @pytest.mark.parametrize(
        "model,scheme",
        [(m, s) for m in MODELS for s in MODELS[m].schemes],
        ids=lambda x: x,
    )
    def test_stepper_leaves_its_input_alone(self, model, scheme):
        # A stepper takes any sequence of six floats and returns six: from a
        # tuple, as run passes it, and from a read-only array, which it must
        # not write and which gives the same result.
        init = None if model == "kowalevski" else np.array([0.3, -0.2, 0.9, 0.6, 0, 0.8])
        cfg = RunConfig(model=model, scheme=scheme, h=0.01, steps=1, init=init).validated()
        step = make_stepper(cfg, cfg.h)
        out = step(cfg.init)
        assert len(out) == 6
        assert all(isinstance(v, float) and math.isfinite(v) for v in out)
        y = np.array(cfg.init)
        y.setflags(write=False)
        assert np.array_equal(step(y), out)
        assert np.array_equal(y, cfg.init)

    @pytest.mark.parametrize("scheme", ["bs", "symmetric"])
    def test_free_top_steppers_match_the_momentum_form(self, scheme, rng):
        # The free-top steppers advance the packed (omega, gamma): gamma comes
        # back bit for bit, and omega' bit for bit as the momentum-form step
        # m -> m' written out below on floats, with m = I omega and
        # omega' = m' / I. The symmetric form is seeded by one explicit
        # midpoint step of m' = m x omega, and a seed that is not finite
        # raises NumericalError. The oracle checks the defining relation on
        # every iterate, and returns the first iterate that has stalled and
        # satisfies it, or the last allowed one if that satisfies it;
        # otherwise it raises ConvergenceError. Both sides give the same
        # bytes, signed zeros included, or the same exception type and
        # message, on random states, on signed zeros, 1e+-300, inf and nan in
        # the state, and on the grid omega in {0, -0, 1, -1.5}^3 with inertias
        # that make a k_i zero, at step sizes up to h = 1e300.
        def seed(m, w, inertia, h):
            (A, B, C), (m0, m1, m2), (w0, w1, w2) = inertia, m, w
            p0, p1, p2 = (m0 + 0.5 * h * (m1 * w2 - m2 * w1), m1 + 0.5 * h * (m2 * w0 - m0 * w2),
                          m2 + 0.5 * h * (m0 * w1 - m1 * w0))
            q0, q1, q2 = p0 / A, p1 / B, p2 / C
            return (m0 + h * (p1 * q2 - p2 * q1), m1 + h * (p2 * q0 - p0 * q2),
                    m2 + h * (p0 * q1 - p1 * q0))

        def momentum_step(m, inertia, h):
            (A, B, C), (m0, m1, m2) = inertia, m
            w0, w1, w2 = m0 / A, m1 / B, m2 / C
            if scheme == "bs":
                return bs_solve(m, (w0, w1, w2), 0.5 * h)
            n0, n1, n2 = seed(m, (w0, w1, w2), inertia, h)
            if not all(map(math.isfinite, (n0, n1, n2))):
                raise NumericalError("symmetric free-top step: seed overflows")
            scale, c = max(1.0, abs(m0), abs(m1), abs(m2)), 0.25 * h
            for k in range(MAX_FIXED_POINT_ITERATIONS):
                x0, x1, x2 = bs_solve(m, (w0 + n0 / A, w1 + n1 / B, w2 + n2 / C), c)
                stalled = all(abs(d) <= 1e-16 * scale for d in (x0 - n0, x1 - n1, x2 - n2))
                n0, n1, n2 = x0, x1, x2
                s0, s1, s2 = n0 + m0, n1 + m1, n2 + m2
                v0, v1, v2 = w0 + n0 / A, w1 + n1 / B, w2 + n2 / C
                residual = (n0 - m0 - c * (s1 * v2 - s2 * v1), n1 - m1 - c * (s2 * v0 - s0 * v2),
                            n2 - m2 - c * (s0 * v1 - s1 * v0))
                if all(abs(r) <= FIXED_POINT_TOL * scale for r in residual) \
                        and (stalled or k == MAX_FIXED_POINT_ITERATIONS - 1):
                    return n0, n1, n2
            raise ConvergenceError("symmetric free-top step did not converge")

        def outcome(step):
            try:
                return np.array(step(), dtype=float).tobytes()
            except NumericalError as e:
                return type(e), str(e)

        def check(inertia, y, h):
            inertia, y = tuple(inertia.tolist()), tuple(y.tolist())
            A, B, C = inertia
            cfg = RunConfig(model="euler", scheme=scheme, h=0.01, steps=1, inertia=inertia,
                            init=np.zeros(6))
            got = outcome(lambda: make_stepper(cfg, h)(y))
            want = outcome(lambda: (*(n / i for n, i in zip(
                momentum_step((A * y[0], B * y[1], C * y[2]), inertia, h), inertia)), *y[3:]))
            assert got == want, (inertia, y, h)
            return got

        for _ in range(200):
            check(rng.uniform(0.5, 3.0, 3), rng.normal(size=6), rng.uniform(-0.05, 0.05))
        for h in (0.0, -0.0, 0.5, 0.01):
            for v in (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, np.inf, -np.inf, np.nan):
                for i in range(6):
                    y = rng.normal(size=6)
                    y[i] = v
                    check(rng.uniform(0.5, 3.0, 3), y, h)
                check(rng.uniform(0.5, 3.0, 3), np.full(6, v), h)
        outcomes = set()
        for inertia in ((1.0, 2.0, 3.0), (1.0, 1.0, 2.0), (2.0, 2.0, 2.0), (3.0, 2.0, 2.0)):
            for omega in itertools.product((0.0, -0.0, 1.0, -1.5), repeat=3):
                for h in (0.01, -0.01, 0.0, -0.0, 0.5, -0.5, 10.0, 1e9, 1e300):
                    got = check(np.array(inertia), np.array([*omega, 0.25, -0.0, 1.0]), h)
                    outcomes.add(type(got) if type(got) is bytes else got[0])
        # On the grid the symmetric step returns, refuses a seed that
        # overflows, or does not converge.
        if scheme == "symmetric":
            assert outcomes == {bytes, NumericalError, ConvergenceError}


# Random parameters a model reads, for the reference stepper.
_REFERENCE_PARAMS = {
    "euler": lambda rng: dict(inertia=tuple(rng.uniform(0.5, 3.0, 3).tolist())),
    "general": lambda rng: dict(inertia=tuple(rng.uniform(0.5, 3.0, 3).tolist()),
                                gravity=tuple(rng.normal(size=3).tolist())),
    "kowalevski": lambda rng: dict(c0=float(rng.uniform(0.5, 2.0))),
    "lagrange": lambda rng: dict(vertical=tuple(rng.normal(size=3).tolist())),
}


class TestReference:
    @pytest.mark.parametrize("model", list(_REFERENCE_PARAMS))
    def test_matches_vector_rk4_bit_for_bit(self, model, rng):
        # The float RK4 stepper against RK4 in numpy vector arithmetic, over
        # random states and parameters and h of both signs: equal after 50
        # steps, bit for bit.
        for sign in (1.0, -1.0) * 5:
            cfg = RunConfig(model=model, scheme="reference", h=0.01, steps=1,
                            init=rng.normal(size=6), **_REFERENCE_PARAMS[model](rng)).validated()
            h = sign * float(rng.uniform(1e-3, 0.05))
            rhs, params = ((vector_lagrange_rhs, (cfg.vertical,)) if model == "lagrange"
                           else (vector_body_rhs, cfg.body()))
            step, y, expected = make_stepper(cfg, h), cfg.init, np.array(cfg.init)
            for _ in range(50):
                y, expected = step(y), vector_rk4(lambda v: rhs(v, *params), expected, h)
            assert type(y) is tuple
            assert np.array_equal(y, expected), (cfg, h)


def _taylor_configs(model, rng, n):
    """n validated configs of the model with random parameters and inits
    omega (or m) ~ 2 N(0, 1) and a unit gamma (or a)."""
    configs = []
    for _ in range(n):
        v = rng.normal(size=3)
        init = [*(2.0 * rng.normal(size=3)).tolist(), *(v / np.linalg.norm(v)).tolist()]
        configs.append(RunConfig(model, "reference", 0.01, init=init,
                                 **_REFERENCE_PARAMS[model](rng)).validated())
    return configs


class TestTaylorReference:
    # convergence_study's reference, harness._taylor_endpoint: Taylor steps
    # of the model's flow to t_end, at most max_steps of them.
    @pytest.mark.parametrize("model", list(_REFERENCE_PARAMS))
    def test_rk4_converges_to_it_at_order_4(self, model, rng):
        # RK4 to T = 1 at n = 40, 80, ..., 2560 steps: its distance to the
        # Taylor endpoint falls 16-fold per halving of its step, order 4
        # within ORDER_TOL, at every halving that ends above 1e-13 relative,
        # and ends within 1e-12, where RK4's roundoff is near.
        for cfg in _taylor_configs(model, rng, 2):
            y_ref = harness._taylor_endpoint(cfg, 1.0, 1000)
            scale = max(1.0, *map(abs, y_ref))
            distances = []
            for n in (40, 80, 160, 320, 640, 1280, 2560):
                step, y = make_stepper(cfg, 1.0 / n), cfg.init
                for _ in range(n):
                    y = step(y)
                distances.append(max(abs(a - b) for a, b in zip(y, y_ref)) / scale)
            orders = [math.log2(a / b) for a, b in zip(distances, distances[1:]) if b > 1e-13]
            assert len(orders) >= 4 and all(abs(o - 4) <= ORDER_TOL for o in orders), \
                (cfg, distances)
            assert distances[-1] <= 1e-12, (cfg, distances)

    @pytest.mark.parametrize("model", list(_REFERENCE_PARAMS))
    def test_tighter_tolerance_or_half_step_moves_it_by_roundoff(self, model, rng, monkeypatch):
        # A tolerance 100 times tighter, or every step halved: the endpoint
        # at T = 1 moves by a few ulps of max(1, |y|).
        for cfg in _taylor_configs(model, rng, 5):
            y = harness._taylor_endpoint(cfg, 1.0, 1000)
            bound = 32 * sys.float_info.epsilon * max(1.0, *map(abs, y))
            for name, value in (("_TAYLOR_TOL", harness._TAYLOR_TOL / 100),
                                ("_TAYLOR_SAFETY", harness._TAYLOR_SAFETY / 2)):
                with monkeypatch.context() as m:
                    m.setattr(harness, name, value)
                    z = harness._taylor_endpoint(cfg, 1.0, 1000)
                assert max(abs(a - b) for a, b in zip(y, z)) <= bound, (cfg, name, y, z)

    def test_step_budget_and_step_size_raise(self, monkeypatch):
        # The default point takes three steps to T = 1: a budget of two
        # raises, and so does a study whose finest run takes 4 steps of
        # 5e299, where a Taylor step is below 1.
        cfg = kow_cfg().validated()
        reference = harness._taylor_endpoint
        assert reference(cfg, 1.0, 3) == reference(cfg, 1.0, 1000)
        with pytest.raises(NumericalError, match=r"^kowalevski/hk reference: needs more than 2 "):
            reference(cfg, 1.0, 2)
        with pytest.raises(NumericalError, match=r"^kowalevski/hk reference: needs more than 4 "):
            convergence_study(cfg, [2e300, 1e300, 5e299], 2e300)
        monkeypatch.setattr(harness, "_TAYLOR_TOL", 0.0)
        with pytest.raises(NumericalError, match=r"^kowalevski/hk reference: step size 0 at step 1"):
            reference(cfg, 1.0, 1000)


# One config per model with its parameters away from their defaults. The
# Kowalevski state starts at gamma_3 = -0.8, in bohlin-b's second chart.
_FORM_CONFIGS = {
    "euler": dict(inertia=(1.0, 2.0, 3.0), init=(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)),
    "lagrange": dict(vertical=(0.0, 0.6, 0.8), init=(0.2, -0.1, 1.0, 0.7071, 0.0, 0.7071)),
    "kowalevski": dict(c0=1.3, init=(1.0, 0.5, -0.3, 0.6, 0.0, -0.8)),
    "general": dict(inertia=(1.0, 2.0, 3.0), gravity=(0.5, 0.0, 1.0),
                    init=(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)),
}


def _hex(states):
    return [[float.hex(float(v)) for v in y] for y in states]


_PAIRS = [(m, s) for m in MODELS for s in MODELS[m].schemes]


class TestBoundSteppers:
    # run, reversal_test and convergence_study bind each step once per leg
    # through make_stepper(config, h); binding and stepping it by hand, leg
    # by leg, and calling the Taylor reference with the study's step budget,
    # gives the same bits.
    @pytest.mark.parametrize("model,scheme", _PAIRS, ids=lambda x: x)
    def test_diagnostics_match_stepping_by_hand(self, model, scheme, monkeypatch):
        cfg = RunConfig(model, scheme, 0.01, 40, stride=7, **_FORM_CONFIGS[model]).validated()

        def by_hand(c, legs):
            y, states = c.init, [c.init]
            for h, n in legs:
                step = make_stepper(c, h)
                for _ in range(n):
                    y = step(y)
                    states.append(y)
            return states

        def miss(y, z):
            return max(abs(a - b) for a, b in zip(y, z))

        assert _hex(run(cfg).samples) == _hex(by_hand(cfg, [(cfg.h, cfg.steps)])[::cfg.stride])
        trip = by_hand(cfg, [(cfg.h, 15), (-cfg.h, 15)])
        assert float.hex(reversal_test(cfg._replace(steps=15))) == \
            float.hex(miss(trip[-1], cfg.init))

        h_list, t_end = [0.04, 0.02, 0.01], 0.2
        y_ref = harness._taylor_endpoint(cfg, t_end, round(t_end / min(h_list)))
        errors = [miss(by_hand(cfg, [(h, round(t_end / h))])[-1], y_ref) for h in h_list]
        rows = convergence_study(cfg, h_list, t_end)
        assert [(float.hex(h), float.hex(e)) for h, e, _ in rows] == \
            [(float.hex(h), float.hex(e)) for h, e in zip(h_list, errors)]

        # A step that fails on the third step of the -h leg: steps are
        # numbered across the legs, so the message names step 15 + 3.
        make = harness.make_stepper

        def failing_on_the_third_step_back(config, h):
            step, calls = make(config, h), itertools.count(1)
            if h > 0:
                return step
            return lambda y: (math.nan,) * 6 if next(calls) == 3 else step(y)

        monkeypatch.setattr(harness, "make_stepper", failing_on_the_third_step_back)
        with pytest.raises(NumericalError, match=rf"^{model}/{scheme} round trip: non-finite "
                                                 r"state at step 18 of the round trip$"):
            reversal_test(cfg._replace(steps=15))


# The final state of a 40-step run at h = 0.01 from each config of
# _FORM_CONFIGS, as float.hex. A change to any scheme's arithmetic that moves
# a bit shows here; one that moves it on purpose records the new values.
_FINAL_STATE_BITS = {
    ("euler", "hk"): "0x1.2123dd211a355p-1 0x1.4beb786b4f24dp+0 0x1.c224b06d1d19cp-1 "
                     "0x1.a7093dd404a19p-1 -0x1.26173c0c5d27dp-2 0x1.f03f5f263d578p-2",
    ("euler", "reference"): "0x1.2123aaab12d05p-1 0x1.4bebccd99ff3dp+0 0x1.c224edd35ef41p-1 "
                            "0x1.a706e2b59fd71p-1 -0x1.261d9fdbe77f2p-2 0x1.f04038b910e88p-2",
    ("euler", "bs"): "0x1.240cef04d642ap-1 0x1.4cd45269e6113p+0 0x1.c0bdb03c2092cp-1 "
                     "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0",
    ("euler", "symmetric"): "0x1.2123fba507d4bp-1 0x1.4bebbb371192ap+0 0x1.c224ff2a03631p-1 "
                            "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0",
    ("lagrange", "bs"): "0x1.5dc640887018bp-2 0x1.f19ba998233d7p-4 0x1.aaf301b3564bbp-1 "
                        "0x1.5ad5232d92112p-1 0x1.64552dfcfe934p-3 0x1.6df006a95aeedp-1",
    ("lagrange", "reference"): "0x1.5d01923be7c13p-2 0x1.f0765da28544dp-4 0x1.ab0e80d25d1b2p-1 "
                               "0x1.5a467b9bde27fp-1 0x1.665b30d1852c3p-3 0x1.6e5773a15318dp-1",
    ("kowalevski", "hk"): "0x1.f3932a5d39d91p-1 0x1.7748182c294f7p-2 -0x1.ef7ec9ce32d42p-3 "
                          "0x1.79d7c7e7359b0p-1 -0x1.b187aa1d25f1ap-3 -0x1.4812670eeeeeap-1",
    ("kowalevski", "reference"): "0x1.f39314d71834bp-1 0x1.774811fabb84ap-2 "
                                 "-0x1.ef7dbbbff9660p-3 0x1.79d7ff4f696aep-1 "
                                 "-0x1.b187fcd6e5ffap-3 -0x1.48127294967d0p-1",
    ("kowalevski", "bohlin-a"): "0x1.f3bcfbef42662p-1 0x1.774a6093c9404p-2 -0x1.ef8abfcd20ed0p-3 "
                                "0x1.7a1631723f2bep-1 -0x1.b12297e8d86abp-3 -0x1.47d323b879ce5p-1",
    ("kowalevski", "bohlin-b"): "0x1.f37ce67a91de9p-1 0x1.772007ed6474cp-2 -0x1.ef484bb00a3b4p-3 "
                                "0x1.79c04a1200139p-1 -0x1.b2332bf973892p-3 -0x1.481f994961a80p-1",
    ("kowalevski", "bohlin-c"): "0x1.f3bd06b6454d0p-1 0x1.774a05b903ff8p-2 -0x1.ef8a74d61af20p-3 "
                                "0x1.7a165934e9ed4p-1 -0x1.b12391a01cff3p-3 -0x1.47d2e13e355efp-1",
    ("kowalevski", "hybrid"): "0x1.f3931e34ed612p-1 0x1.774805dda21d7p-2 -0x1.ef7eb07a4bf83p-3 "
                              "0x1.79d7e0165a73dp-1 -0x1.b18827f10a2cfp-3 -0x1.481292fabc523p-1",
    ("general", "hk"): "0x1.0ec2b9940b901p-1 0x1.208888a8a64b6p+0 0x1.cd20623f2415dp-1 "
                       "0x1.aea71055032dcp-1 -0x1.2f4064823b3dap-2 0x1.cf6ee41eb200fp-2",
    ("general", "reference"): "0x1.0ec18387574dbp-1 0x1.20889edb1a471p+0 0x1.cd20a2ffc47dcp-1 "
                              "0x1.aea5b0870cf11p-1 -0x1.2f467438e1c63p-2 0x1.cf6f5d7517b3ep-2",
}


@pytest.mark.parametrize("model,scheme", [(m, s) for m in MODELS for s in MODELS[m].schemes],
                         ids=lambda x: x)
def test_final_state_keeps_its_bits(model, scheme):
    final = run(RunConfig(model, scheme, 0.01, 40, **_FORM_CONFIGS[model])).samples[-1]
    assert " ".join(map(float.hex, final)) == _FINAL_STATE_BITS[model, scheme]


# From the default Kowalevski init, where w2 = g2 = 0 so that signed zeros
# pass through the square-root recovery, at h = 1e-3: the final state of a
# 40-step run, then reversal_test over 20 steps, which runs the -h leg.
_DEFAULT_POINT_BITS = {
    "hk": ("0x1.ffffffffffd32p+0 0x1.4f96cd9e74d6ep-16 -0x1.ad5a79006fde0p-20 "
           "0x1.ffffef3596d8dp-1 0x1.4f52137621852p-14 0x1.05690859c22d0p-10",
           "0x1.8000000000000p-49"),
    "hybrid": ("0x1.ffffffffffd29p+0 0x1.4f96cd9e74d52p-16 -0x1.ad5a79006fdd4p-20 "
               "0x1.ffffef3596d92p-1 0x1.4f5213762184ap-14 0x1.05690859c22d0p-10",
               "0x1.6000000000000p-49"),
    "bohlin-a": ("0x1.00000000014a1p+1 0x1.4f9583d01de0ap-16 -0x1.ad595f880816cp-20 "
                 "0x1.ffffef35acedap-1 0x1.4f50c9c99c2dap-14 0x1.05685d033f776p-10",
                 "0x1.57d8dbfb20000p-27"),
    "bohlin-b": ("0x1.ffffffffec9bfp+0 0x1.4f9bdf0f34b77p-16 -0x1.ad5ec4313a0a9p-20 "
                 "0x1.ffffef34fd09ap-1 0x1.4f572463c44dbp-14 0x1.056db6d301babp-10",
                 "0x1.2c491ac690000p-24"),
    "bohlin-c": ("0x1.00000000014a1p+1 0x1.4f958b21cc9a3p-16 -0x1.ad5968e72be47p-20 "
                 "0x1.ffffef35aced9p-1 0x1.4f50d119cabeap-14 0x1.05685cfb03fb7p-10",
                 "0x1.57d8eb0120000p-27"),
}


@pytest.mark.parametrize("scheme", list(_DEFAULT_POINT_BITS))
def test_default_point_keeps_its_bits(scheme):
    cfg = RunConfig("kowalevski", scheme, 1e-3, 40)
    final = run(cfg).samples[-1]
    trip = reversal_test(cfg._replace(steps=20))
    assert (" ".join(map(float.hex, final)), float.hex(trip)) == _DEFAULT_POINT_BITS[scheme]


class TestReversalTest:
    def test_zero_rounds(self):
        assert reversal_test(kow_cfg(steps=0)) == 0.0

    def test_hybrid_round_trip_from_default_point(self):
        # omega_2 = 0 at the default point; measured 7.0e-14
        assert reversal_test(kow_cfg(scheme="hybrid", steps=1000)) <= 1e-12


class TestDriftReport:
    def test_constant_series(self):
        traj = run(kow_cfg(steps=0))
        rep = drift_report(traj)
        for d in rep.values():
            assert d.max_abs_deviation == 0.0
            assert d.min <= d.initial <= d.max

    def test_extrema_ordering(self):
        rep = drift_report(run(kow_cfg(steps=500)))
        for d in rep.values():
            assert d.min <= d.initial <= d.max
            assert d.min <= d.final <= d.max


class TestEstimatePeriod:
    def test_known_sinusoid(self):
        t = np.arange(0, 5, 0.001)
        assert estimate_period(np.sin(2 * np.pi * t), 0.001) == pytest.approx(1.0, abs=0.01)

    def test_constant_series_rejected(self):
        with pytest.raises(PeriodEstimationError):
            estimate_period(np.ones(100), 0.001)

    def test_offset_sinusoid(self):
        t = np.arange(0, 10, 0.01)
        series = 3.0 + 0.25 * np.sin(2 * np.pi * t / 2.5)
        assert estimate_period(series, 0.01) == pytest.approx(2.5, abs=0.025)

    def test_mean_of_values_near_the_float_range(self):
        # The sum of the values overflows, their mean does not.
        assert estimate_period([1e308, 1e308, -1e308, -1e308] * 3, 1.0) == 4.0

    def test_sample_exactly_at_the_mean_starts_an_upward_crossing(self):
        # The mean is 0, so each upward crossing starts on a sample at it.
        assert estimate_period([0.0, 1.0, 0.0, -1.0] * 4, 0.5) == 2.0

    def test_non_finite_series_rejected(self):
        for series in ([math.inf, -math.inf, 0.0, 1.0] * 3, [math.nan, 0.0, 1.0] * 3):
            with pytest.raises(PeriodEstimationError):
                estimate_period(series, 1.0)


class TestConvergenceStudy:
    def test_needs_three_step_sizes(self):
        with pytest.raises(ConfigError):
            convergence_study(kow_cfg(), [0.01, 0.005], 1.0)

    def test_needs_integral_step_counts(self):
        with pytest.raises(ConfigError):
            convergence_study(kow_cfg(), [0.02, 0.01, 0.003], 1.0)
        # a t_end far below every h: zero steps
        with pytest.raises(ConfigError, match="t_end/h not a positive integer"):
            convergence_study(kow_cfg(), [0.02, 0.01, 0.005], 1e-300)

    def test_zero_error_leaves_order_undefined(self, capsys):
        # a free top at rest is a fixed point of every scheme: every error is 0
        rc = main(["converge", "--model", "euler", "--scheme", "bs", "--h", "0.01",
                   "--h-list", "0.02,0.01,0.005", "--t-end", "1.0",
                   "--init", "0,0,0,1,0,0"])
        assert rc == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(float(err), order) for _, err, order in rows] == [(0.0, "-")] * 3


_KOW_RUN = ["run", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001", "--steps", "10"]
_KOW_CONVERGE = ["converge", "--model", "kowalevski", "--scheme", "hk", "--h", "0.01", "--t-end", "1.0"]
_EULER_RUN = ["run", "--model", "euler", "--scheme", "hk", "--h", "0.01", "--steps", "2"]

# A Kowalevski invariant column, which the general model does not have.
_KOWALEVSKI_COLUMN_PERIOD = [
    "period", "--model", "general", "--scheme", "hk", "--h", "0.02", "--steps", "1000",
    "--stride", "1", "--init", "1,1,1,1,0,0", "--column", "two_ell"]
# A count above sys.maxsize, which repeat and islice refuse.
_HUGE = str(10**20)

# Each input exits 2 with a message, never with a traceback or a NaN run.
CONFIG_ERRORS = [
    ["run", "--model", "euler", "--scheme", "hybrid", "--h", "0.001", "--steps", "10"],
    ["run", "--model", "kowalevski", "--scheme", "hk", "--h", "inf", "--steps", "10"],
    [*_KOW_RUN, "--c0", "nan"],
    [*_KOW_RUN, "--c0", "-inf"],
    [*_KOW_RUN, "--init", "nan,0,0,1,0,0"],
    [*_EULER_RUN, "--init", "1,1,1,1,0,0", "--inertia", "0,1,1"],
    ["run", "--model", "general", "--scheme", "hk", "--h", "0.01", "--steps", "2",
     "--init", "1,1,1,1,0,0", "--gravity", "nan,0,0"],
    [*_KOW_CONVERGE, "--h-list", "0,0.01,0.005"],
    [*_KOW_CONVERGE, "--h-list", "a,b,c"],
    [*_KOW_CONVERGE, "--h-list", "0.02,0.02,0.01"],
    ["reverse", "--model", "kowalevski", "--scheme", "hk", "--h", "0.01", "--n", _HUGE],
    ["run", "--model", "kowalevski", "--scheme", "hk", "--h", "0.01", "--steps", _HUGE],
    [*_KOW_RUN, "--stride", _HUGE],
    ["period", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001",
     "--steps", "100", "--stride", _HUGE],
    ["converge", "--model", "kowalevski", "--scheme", "hk", "--h", "0.01",
     "--h-list", "0.02,0.01,0.005", "--t-end", "inf"],
    # a t_end far below every h, zero steps of each
    ["converge", "--model", "kowalevski", "--scheme", "hk", "--h", "0.01",
     "--h-list", "0.02,0.01,0.005", "--t-end", "1e-300"],
    ["period", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001",
     "--steps", "100", "--column", "zz"],
    ["period", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001",
     "--steps", "10", "--column", "g3"],
    # a non-default value of a parameter the model does not read
    [*_EULER_RUN, "--init", "1,1,1,1,0,0", "--gravity", "5,0,0"],
    ["run", "--model", "general", "--scheme", "hk", "--h", "0.01", "--steps", "2",
     "--init", "1,1,1,1,0,0", "--c0", "2"],
    ["run", "--model", "lagrange", "--scheme", "bs", "--h", "0.01", "--steps", "2",
     "--init", "0,0,1,1,0,0", "--inertia", "2,2,1"],
    [*_KOW_RUN, "--p", "1,0,0"],
    # an --out path that cannot be written
    [*_KOW_RUN, "--out", "/"],
    [*_KOW_RUN, "--out", "/nonexistent-dir/x.csv"],
    [*_KOW_RUN, "--out", ""],
    # an invariant column of another model
    _KOWALEVSKI_COLUMN_PERIOD,
]

# The RK4 reference overflows to inf in step 1, where the run's check of each
# new state stops it.
REFERENCE_OVERFLOWS = [
    ["run", "--model", "general", "--scheme", "reference", "--h", "1e200", "--steps", "5",
     "--inertia", "1,2,3", "--gravity", "0,0,1", "--init", "1,1,1,0,0,1"],
    ["run", "--model", "lagrange", "--scheme", "reference", "--h", "1e200", "--steps", "5",
     "--init", "1,1,1,0,0,1"],
]

# Each input exits 3: a singular solve, or a state or invariant that overflows.
NUMERICAL_ERRORS = [
    # a free top spinning about its middle axis, where the hk system is singular
    ["run", "--model", "euler", "--scheme", "hk", "--h", "2", "--steps", "1", "--inertia", "3,2,1",
     "--init", "0,1.7320508075688772,0,0,0,1"],
    [*_KOW_RUN, "--init", "1e200,0,0,1,0,0"],
    [*_EULER_RUN, "--init", "1e200,1e200,1e200,1,0,0"],
    ["run", "--model", "kowalevski", "--scheme", "bohlin-c", "--h", "1e300", "--steps", "5"],
    # math.tan(inf) in the rotation, outside numpy
    ["reverse", "--model", "kowalevski", "--scheme", "bohlin-c", "--h", "1e300", "--n", "2"],
    ["run", "--model", "kowalevski", "--scheme", "hybrid", "--h", "1e200", "--steps", "3"],
    ["run", "--model", "kowalevski", "--scheme", "bohlin-b", "--h", "1e200", "--steps", "3"],
    # the final state is not a sample at stride 10, and is checked all the same
    ["run", "--model", "kowalevski", "--scheme", "bohlin-a", "--h", "1e200", "--steps", "3",
     "--stride", "10"],
    *REFERENCE_OVERFLOWS,
]

# A comma list that starts with "-" is a flag's value, not an option: each
# input exits 0 and prints the initial energy its value gives.
NEGATIVE_LIST_VALUES = [
    ([*_EULER_RUN, "--init", "-1,0,0,1,0,0"], "E: initial=0.5 "),
    (["run", "--model", "general", "--scheme", "hk", "--h", "0.01", "--steps", "2",
      "--init", "1,1,1,1,0,0", "--gravity", "-0.5,0,1"], "E: initial=2.5 "),
    (["run", "--model", "lagrange", "--scheme", "bs", "--h", "0.01", "--steps", "2",
      "--init", "0,0,1,1,0,0", "--p", "-1,0,0"], "E: initial=-0.5 "),
]


# A negative number in exponent notation is a flag's value too: each command
# prints with --c0 -1e-3 what it prints with --c0 -0.001.
NEGATIVE_EXPONENT_VALUES = [
    _KOW_RUN,
    ["reverse", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001", "--n", "10"],
]


def two_step_run(model, scheme, out):
    """The argv of a CLI run of two steps of the pair that writes every
    sample to the CSV file out."""
    init = [] if model == "kowalevski" else ["--init", "0.3,-0.2,0.9,0.6,0,0.8"]
    return ["run", "--model", model, "--scheme", scheme, "--h", "0.01",
            "--steps", "2", "--stride", "1", "--out", str(out), *init]


@pytest.fixture(scope="module")
def csv_without_numpy(tmp_path_factory):
    """The directory of the CSV files <model>-<scheme>.csv that two_step_run
    writes for every pair, all from one interpreter with numpy made
    unimportable."""
    path = tmp_path_factory.mktemp("without_numpy")
    runs = [two_step_run(m, s, path / f"{m}-{s}.csv") for m in MODELS for s in MODELS[m].schemes]
    script = f"""if True:
        import sys
        sys.modules["numpy"] = None
        from spintops.cli import main
        for argv in {runs!r}:
            assert main(argv) == 0, argv
    """
    out = spawn(script)
    assert out.returncode == 0, out.stderr
    return path


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["run", "--model", "kowalevski", "--scheme", "hk",
                   "--h", "0.001", "--steps", "100", "--stride", "10",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "k_sq" in capsys.readouterr().out

    def test_unwritable_out_path_is_a_config_error(self, tmp_path, capsys):
        # run and period refuse an --out they cannot write: exit 2 with a
        # message that names the path, not a traceback.
        period = ["period", "--model", "euler", "--scheme", "bs", "--h", "0.02", "--steps", "1000",
                  "--stride", "1", "--inertia", "1,2,3", "--init", "1,1,1,1,0,0", "--column", "w1"]
        for head in (_KOW_RUN, period):
            for path in (str(tmp_path), str(tmp_path / "missing" / "x.csv")):
                assert main([*head, "--out", path]) == 2, (head, path)
                err = capsys.readouterr().err
                assert err.startswith("config error: cannot write --out") and path in err, err
            assert main(head) == 0, head

    def test_unwritable_out_path_refused_before_the_run(self, tmp_path, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("stepped before refusing --out")

        monkeypatch.setattr("spintops.cli.run", no_run)
        period = ["period", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001",
                  "--steps", "100", "--column", "g3"]
        (tmp_path / "file").write_text("")
        cases = [("/", "Is a directory"),
                 ("", "No such file or directory"),
                 (str(tmp_path / "missing" / "x.csv"), "No such file or directory"),
                 (str(tmp_path / "file" / "x.csv"), "Not a directory"),
                 (str(tmp_path / "newdir") + os.sep, "Is a directory"),
                 (str(tmp_path / "file") + os.sep, "Is a directory"),
                 (str(tmp_path / "missing" / "x") + os.sep, "No such file or directory"),
                 (str(tmp_path / "file" / "x" / "y.csv"), "Not a directory")]
        for path, reason in cases:
            # The reason is the one open() gives for the path.
            with pytest.raises(OSError) as e:
                open(path, "w")
            assert e.value.strerror == reason, path
            for head in (_KOW_RUN, period):
                assert main([*head, "--out", path]) == 2, (head, path)
                assert capsys.readouterr().err == \
                    f"config error: cannot write --out {path!r}: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_failure_after_the_check_is_a_config_error(self, capsys):
        # /dev/full passes the check before the run, and writing to it fails:
        # exit 2 with the reason, and nothing on stdout.
        assert main([*_KOW_RUN, "--out", "/dev/full"]) == 2
        assert capsys.readouterr() == \
            ("", "config error: cannot write --out '/dev/full': No space left on device\n")

    def test_reverse_and_converge_take_no_sampling_flags(self, tmp_path, capsys):
        # Neither command samples a run: argparse refuses --stride and --out,
        # and --steps of converge, with exit 2, and no file is written.
        # reverse keeps --steps, the same flag as its --n: the last one wins.
        out = str(tmp_path / "x.csv")
        reverse = ["reverse", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001", "--n", "10"]
        converge = ["converge", "--model", "kowalevski", "--scheme", "hybrid", "--h", "0.01",
                    "--h-list", "0.02,0.01,0.005", "--t-end", "1.0"]
        for head, flags in [(reverse, [["--out", out], ["--stride", "2"]]),
                            (converge, [["--out", out], ["--stride", "2"], ["--steps", "3"]])]:
            for flag in flags:
                with pytest.raises(SystemExit) as e:
                    main([*head, *flag])
                err = capsys.readouterr().err
                assert e.value.code == 2, flag
                assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n"), err
        assert not os.path.exists(out)
        # The README's commands still run.
        assert main([*reverse, "--steps", "1000"]) == 0
        assert main(converge) == 0
        capsys.readouterr()

    def test_reverse_steps_and_n_are_one_flag(self, capsys):
        # --n is a second spelling of --steps, whose default is 1000: the
        # last one given sets the count, and the count is what is printed.
        head = ["reverse", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001"]
        for flags, n in [([], 1000), (["--n", "3"], 3), (["--steps", "3"], 3),
                         (["--n", "3", "--steps", "4"], 4), (["--steps", "4", "--n", "3"], 3)]:
            assert main([*head, *flags]) == 0, flags
            assert capsys.readouterr().out.startswith(f"round-trip error after {n} steps"), flags
        with pytest.raises(SystemExit):
            main(["reverse", "--help"])
        assert "--steps STEPS, --n STEPS" in capsys.readouterr().out

    def test_overflowing_hk_system_is_not_called_singular(self, capsys):
        # |s|^2 and ||M||_F^2 overflow at this init, so no singularity cutoff
        # can be formed: the error names the overflow. The symmetric step
        # solves no system; m is parallel to omega here, so it returns, and
        # the run fails on the invariant E, which overflows at step 0.
        for model, scheme in [("kowalevski", "hk"), ("kowalevski", "hybrid"), ("euler", "symmetric")]:
            assert main(["run", "--model", model, "--scheme", scheme, "--h", "0.001",
                         "--steps", "10", "--init=1e200,0,0,1,0,0"]) == 3, scheme
            err = capsys.readouterr().err
            assert err.startswith(f"numerical failure: {model}/{scheme} run: "), err
            assert "overflows" in err and "singular" not in err, err

    def test_invariant_overflow_prints_nothing(self, capsys):
        rc = main(["run", "--model", "euler", "--scheme", "bs", "--h", "0.01", "--steps", "3",
                   "--inertia", "1,2,3", "--init=1e200,0,0,1,0,0"])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err == "numerical failure: euler/bs run: invariant E overflows at step 0\n"

    def test_non_finite_state_named_at_its_step(self, capsys):
        # h = 1e200 takes the state past the float range in step 1: run and
        # reverse stop there and name that step, not the next sample.
        head = ["--model", "kowalevski", "--scheme", "bohlin-a", "--h", "1e200"]
        for argv, where in [(["run", *head, "--steps", "50000", "--stride", "50000"],
                             "step 1 of the run\n"),
                            (["reverse", *head, "--n", "1000"], "step 1 of the round trip\n")]:
            assert main(argv) == 3, argv
            assert capsys.readouterr().err.endswith(f"non-finite state at {where}"), argv

    def test_last_sample_time_past_the_float_range_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        assert main(["run", "--model", "euler", "--scheme", "reference", "--h", "1e308",
                     "--steps", "3", "--stride", "1", "--init", "0,0,0,1,0,0",
                     "--out", str(path)]) == 2
        assert capsys.readouterr() == ("", "config error: steps*h must be finite, not 3*1e+308\n")
        assert not path.exists()

    def test_config_error_exit_code(self, capsys):
        for argv in CONFIG_ERRORS:
            assert main(argv) == 2, argv
            assert "config error" in capsys.readouterr().err, argv

    def test_period_column_of_another_model_refused_before_the_run(self, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("stepped before refusing the column")

        monkeypatch.setattr("spintops.cli.run", no_run)
        assert main(_KOWALEVSKI_COLUMN_PERIOD) == 2
        assert capsys.readouterr().err == \
            "config error: model 'general' has no column 'two_ell'\n"

    def test_period_of_an_exact_column_refused_before_the_run(self, monkeypatch, capsys):
        # A column that the scheme keeps exact holds only roundoff, whose
        # mean-crossings would read as a period.
        def no_run(config):
            raise AssertionError("stepped before refusing the column")

        monkeypatch.setattr("spintops.cli.run", no_run)
        exact = [(m, s, c) for m in MODELS for s, scheme in MODELS[m].schemes.items()
                 for c in scheme.exact]
        assert exact
        for model, scheme, column in exact:
            init = [] if model == "kowalevski" else ["--init", "1,1,1,1,0,0"]
            assert main(["period", "--model", model, "--scheme", scheme, "--h", "0.001",
                         "--steps", "20000", "--stride", "1", "--column", column, *init]) == 2
            assert capsys.readouterr().err == \
                f"config error: {model}/{scheme} keeps {column!r} exact, so it holds only " \
                "roundoff and has no period\n"

    def test_unknown_flag_reported_with_the_command_usage(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["reverse", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001",
                  "--n", "10", "--out", "x.csv"])
        err = capsys.readouterr().err
        assert e.value.code == 2
        assert err.startswith("usage: spintops reverse [-h] --model"), err
        assert err.endswith("\nspintops reverse: error: unrecognized arguments: --out x.csv\n"), err

    def test_empty_init_is_a_config_error(self, capsys):
        # as an empty --inertia is, for a model with a default init too
        for head in (_KOW_RUN, _EULER_RUN):
            for flag in ("--init", "--inertia"):
                assert main([*head, flag, ""]) == 2, (head, flag)
                assert capsys.readouterr().err == \
                    "config error: could not convert string to float: ''\n", (head, flag)

    def test_run_flags_are_the_config_fields(self):
        args = vars(build_parser().parse_args(["run", "--model", "euler", "--scheme", "bs",
                                               "--h", "0.1"]))
        assert set(RunConfig._fields) <= set(args)
        # A parameter flag has no default of its own: RunConfig's applies.
        assert [args[name] for name in ("c0", "inertia", "gravity", "vertical", "init")] == \
            [None] * 5

    def test_flags_not_given_keep_the_config_defaults(self, monkeypatch, capsys):
        configs = []

        def recording_run(config):
            configs.append(config)
            return run(config)

        monkeypatch.setattr("spintops.cli.run", recording_run)
        for argv, want in [(_KOW_RUN, RunConfig("kowalevski", "hk", 0.001, 10, 10)),
                           (["period", "--model", "kowalevski", "--scheme", "bohlin-a", "--h",
                             "0.01", "--steps", "3000", "--stride", "3"],
                            RunConfig("kowalevski", "bohlin-a", 0.01, 3000, 3))]:
            assert main(argv) == 0, argv
            assert configs.pop() == want.validated(), argv
        capsys.readouterr()

    def test_closed_stdout_exits_quietly(self):
        # A reader that has gone away, as `spintops run ... | head -0` leaves
        # it: exit 0 and nothing on stderr, the flush at exit included.
        for argv in (["reverse", "--model", "kowalevski", "--scheme", "hk", "--h", "0.001",
                      "--n", "10"], _KOW_RUN, ["run", "--help"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                out = subprocess.run([sys.executable, "-m", "spintops.cli", *argv],
                                     stdout=write_end, stderr=subprocess.PIPE, text=True,
                                     env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
            finally:
                os.close(write_end)
            assert (out.returncode, out.stderr) == (0, ""), argv

    def test_negative_infinite_c0_is_not_finite(self, capsys):
        # -inf reaches the config check as a value, not argparse as an option.
        assert main([*_KOW_RUN, "--c0", "-inf"]) == 2
        assert capsys.readouterr().err == \
            "config error: parameters and init must be finite, inertia positive\n"

    def test_south_pole_init_runs(self, capsys):
        # bohlin-b steps gamma_3 < -1/2 in its second stereographic chart,
        # where the south pole is the centre.
        assert main(["run", "--model", "kowalevski", "--scheme", "bohlin-b", "--h", "0.01",
                     "--steps", "10", "--init", "0,0,0,0,0,-1"]) == 0
        assert "gamma_sq: initial=1 min=1 max=1 " in capsys.readouterr().out

    def test_numerical_error_exit_code(self, capsys):
        for argv in NUMERICAL_ERRORS:
            assert main(argv) == 3, argv
            err = capsys.readouterr().err
            assert "numerical failure" in err, argv
            model, scheme = argv[argv.index("--model") + 1], argv[argv.index("--scheme") + 1]
            assert f"{model}/{scheme} " in err, (argv, err)
            if argv in REFERENCE_OVERFLOWS:
                assert "step 1" in err, (argv, err)

    def test_overflowing_init_fails_in_the_reference(self, capsys):
        # converge computes its reference first, and the Taylor coefficients
        # of this init overflow there: exit 3, with the reference and the
        # coefficient named, before the state is formed.
        for model in MODELS:
            scheme = next(iter(MODELS[model].schemes))
            assert main(["converge", "--model", model, "--scheme", scheme, "--h", "0.01",
                         "--h-list", "0.02,0.01,0.005", "--t-end", "1.0",
                         "--init", "1e200,1e200,1e200,1,0,0"]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"numerical failure: {model}/{scheme} reference: Taylor "
                                  "coefficient "), err

    @pytest.mark.slow
    @pytest.mark.filterwarnings("error")
    def test_extreme_inputs_exit_cleanly(self, capsys):
        # run, reverse, converge and period for every (model, scheme) pair at
        # extreme step sizes, inits and counts: exit 0, 2 or 3, never a
        # traceback or a warning, and no non-finite number in a report that
        # exits 0.
        inits = [None, "1e200,1e200,1e200,1e200,1e200,1e200",
                 "1e300,1e300,1e300,1e300,1e300,1e300", "-1e300,-1e300,-1e300,-1e300,-1e300,-1e300",
                 "1e-300,1e300,1e-300,1e300,1e-300,1e300"]
        # converge steps 1, 2 and 4 times with h_list, to t_end = h_list[0]
        h_lists = {"1e5": "2e5,1e5,5e4", "0.01": "0.02,0.01,0.005", "1e300": "2e300,1e300,5e299"}
        for model in MODELS:
            for scheme in MODELS[model].schemes:
                for h, h_list in h_lists.items():
                    for init in inits:
                        head = ["--model", model, "--scheme", scheme, "--h", h]
                        tail = ["--init", init] if init else []
                        # counts above sys.maxsize, from one init every model runs
                        huge = [["run", *head, "--steps", _HUGE, *tail],
                                ["run", *head, "--steps", "3", "--stride", _HUGE, *tail],
                                ["reverse", *head, "--n", _HUGE, *tail]] if init == inits[1] else []
                        for argv in (["run", *head, "--steps", "3", *tail],
                                     ["reverse", *head, "--n", "3", *tail],
                                     ["converge", *head, "--h-list", h_list,
                                      "--t-end", h_list.split(",")[0], *tail],
                                     ["period", *head, "--steps", "3", "--stride", "1",
                                      "--column", MODELS[model].columns[-1], *tail], *huge):
                            code = main(argv)
                            out, err = capsys.readouterr()
                            assert code in (0, 2, 3), argv
                            assert "Traceback" not in err, argv
                            if code == 0:
                                assert "nan" not in out and "inf" not in out, (argv, out)

    @pytest.mark.filterwarnings("error")
    def test_converge_ignores_the_invariants(self, capsys):
        # The invariants of this state overflow, but converge compares
        # endpoint states and never computes them: a finite table, exit 0.
        rc = main(["converge", "--model", "euler", "--scheme", "bs", "--h", "0.01",
                   "--h-list", "0.02,0.01,0.005", "--t-end", "0.02", "--inertia", "1,2,3",
                   "--init=1e200,0,0,1,0,0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.splitlines()) == 4 and "nan" not in out and "inf" not in out, out

    def test_reverse_and_converge_run_without_numpy(self, tmp_path):
        # import spintops and spintops.cli load neither numpy nor dataclasses
        # and inspect, and with numpy made unimportable the README run,
        # reverse and converge commands and a one-step run print the values
        # recorded below.
        csv_path = tmp_path / "traj.csv"
        script = """if True:
            import sys
            import spintops
            import spintops.cli
            loaded = {"numpy", "dataclasses", "inspect"} & set(sys.modules)
            assert not loaded, f"import spintops.cli loaded {sorted(loaded)}"
            sys.modules["numpy"] = None
            from spintops.cli import main
            kow = ["--model", "kowalevski", "--h", "0.001"]
            assert main(["run", *kow, "--scheme", "hk", "--steps", "2000", "--stride", "10",
                         "--out", sys.argv[1]]) == 0
            assert main(["run", *kow, "--scheme", "hk", "--steps", "1"]) == 0
            for scheme in ("hk", "bohlin-a"):
                assert main(["reverse", *kow, "--steps", "1000", "--n", "1000",
                             "--scheme", scheme]) == 0
            assert main(["converge", "--model", "kowalevski", "--scheme", "hybrid", "--h", "0.01",
                         "--h-list", "0.02,0.01,0.005", "--t-end", "1.0"]) == 0
        """
        out = spawn(script, str(csv_path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "ran 2000 steps of kowalevski/hk at h=0.001",
            "  gamma_sq: initial=1 min=0.999999999999225 max=1.0000000000001 max|dev|=7.755e-13",
            "  two_ell: initial=3.9999979999995 min=3.99999799999826 max=3.99999799999978 "
            "max|dev|=1.244e-12",
            "  E: initial=4.99999949999988 min=4.99999949999987 max=4.99999950000012 "
            "max|dev|=2.496e-13",
            "  k_sq: initial=9.000003000001 min=9.00000300000099 max=9.00000300000701 "
            "max|dev|=6.015e-12",
            f"wrote {csv_path}",
            "ran 1 steps of kowalevski/hk at h=0.001",
            "  gamma_sq: initial=1 min=1 max=1 max|dev|=0.000e+00",
            "  two_ell: initial=3.9999979999995 min=3.9999979999995 max=3.9999979999995 "
            "max|dev|=0.000e+00",
            "  E: initial=4.99999949999988 min=4.99999949999988 max=4.99999949999988 "
            "max|dev|=0.000e+00",
            "  k_sq: initial=9.000003000001 min=9.000003000001 max=9.000003000001 "
            "max|dev|=0.000e+00",
            "round-trip error after 1000 steps forward + backward: 3.530509e-14",
            "round-trip error after 1000 steps forward + backward: 9.316052e-07",
            "           h   endpoint error  observed order",
            "        0.02     1.940560e-07               -",
            "        0.01     4.852009e-08           2.000",
            "       0.005     1.213040e-08           2.000",
        ]
        # The step, t and state columns, bit for bit as recorded.
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 202
        assert lines[-1].split(",")[:8] == [
            "2000", "2", "1.9999992786176368", "0.0013682984085283713", "-0.0017866431294781995",
            "0.9999989172416629", "0.00046818813491333693", "-0.0013951037942170517"]
        states = "\n".join(",".join(line.split(",")[:8]) for line in lines)
        assert hashlib.sha256(states.encode()).hexdigest() == \
            "b9688a1cdadf25ef55fab9623719a8f3da842a7c8df61b1a1196ff5722f0cd8c"

    def test_period_runs_without_numpy(self):
        # With numpy made unimportable, period reads a state column or an
        # invariant column as floats and prints the periods recorded below:
        # the README command, the Euler symmetric scheme and a Lagrange
        # invariant that the RK4 reference does not keep exact.
        script = """if True:
            import sys
            sys.modules["numpy"] = None
            from spintops.cli import main
            for argv in (
                    ["--model", "kowalevski", "--scheme", "hk", "--h", "0.001", "--steps", "50000",
                     "--stride", "10", "--column", "g3"],
                    ["--model", "euler", "--scheme", "symmetric", "--h", "0.01", "--steps", "5000",
                     "--stride", "1", "--inertia", "1,2,3", "--init", "1,1,1,1,0,0",
                     "--column", "w1"],
                    ["--model", "lagrange", "--scheme", "reference", "--h", "0.01",
                     "--steps", "5000", "--stride", "1", "--p", "0,0,1",
                     "--init", "0.2,-0.1,1,0.7071,0,0.7071", "--column", "E"]):
                assert main(["period", *argv]) == 0
        """
        out = spawn(script)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["estimated period of g3: 28.173",
                                           "estimated period of w1: 6.42275",
                                           "estimated period of E: 5.13339"]

    def test_negative_comma_list_values(self, capsys):
        for argv, energy in NEGATIVE_LIST_VALUES:
            assert main(argv) == 0, argv
            assert energy in capsys.readouterr().out, argv

    def test_negative_exponent_values(self, capsys):
        def output(c0):
            for argv in NEGATIVE_EXPONENT_VALUES:
                assert main([*argv, "--c0", c0]) == 0, (argv, c0)
            return capsys.readouterr().out

        assert output("-1e-3") == output("-0.001") != output("1")
        # --help takes no value: it prints help before a negative number.
        with pytest.raises(SystemExit) as e:
            main([*_KOW_RUN, "--help", "-1e-3"])
        assert e.value.code == 0 and capsys.readouterr().out.startswith("usage: spintops run")

    @pytest.mark.parametrize(
        "model,scheme",
        [(m, s) for m in MODELS for s in MODELS[m].schemes],
        ids=lambda x: x,
    )
    def test_every_registered_scheme_runs(self, model, scheme, tmp_path, csv_without_numpy):
        # The CSV of a two-step run, which one numpy-free interpreter writes
        # to the same bytes.
        out = tmp_path / "traj.csv"
        rc = main(two_step_run(model, scheme, out))
        assert rc == 0
        lines = out.read_text().splitlines()
        m = MODELS[model]
        assert lines[0] == ",".join(("step", "t") + m.columns + m.invariant_names)
        assert len(lines) == 4
        assert out.read_bytes() == (csv_without_numpy / f"{model}-{scheme}.csv").read_bytes()

    def test_lagrange_run(self, capsys):
        rc = main(["run", "--model", "lagrange", "--scheme", "bs",
                   "--h", "0.01", "--steps", "100", "--stride", "10",
                   "--p", "0,0,1", "--init", "0.2,-0.1,1,0.7071,0,0.7071"])
        assert rc == 0
        assert "m_dot_p" in capsys.readouterr().out
