import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spintops
from spintops.algebra import NumericalError, bs_solve
from spintops.cli import main
from spintops.euler_lagrange import FIXED_POINT_TOL, MAX_FIXED_POINT_ITERATIONS
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
from spintops.hk import hk_step
from spintops.models import KOWALEVSKI_INERTIA, invariants, kowalevski_invariants

from conftest import vector_body_rhs, vector_lagrange_rhs, vector_rk4


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
    ])
    def test_field_of_the_wrong_type(self, field, value):
        cfg = RunConfig(model="euler", scheme="bs", h=0.01, steps=3, init=(1, 1, 1, 1, 0, 0))
        with pytest.raises(ConfigError):
            run(replace(cfg, **{field: value}))

    def test_round_trip_and_study_arguments_of_the_wrong_type(self):
        cfg = RunConfig(model="euler", scheme="bs", h=0.01, steps=3, init=(1, 1, 1, 1, 0, 0))
        for n in (2.5, "3", True, -1, 10**20):
            with pytest.raises(ConfigError):
                reversal_test(cfg, n)
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
    "steps": [0, 3, np.int64(2), -1, 2.5, 3.0, "3", True, None, math.nan],
    "stride": [2, np.int64(1), 0, 1.5, math.nan, True, "1", -2],
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
            for call in (lambda: run(cfg), lambda: reversal_test(cfg, n),
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
        traj = run(kow_cfg(steps=100, stride=7))
        assert len(traj.steps) == 100 // 7 + 1

    def test_time_column(self):
        traj = run(kow_cfg(steps=20, stride=5))
        assert np.allclose(traj.t, traj.steps * 0.001, atol=1e-18)

    def test_invariant_columns_self_consistent(self):
        traj = run(kow_cfg(steps=50))
        for i in range(len(traj.steps)):
            y = traj.states[i]
            gamma_sq, _, energy = invariants(y, KOWALEVSKI_INERTIA, (1.0, 0.0, 0.0))
            two_ell, _, k_sq = kowalevski_invariants(y, 1.0)
            row = traj.invariant_values[i]
            assert abs(row[0] - gamma_sq) <= 1e-15
            assert abs(row[1] - two_ell) <= 1e-15
            assert abs(row[2] - energy) <= 1e-15
            assert abs(row[3] - k_sq) <= 1e-15

    def test_determinism_identical_csv_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(kow_cfg(steps=200, stride=10, out_path=str(p1)))
        run(kow_cfg(steps=200, stride=10, out_path=str(p2)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_body_csv_header_and_blank_kowalevski_columns(self, tmp_path):
        # (2, 2, 1) has the Kowalevski proportions; the columns stay blank
        # because only the kowalevski model fills them.
        for inertia in [(1, 2, 3), (2, 2, 1)]:
            path = tmp_path / "euler.csv"
            cfg = RunConfig(model="euler", scheme="hk", h=0.01, steps=2, stride=1,
                            inertia=inertia, init=np.array([1, 1, 1, 1, 0, 0.0]),
                            out_path=str(path))
            run(cfg)
            lines = path.read_text().splitlines()
            assert lines[0] == "step,t,w1,w2,w3,g1,g2,g3,gamma_sq,two_ell,E,k_sq"
            fields = lines[1].split(",")
            assert fields[9] == "" and fields[11] == "", inertia  # two_ell, k_sq blank
            assert fields[8] != "" and fields[10] != "", inertia

    def test_lagrange_csv_header(self, tmp_path):
        path = tmp_path / "lag.csv"
        cfg = RunConfig(model="lagrange", scheme="bs", h=0.01, steps=2, stride=1,
                        init=np.array([0, 0, 1, 1, 0, 0.0]), out_path=str(path))
        run(cfg)
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
        step = make_stepper(cfg)
        out = step(cfg.init, cfg.h)
        assert len(out) == 6
        assert all(isinstance(v, float) and math.isfinite(v) for v in out)
        y = np.array(cfg.init)
        y.setflags(write=False)
        assert np.array_equal(step(y, cfg.h), out)
        assert np.array_equal(y, cfg.init)

    @pytest.mark.parametrize("scheme", ["bs", "symmetric"])
    def test_free_top_steppers_match_the_momentum_form(self, scheme, rng):
        # The free-top steppers advance the packed (omega, gamma): gamma comes
        # back bit for bit, and omega' bit for bit as the momentum-form step
        # m -> m' written out below, with m = I omega and omega' = m' / I.
        def momentum_step(m, inertia, h):
            w = m / inertia
            if scheme == "bs":
                return np.array(bs_solve(m.tolist(), w.tolist(), 0.5 * h))
            n = inertia * np.array(hk_step((*w, 0.0, 0.0, 0.0), inertia, (0.0, 0.0, 0.0), h)[:3])
            scale, c = max(1.0, *np.abs(m)), 0.25 * h
            for _ in range(MAX_FIXED_POINT_ITERATIONS):
                x = np.array(bs_solve(m.tolist(), (w + n / inertia).tolist(), c))
                stalled = np.max(np.abs(x - n)) <= 1e-16 * scale
                n = x
                residual = n - m - c * np.cross(n + m, w + n / inertia)
                if stalled and np.max(np.abs(residual)) <= FIXED_POINT_TOL * scale:
                    return n
            raise AssertionError("momentum-form step did not converge")

        for _ in range(200):
            inertia = rng.uniform(0.5, 3.0, 3)
            cfg = RunConfig(model="euler", scheme=scheme, h=0.01, steps=1,
                            inertia=tuple(inertia.tolist()), init=np.zeros(6))
            y, h = rng.normal(size=6), rng.uniform(-0.05, 0.05)
            out = make_stepper(cfg)(tuple(y.tolist()), h)
            assert out[3:] == tuple(y[3:].tolist())
            assert np.array_equal(out[:3], momentum_step(inertia * y[:3], inertia, h) / inertia)


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
            step, y, expected = make_stepper(cfg), cfg.init, np.array(cfg.init)
            for _ in range(50):
                y, expected = step(y, h), vector_rk4(lambda v: rhs(v, *params), expected, h)
            assert type(y) is tuple
            assert np.array_equal(y, expected), (cfg, h)


class TestReversalTest:
    def test_zero_rounds(self):
        assert reversal_test(kow_cfg(), 0) == 0.0

    def test_hk_round_trip_small(self):
        assert reversal_test(kow_cfg(), 100) <= 1e-10

    def test_bs_based_far_less_reversible_than_hk(self):
        cfg_hk = kow_cfg(steps=1000)
        cfg_a = kow_cfg(steps=1000, scheme="bohlin-a")
        e_hk = reversal_test(cfg_hk, 1000)
        e_a = reversal_test(cfg_a, 1000)
        assert e_a >= 1e3 * max(e_hk, 1e-16)

    def test_hybrid_round_trip_from_default_point(self):
        # omega_2 = 0 at the default point; measured 7.0e-14
        assert reversal_test(kow_cfg(scheme="hybrid", steps=1000), 1000) <= 1e-12


class TestDriftReport:
    def test_constant_series(self):
        traj = run(kow_cfg(steps=0))
        rep = drift_report(traj)
        for d in rep.per_invariant.values():
            assert d.max_abs_deviation == 0.0
            assert d.min <= d.initial <= d.max

    def test_extrema_ordering(self):
        rep = drift_report(run(kow_cfg(steps=500)))
        for d in rep.per_invariant.values():
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


class TestConvergenceStudy:
    def test_needs_three_step_sizes(self):
        with pytest.raises(ConfigError):
            convergence_study(kow_cfg(), [0.01, 0.005], 1.0)

    def test_needs_integral_step_counts(self):
        with pytest.raises(ConfigError):
            convergence_study(kow_cfg(), [0.02, 0.01, 0.003], 1.0)

    def test_hk_second_order(self):
        rows = convergence_study(kow_cfg(), [0.02, 0.01, 0.005], 1.0)
        assert rows[0][2] is None
        for _, _, order in rows[1:]:
            assert order == pytest.approx(2.0, abs=0.25)

    def test_t_end_shorter_than_reference_step(self):
        # zero reference steps would otherwise fail as "stride must be >= 1"
        with pytest.raises(ConfigError, match=r"t_end.*min\(h\)/20"):
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

# Each input exits 2 with a message, never with a traceback or a NaN run.
CONFIG_ERRORS = [
    ["run", "--model", "euler", "--scheme", "hybrid", "--h", "0.001", "--steps", "10"],
    ["run", "--model", "kowalevski", "--scheme", "hk", "--h", "inf", "--steps", "10"],
    [*_KOW_RUN, "--c0", "nan"],
    [*_KOW_RUN, "--init", "nan,0,0,1,0,0"],
    [*_EULER_RUN, "--init", "1,1,1,1,0,0", "--inertia", "0,1,1"],
    ["run", "--model", "general", "--scheme", "hk", "--h", "0.01", "--steps", "2",
     "--init", "1,1,1,1,0,0", "--gravity", "nan,0,0"],
    [*_KOW_CONVERGE, "--h-list", "0,0.01,0.005"],
    [*_KOW_CONVERGE, "--h-list", "a,b,c"],
    [*_KOW_CONVERGE, "--h-list", "0.02,0.02,0.01"],
    ["reverse", "--model", "kowalevski", "--scheme", "hk", "--h", "0.01", "--n", str(10**20)],
    ["converge", "--model", "kowalevski", "--scheme", "hk", "--h", "0.01",
     "--h-list", "0.02,0.01,0.005", "--t-end", "inf"],
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
    ["run", "--model", "kowalevski", "--scheme", "hk", "--h", "1e9", "--steps", "5"],
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


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["run", "--model", "kowalevski", "--scheme", "hk",
                   "--h", "0.001", "--steps", "100", "--stride", "10",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "k_sq" in capsys.readouterr().out

    def test_non_finite_state_named_at_its_step(self, capsys):
        # h = 1e200 takes the state past the float range in step 1: run and
        # reverse stop there and name that step, not the next sample.
        head = ["--model", "kowalevski", "--scheme", "bohlin-a", "--h", "1e200"]
        for argv, where in [(["run", *head, "--steps", "50000", "--stride", "50000"], "step 1\n"),
                            (["reverse", *head, "--n", "1000"], "step 1 of the round trip\n")]:
            assert main(argv) == 3, argv
            assert capsys.readouterr().err.endswith(f"non-finite state at {where}"), argv

    def test_config_error_exit_code(self, capsys):
        for argv in CONFIG_ERRORS:
            assert main(argv) == 2, argv
            assert "config error" in capsys.readouterr().err, argv

    def test_numerical_error_exit_code(self, capsys):
        for argv in NUMERICAL_ERRORS:
            assert main(argv) == 3, argv
            err = capsys.readouterr().err
            assert "numerical failure" in err, argv
            model, scheme = argv[argv.index("--model") + 1], argv[argv.index("--scheme") + 1]
            assert f"{model}/{scheme} " in err, (argv, err)
            if argv in REFERENCE_OVERFLOWS:
                assert "step 1" in err, (argv, err)

    @pytest.mark.slow
    @pytest.mark.filterwarnings("error")
    def test_extreme_inputs_exit_cleanly(self, capsys):
        # run, reverse and converge for every (model, scheme) pair at extreme
        # step sizes and inits: exit 0, 2 or 3, never a traceback or a
        # warning, and no non-finite number in a report that exits 0.
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
                        for argv in (["run", *head, "--steps", "3", *tail],
                                     ["reverse", *head, "--n", "3", *tail],
                                     ["converge", *head, "--h-list", h_list,
                                      "--t-end", h_list.split(",")[0], *tail]):
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

    def test_reverse_and_converge_run_without_numpy(self):
        # import spintops loads no numpy, and with numpy made unimportable the
        # README reverse and converge commands print the README values.
        script = """if True:
            import sys
            import spintops
            assert "numpy" not in sys.modules, "import spintops loaded numpy"
            sys.modules["numpy"] = None
            from spintops.cli import main
            kow = ["--model", "kowalevski", "--h", "0.001", "--steps", "1000", "--n", "1000"]
            for scheme in ("hk", "bohlin-a"):
                assert main(["reverse", *kow, "--scheme", scheme]) == 0
            assert main(["converge", "--model", "kowalevski", "--scheme", "hybrid", "--h", "0.01",
                         "--h-list", "0.02,0.01,0.005", "--t-end", "1.0"]) == 0
        """
        src = str(Path(spintops.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "round-trip error after 1000 steps forward + backward: 3.530509e-14",
            "round-trip error after 1000 steps forward + backward: 9.316052e-07",
            "           h   endpoint error  observed order",
            "        0.02     1.940560e-07               -",
            "        0.01     4.852009e-08           2.000",
            "       0.005     1.213040e-08           2.000",
        ]

    def test_negative_comma_list_values(self, capsys):
        for argv, energy in NEGATIVE_LIST_VALUES:
            assert main(argv) == 0, argv
            assert energy in capsys.readouterr().out, argv

    @pytest.mark.parametrize(
        "model,scheme",
        [(m, s) for m in MODELS for s in MODELS[m].schemes],
        ids=lambda x: x,
    )
    def test_every_registered_scheme_runs(self, model, scheme, tmp_path):
        out = tmp_path / "traj.csv"
        init = [] if model == "kowalevski" else ["--init", "0.3,-0.2,0.9,0.6,0,0.8"]
        rc = main(["run", "--model", model, "--scheme", scheme, "--h", "0.01",
                   "--steps", "2", "--stride", "1", "--out", str(out), *init])
        assert rc == 0
        lines = out.read_text().splitlines()
        m = MODELS[model]
        assert lines[0] == ",".join(("step", "t") + m.columns + m.invariant_names)
        assert len(lines) == 4

    def test_reverse_command(self, capsys):
        rc = main(["reverse", "--model", "kowalevski", "--scheme", "hk",
                   "--h", "0.001", "--steps", "10", "--n", "50"])
        assert rc == 0
        assert "round-trip" in capsys.readouterr().out

    def test_converge_command(self, capsys):
        rc = main(["converge", "--model", "kowalevski", "--scheme", "hk",
                   "--h", "0.01", "--h-list", "0.02,0.01,0.005", "--t-end", "0.5"])
        assert rc == 0
        assert "observed order" in capsys.readouterr().out

    @pytest.mark.slow
    def test_period_command(self, capsys):
        rc = main(["period", "--model", "kowalevski", "--scheme", "hk",
                   "--h", "0.001", "--steps", "50000", "--stride", "50",
                   "--column", "g3"])
        assert rc == 0
        assert "estimated period" in capsys.readouterr().out

    def test_lagrange_run(self, capsys):
        rc = main(["run", "--model", "lagrange", "--scheme", "bs",
                   "--h", "0.01", "--steps", "100", "--stride", "10",
                   "--p", "0,0,1", "--init", "0.2,-0.1,1,0.7071,0,0.7071"])
        assert rc == 0
        assert "m_dot_p" in capsys.readouterr().out
