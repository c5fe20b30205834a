import math
from fractions import Fraction

import numpy as np
import pytest

from spintops.euler_lagrange import (bs_stepper, lagrange_invariants, lagrange_stepper,
                                     symmetric_stepper)
from spintops.harness import RunConfig
from spintops.hk import hk_omega_stage, hk_stepper
from spintops.kowalevski import (bohlin_stage, bohlin_stepper, gamma_step_bs, gamma_step_rotation,
                                 gamma_step_stereo, hybrid_stepper)
from spintops.models import (
    KOWALEVSKI_INERTIA,
    euler_poisson_rhs,
    invariants,
    kowalevski_invariants,
    xi,
)

from conftest import componentwise_rhs, matrix_form_residual, vec3, vector_rk4

# The reduced-top test point used throughout (w1=2, gamma_3=0.001).
KOW_INIT = np.array([2, 0, 0, 0.9999995, 0, 0.001])
C0 = 1.0
KOW_TOP = (KOWALEVSKI_INERTIA, (C0, 0.0, 0.0))  # (inertia, g) of the reduced top


class TestRhs:
    def test_principal_axis_rotation_is_steady(self):
        y = np.array([0, 0, 3.0, 0, 0, 1])
        dw = euler_poisson_rhs(y, (1.0, 2.5, 0.7), (0.0, 0.0, 0.0))[:3]
        assert np.array_equal(dw, np.zeros(3))

    def test_kowalevski_point(self):
        dy = euler_poisson_rhs(KOW_INIT, *KOW_TOP)
        assert np.allclose(dy[:3], vec3(0, 0.0005, 0), atol=1e-18)
        assert np.allclose(dy[3:], vec3(0, 0.002, 0), atol=1e-18)

    def test_returns_a_tuple_of_six_floats(self):
        # from a tuple and from a read-only array, with the same values
        y = KOW_INIT.astype(float)
        y.setflags(write=False)
        out = euler_poisson_rhs(tuple(y.tolist()), *KOW_TOP)
        assert type(out) is tuple and len(out) == 6
        assert all(type(v) is float for v in out)
        dy = euler_poisson_rhs(y, *KOW_TOP)
        assert type(dy) is tuple and len(dy) == 6
        assert all(isinstance(v, float) for v in dy)
        assert dy == out

    def test_matches_componentwise_oracle(self, rng):
        for _ in range(100):
            y = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
            inertia, g = rng.uniform(0.5, 2.0, 3), rng.uniform(-1, 1, 3)
            dy = euler_poisson_rhs(y, inertia, g)
            oy = componentwise_rhs(y, inertia, g)
            assert np.max(np.abs(dy[:3] - oy[:3])) <= 1e-15
            assert np.max(np.abs(dy[3:] - oy[3:])) <= 1e-15

    def test_gamma_tangency(self, rng):
        for _ in range(50):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
            dg = euler_poisson_rhs(y, inertia, g)[3:]
            assert abs(y[3:] @ dg) <= 1e-14


class TestInvariants:
    def test_rest_state(self):
        assert invariants(np.array([0, 0, 0, 0, 0, 1.0]), (1.0, 2.0, 3.0),
                          (0.0, 0.0, 0.0)) == (1.0, 0.0, 0.0)

    def test_kowalevski_point_values(self):
        gamma_sq, two_ell, energy, k_sq = kowalevski_invariants(KOW_INIT, C0)
        assert abs(gamma_sq - 1.0) <= 1e-12
        assert abs(energy - 4.9999995) <= 1e-15
        assert abs(two_ell - 3.999998) <= 1e-15
        assert abs(k_sq - 9.00000300000025) <= 1e-12
        # The general (gamma^2, E) of the reduced top agree.
        general_gamma_sq, _, general_energy = invariants(KOW_INIT, *KOW_TOP)
        assert general_gamma_sq == gamma_sq
        assert abs(general_energy - energy) <= 1e-15

    def test_generic_params_carry_no_kowalevski_entries(self):
        # Three entries for any parameters, Kowalevski-shaped ones included:
        # the Kowalevski model's columns come from kowalevski_invariants.
        for inertia, g in (((1.0, 2.0, 3.0), vec3(1, 0, 0)), KOW_TOP):
            assert len(invariants(KOW_INIT, inertia, g)) == 3

    def test_conserved_along_flow(self, rng):
        # finite difference along a high-order reference step
        delta = 1e-3
        for _ in range(10):
            y = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
            inertia, g = rng.uniform(0.5, 2.0, 3), rng.uniform(-1, 1, 3)
            rhs = lambda z: np.array(euler_poisson_rhs(z, inertia, g))
            plus = invariants(vector_rk4(rhs, y, delta), inertia, g)
            minus = invariants(vector_rk4(rhs, y, -delta), inertia, g)
            for name, a, b in zip(("gamma_sq", "m_dot_gamma", "energy"), plus, minus):
                assert abs((a - b) / (2 * delta)) <= 1e-12, name

    def test_positive_inertia_required(self):
        with pytest.raises(ValueError):
            RunConfig(model="euler", scheme="hk", h=0.01, steps=1, init=KOW_INIT,
                      inertia=(1.0, -2.0, 3.0)).validated()


class TestKowalevskiInvariants:
    def test_two_ell_at_test_point(self):
        _, two_ell, _, _ = kowalevski_invariants(KOW_INIT, C0)
        assert abs(two_ell - 3.999998) <= 1e-15

    def test_k_sq_at_test_point(self):
        _, _, _, k_sq = kowalevski_invariants(KOW_INIT, C0)
        assert abs(k_sq - 9.00000300000025) <= 1e-12

    def test_k_sq_past_the_float_range(self):
        # |xi| = 1.5e308 * sqrt(2) is past the float range: k^2 is inf.
        y = (0.0, 0.0, 0.0, -1.5e308, -1.5e308, 0.0)
        assert kowalevski_invariants(y, 1.0)[3] == math.inf

    def test_first_entries_are_the_general_invariants(self, rng):
        # (gamma^2, 2 ell, E) equal invariants() of the reduced top as
        # floats, at omega_3 != 0 too.
        for _ in range(500):
            g = rng.normal(size=3)
            y = (*rng.normal(size=3).tolist(), *(g / np.linalg.norm(g)).tolist())
            c0 = float(rng.uniform(0.5, 2.0))
            assert kowalevski_invariants(y, c0)[:3] == \
                invariants(y, KOWALEVSKI_INERTIA, (c0, 0.0, 0.0)), (y, c0)

    def test_rest_on_x_axis(self):
        y = np.array([0, 0, 0, 1, 0, 0.0])
        assert kowalevski_invariants(y, C0) == (1.0, 0.0, 1.0, 1.0)

    def test_k_sq_within_two_roundings_of_exact(self, rng):
        # k^2 = Re^2 + Im^2 of xi rounds three times, so it lies within
        # (1 + u)^2 - 1 = 2u + u^2 of the exact sum, with u = 2^-53.
        u = Fraction(1, 2**53)
        for y in rng.normal(size=(2000, 6)).tolist():
            z = xi(y, C0)
            exact = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
            k_sq = kowalevski_invariants(y, C0)[3]
            assert abs(Fraction(k_sq) - exact) <= (2 * u + u * u) * exact, y


class TestXi:
    def test_test_point(self):
        assert xi(KOW_INIT, C0) == pytest.approx(3.0000005 + 0j, abs=1e-15)

    def test_pure_imaginary_omega(self):
        y = np.array([0, 1, 0, 0, 0, 0.0])
        assert xi(y, C0) == -1 + 0j

    def test_abs_squared_equals_k_sq(self, rng):
        for _ in range(50):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            _, _, _, k_sq = kowalevski_invariants(y, C0)
            assert abs(abs(xi(y, C0)) ** 2 - k_sq) <= 1e-15 * max(1.0, k_sq)

    def test_chain_rule_phase_evolution(self, rng):
        # d(xi)/dt along the flow equals -i * w3 * xi
        for _ in range(50):
            y = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
            dy = euler_poisson_rhs(y, *KOW_TOP)
            w_c = complex(y[0], y[1])
            dxi = 2 * w_c * complex(dy[0], dy[1]) - C0 * complex(dy[3], dy[4])
            assert abs(dxi - (-1j * y[2] * xi(y, C0))) <= 1e-13


class TestMatrixFormResidual:
    def test_zero_state(self):
        assert matrix_form_residual(np.zeros(6), (1.0, 2.0, 3.0), (0.0, 0.0, 0.0)) == 0.0

    def test_kowalevski_point(self):
        assert matrix_form_residual(KOW_INIT, *KOW_TOP) <= 1e-13

    def test_random_states(self, rng):
        for _ in range(100):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
            assert matrix_form_residual(y, inertia, g) <= 1e-13


_Y = (0.3, -0.2, 0.9, 0.6, 0.0, 0.8)
_INERTIA, _G, _P, _H = (1.0, 2.0, 3.0), (0.5, 0.0, 1.0), (0.0, 0.0, 1.0), 0.01
# Every public function of a state, called on a state y: each step and the
# omega' stage as its factory returns it, keyed by the name of the step.
_OF_STATE = {
    "hk_step": hk_stepper(_INERTIA, _G, _H),
    "hk_omega": lambda y: hk_omega_stage(_INERTIA, _G, _H)(y)[:3],
    "bs_step_euler": bs_stepper(_INERTIA, _H),
    "symmetric_step_euler": symmetric_stepper(_INERTIA, _H),
    "lagrange_step": lagrange_stepper(_P, _H),
    **{f"bohlin_algorithm_step-{g.__name__}": bohlin_stepper(C0, _H, g)
       for g in (gamma_step_bs, gamma_step_stereo, gamma_step_rotation)},
    "hybrid_step": hybrid_stepper(C0, _H),
    "bohlin_step": lambda y: bohlin_stage(C0, _H)(y, (0.6, 0.1, 0.79), 0.85),
    "euler_poisson_rhs": lambda y: euler_poisson_rhs(y, _INERTIA, _G),
    "invariants": lambda y: invariants(y, _INERTIA, _G),
    "kowalevski_invariants": lambda y: kowalevski_invariants(y, C0),
    "lagrange_invariants": lambda y: lagrange_invariants(y, _P, _H),
    "xi": lambda y: xi(y, C0),
}


@pytest.mark.parametrize("name", _OF_STATE)
def test_state_as_tuple_or_numpy_vector(name):
    # The state may be any sequence of six floats, with the same values.
    call = _OF_STATE[name]
    assert np.array_equal(np.asarray(call(_Y)), np.asarray(call(np.array(_Y))))
