import numpy as np
import pytest

from spintops.algebra import vec3
from spintops.harness import RunConfig
from spintops.models import (
    KOWALEVSKI_INERTIA,
    euler_poisson_rhs,
    invariants,
    kowalevski_invariants,
    matrix_form_residual,
    xi,
)

# The reduced-top test point used throughout (w1=2, gamma_3=0.001).
KOW_INIT = np.array([2, 0, 0, 0.9999995, 0, 0.001])
C0 = 1.0
KOW_TOP = (KOWALEVSKI_INERTIA, (C0, 0.0, 0.0))  # (inertia, g) of the reduced top


def componentwise_rhs(y, inertia, g):
    """Independent oracle: the six scalar equations written out directly."""
    w1, w2, w3, g1, g2, g3 = y
    A, B, C = inertia
    x0, y0, z0 = g  # gravity vector already carries the mg factor
    dw1 = ((B - C) * w2 * w3 + (g2 * z0 - g3 * y0)) / A
    dw2 = ((C - A) * w3 * w1 + (g3 * x0 - g1 * z0)) / B
    dw3 = ((A - B) * w1 * w2 + (g1 * y0 - g2 * x0)) / C
    dg1 = g2 * w3 - g3 * w2
    dg2 = g3 * w1 - g1 * w3
    dg3 = g1 * w2 - g2 * w1
    return np.array([dw1, dw2, dw3, dg1, dg2, dg3])


def rk4(y, inertia, g, h):
    k1 = euler_poisson_rhs(y, inertia, g)
    k2 = euler_poisson_rhs(y + 0.5 * h * k1, inertia, g)
    k3 = euler_poisson_rhs(y + 0.5 * h * k2, inertia, g)
    k4 = euler_poisson_rhs(y + h * k3, inertia, g)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


class TestRhs:
    def test_principal_axis_rotation_is_steady(self):
        y = np.array([0, 0, 3.0, 0, 0, 1])
        dw = euler_poisson_rhs(y, (1.0, 2.5, 0.7), (0.0, 0.0, 0.0))[:3]
        assert np.array_equal(dw, np.zeros(3))

    def test_kowalevski_point(self):
        dy = euler_poisson_rhs(KOW_INIT, *KOW_TOP)
        assert np.allclose(dy[:3], vec3(0, 0.0005, 0), atol=1e-18)
        assert np.allclose(dy[3:], vec3(0, 0.002, 0), atol=1e-18)

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
        gamma_sq, _, energy = invariants(KOW_INIT, *KOW_TOP)
        assert abs(gamma_sq - 1.0) <= 1e-12
        assert abs(energy - 4.9999995) <= 1e-15
        two_ell, kow_energy, k_sq = kowalevski_invariants(KOW_INIT, C0)
        assert abs(two_ell - 3.999998) <= 1e-15
        assert abs(kow_energy - energy) <= 1e-15
        assert abs(k_sq - 9.00000300000025) <= 1e-12

    def test_generic_params_carry_no_kowalevski_entries(self):
        # Three entries for any parameters, Kowalevski-shaped ones included:
        # the Kowalevski pair is the harness's to add, by model.
        for inertia, g in (((1.0, 2.0, 3.0), vec3(1, 0, 0)), KOW_TOP):
            assert len(invariants(KOW_INIT, inertia, g)) == 3

    def test_conserved_along_flow(self, rng):
        # finite difference along a high-order reference step
        delta = 1e-3
        for _ in range(10):
            y = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
            inertia, g = rng.uniform(0.5, 2.0, 3), rng.uniform(-1, 1, 3)
            plus = invariants(rk4(y, inertia, g, delta), inertia, g)
            minus = invariants(rk4(y, inertia, g, -delta), inertia, g)
            for name, a, b in zip(("gamma_sq", "m_dot_gamma", "energy"), plus, minus):
                assert abs((a - b) / (2 * delta)) <= 1e-12, name

    def test_positive_inertia_required(self):
        with pytest.raises(ValueError):
            RunConfig(model="euler", scheme="hk", h=0.01, steps=1, init=KOW_INIT,
                      inertia=(1.0, -2.0, 3.0)).validated()


class TestKowalevskiInvariants:
    def test_two_ell_at_test_point(self):
        two_ell, _, _ = kowalevski_invariants(KOW_INIT, C0)
        assert abs(two_ell - 3.999998) <= 1e-15

    def test_k_sq_at_test_point(self):
        _, _, k_sq = kowalevski_invariants(KOW_INIT, C0)
        assert abs(k_sq - 9.00000300000025) <= 1e-12

    def test_rest_on_x_axis(self):
        y = np.array([0, 0, 0, 1, 0, 0.0])
        two_ell, energy, k_sq = kowalevski_invariants(y, C0)
        assert (two_ell, energy, k_sq) == (0.0, 1.0, 1.0)


class TestXi:
    def test_test_point(self):
        assert xi(KOW_INIT, C0) == pytest.approx(3.0000005 + 0j, abs=1e-15)

    def test_pure_imaginary_omega(self):
        y = np.array([0, 1, 0, 0, 0, 0.0])
        assert xi(y, C0) == -1 + 0j

    def test_abs_squared_equals_k_sq(self, rng):
        for _ in range(50):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            _, _, k_sq = kowalevski_invariants(y, C0)
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
