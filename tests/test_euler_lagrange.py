import numpy as np
import pytest

from spintops.algebra import cross, skew_apply_matrix, vec3
from spintops.euler_lagrange import (
    ConvergenceError,
    LagrangeParams,
    LagrangeState,
    bs_step_euler,
    lagrange_invariants,
    lagrange_step,
    symmetric_step_euler,
)
from spintops.models import TopParams

from conftest import cramer_solve3

P123 = TopParams(1.0, 2.0, 3.0)


def bs_oracle(m, omega, h):
    """Cramer-rule solve of m' - (h/2) m' x omega = m + (h/2) m x omega."""
    lhs = np.eye(3) + 0.5 * h * skew_apply_matrix(omega)
    return cramer_solve3(lhs, m + 0.5 * h * cross(m, omega))


class TestBsStepEuler:
    def test_zero_step(self):
        m = vec3(1, -2, 0.5)
        assert np.allclose(bs_step_euler(m, P123, 0.0), m, atol=1e-16)

    def test_spherical_top_fixed(self):
        p = TopParams(2.0, 2.0, 2.0)
        m = vec3(0.3, 1.1, -0.7)
        assert np.allclose(bs_step_euler(m, p, 0.1), m, atol=1e-14)

    def test_norm_conserved_and_value(self):
        m = vec3(1, 1, 1)
        h = 0.1
        mn = bs_step_euler(m, P123, h)
        assert abs(mn @ mn - 3.0) <= 1e-13
        assert np.max(np.abs(mn - bs_oracle(m, m / P123.inertia, h))) <= 1e-13

    def test_norm_conserved_long_run(self):
        m = vec3(1, 1, 1)
        for _ in range(2000):
            m = bs_step_euler(m, P123, 0.05)
        assert abs(m @ m - 3.0) <= 1e-12

    def test_breaks_time_reversal(self):
        # the documented asymmetry: round trip error far above roundoff
        m = vec3(1, 1, 1)
        h = 0.05
        back = bs_step_euler(bs_step_euler(m, P123, h), P123, -h)
        assert np.max(np.abs(back - m)) >= 1e-8


class TestSymmetricStepEuler:
    def test_zero_step(self):
        m = vec3(0.5, -0.25, 2.0)
        assert np.allclose(symmetric_step_euler(m, P123, 0.0), m, atol=1e-16)

    def test_spherical_top_fixed(self):
        p = TopParams(1.5, 1.5, 1.5)
        m = vec3(1, 2, 3)
        assert np.allclose(symmetric_step_euler(m, p, 0.05), m, atol=1e-13)

    def test_both_invariants_conserved(self):
        m = vec3(1, 1, 1)
        mn = symmetric_step_euler(m, P123, 0.05, tol=1e-13)
        w, wn = m / P123.inertia, mn / P123.inertia
        assert abs(mn @ mn - m @ m) <= 1e-12
        assert abs(mn @ wn - m @ w) <= 1e-12

    def test_defining_relation(self):
        m = vec3(0.7, -1.1, 0.4)
        h = 0.05
        mn = symmetric_step_euler(m, P123, h, tol=1e-13)
        # relation uses omega at both levels
        res = mn - m - 0.25 * h * cross(mn + m, mn / P123.inertia + m / P123.inertia)
        assert np.max(np.abs(res)) <= 1e-13 * max(1.0, np.max(np.abs(m)))

    def test_reversible(self):
        m = vec3(1, 1, 1)
        h = 0.05
        back = symmetric_step_euler(symmetric_step_euler(m, P123, h), P123, -h)
        assert np.max(np.abs(back - m)) <= 1e-12

    def test_long_run_invariants(self):
        m = vec3(1, 1, 1)
        m0sq = float(m @ m)
        mw0 = float(m @ (m / P123.inertia))
        for _ in range(1000):
            m = symmetric_step_euler(m, P123, 0.01)
        assert abs(m @ m - m0sq) <= 1e-11
        assert abs(m @ (m / P123.inertia) - mw0) <= 1e-11

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            symmetric_step_euler(vec3(1, 1, 1), P123, 0.05, tol=0.0)

    def test_non_convergence(self):
        # unreachable tolerance
        with pytest.raises(ConvergenceError):
            symmetric_step_euler(vec3(4, 4, 4), P123, 20.0, tol=1e-30)


class TestLagrangeStep:
    LP = LagrangeParams(vec3(0, 0, 1))

    def tilted(self):
        a = vec3(1, 0, 1) / np.sqrt(2)
        return LagrangeState(vec3(0.2, -0.1, 1.0), a)

    def test_sleeping_top_is_fixed(self):
        s = LagrangeState(vec3(0, 0, 2.5), vec3(0, 0, 1))
        out = lagrange_step(s, self.LP, 0.3)
        assert np.array_equal(out.m, s.m)
        assert np.allclose(out.a, s.a, atol=1e-15)

    def test_zero_step(self):
        s = self.tilted()
        out = lagrange_step(s, self.LP, 0.0)
        assert np.allclose(out.packed(), s.packed(), atol=1e-16)

    def test_matches_elimination_oracle(self):
        s = LagrangeState(vec3(0, 0, 1), vec3(1, 0, 0))
        h = 0.01
        out = lagrange_step(s, self.LP, h)
        m_next = s.m + h * cross(self.LP.p, s.a)
        lhs = np.eye(3) - 0.5 * h * skew_apply_matrix(m_next)
        a_next = cramer_solve3(lhs, s.a + 0.5 * h * cross(m_next, s.a))
        assert np.allclose(out.m, m_next, atol=1e-16)
        assert np.max(np.abs(out.a - a_next)) <= 1e-14

    def test_all_four_invariants_single_step(self):
        s = self.tilted()
        h = 0.01
        before = lagrange_invariants(s, self.LP, h)
        after = lagrange_invariants(lagrange_step(s, self.LP, h), self.LP, h)
        for x, y in zip(before, after):
            assert abs(x - y) <= 1e-13

    def test_m_dot_p_exactly_conserved(self):
        s = self.tilted()
        out = lagrange_step(s, self.LP, 0.05)
        assert out.m @ self.LP.p == s.m @ self.LP.p

    def test_trajectory_conservation(self):
        s = self.tilted()
        h = 0.01
        initial = np.array(lagrange_invariants(s, self.LP, h))
        for _ in range(5000):
            s = lagrange_step(s, self.LP, h)
        final = np.array(lagrange_invariants(s, self.LP, h))
        assert np.max(np.abs(final - initial) / np.maximum(1.0, np.abs(initial))) <= 1e-12


class TestLagrangeInvariants:
    LP = LagrangeParams(vec3(0, 0, 1))

    def test_sleeping_top(self):
        nu = 2.5
        s = LagrangeState(vec3(0, 0, nu), vec3(0, 0, 1))
        a_sq, m_dot_p, m_dot_a, energy = lagrange_invariants(s, self.LP, 0.1)
        assert (a_sq, m_dot_p, m_dot_a) == (1.0, nu, nu)
        assert energy == pytest.approx(0.5 * nu**2 + 1.0, abs=1e-15)

    def test_zero_momentum(self):
        s = LagrangeState(vec3(0, 0, 0), vec3(0.6, 0.0, 0.8))
        a_sq, m_dot_p, m_dot_a, energy = lagrange_invariants(s, self.LP, 0.1)
        assert (m_dot_p, m_dot_a) == (0.0, 0.0)
        assert a_sq == pytest.approx(1.0, abs=1e-15)
        assert energy == pytest.approx(0.8, abs=1e-15)
