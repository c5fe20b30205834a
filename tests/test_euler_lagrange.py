import numpy as np
import pytest

from spintops import euler_lagrange
from spintops.algebra import NumericalError, bs_solve
from spintops.euler_lagrange import (
    ConvergenceError,
    bs_stepper,
    lagrange_invariants,
    lagrange_stepper,
    symmetric_stepper,
)

from conftest import cramer_solve3, cross, roundoff, skew_apply_matrix, vec3

I123 = np.array([1.0, 2.0, 3.0])


def free_step(stepper, m, inertia, h):
    """A free-top step, stepper(inertia, h), of the packed state
    (m / I, gamma), read back as the momentum m' = I omega'."""
    inertia = np.array(inertia)
    return inertia * np.array(stepper(inertia, h)((*(m / inertia), 0.0, 0.0, 1.0))[:3])


def bs_oracle(m, omega, h):
    """Cramer-rule solve of m' - (h/2) m' x omega = m + (h/2) m x omega."""
    lhs = np.eye(3) + 0.5 * h * skew_apply_matrix(omega)
    return cramer_solve3(lhs, m + 0.5 * h * cross(m, omega))


class TestBsStepEuler:
    def test_zero_step(self):
        m = vec3(1, -2, 0.5)
        assert np.allclose(free_step(bs_stepper, m, I123, 0.0), m, atol=1e-16)

    def test_spherical_top_fixed(self):
        m = vec3(0.3, 1.1, -0.7)
        assert np.allclose(free_step(bs_stepper, m, (2.0, 2.0, 2.0), 0.1), m, atol=1e-14)

    def test_norm_conserved_and_value(self):
        m = vec3(1, 1, 1)
        h = 0.1
        mn = free_step(bs_stepper, m, I123, h)
        assert abs(mn @ mn - 3.0) <= 1e-13
        assert np.max(np.abs(mn - bs_oracle(m, m / I123, h))) <= 1e-13

    def test_breaks_time_reversal(self):
        # the documented asymmetry: round trip error far above roundoff
        m = vec3(1, 1, 1)
        h = 0.05
        back = free_step(bs_stepper, free_step(bs_stepper, m, I123, h), I123, -h)
        assert np.max(np.abs(back - m)) >= 1e-8


class TestSymmetricStepEuler:
    def test_zero_step(self):
        m = vec3(0.5, -0.25, 2.0)
        assert np.allclose(free_step(symmetric_stepper, m, I123, 0.0), m, atol=1e-16)

    def test_spherical_top_fixed(self):
        m = vec3(1, 2, 3)
        assert np.allclose(free_step(symmetric_stepper, m, (1.5, 1.5, 1.5), 0.05), m,
                           atol=1e-13)

    @pytest.mark.parametrize("inertia,speed", [((3.0, 2.0, 1.0), 3.0 ** 0.5),
                                               ((1.0, 2.0, 3.0), 0.12 ** 0.5)])
    @pytest.mark.parametrize("h", [0.01, 2.0, 10.0])
    def test_steady_rotation_is_fixed_at_any_step(self, inertia, speed, h):
        # A rotation about a principal axis is a fixed point of the step,
        # also where h^2 speed^2 = 12 makes the free-top bilinear system
        # singular (the middle axis at h = 2 and at h = 10 here): gamma comes
        # back unchanged and omega as (I omega) / I.
        gamma = (0.6, -0.0, 0.8)
        for axis in range(3):
            for w in (speed, -speed):
                omega = [0.0, 0.0, 0.0]
                omega[axis] = w
                out = symmetric_stepper(inertia, h)((*omega, *gamma))
                assert out == (*(i * o / i for i, o in zip(inertia, omega)), *gamma)

    def test_defining_relation(self):
        m = vec3(0.7, -1.1, 0.4)
        h = 0.05
        mn = free_step(symmetric_stepper, m, I123, h)
        # relation uses omega at both levels
        res = mn - m - 0.25 * h * cross(mn + m, mn / I123 + m / I123)
        assert np.max(np.abs(res)) <= 1e-13 * max(1.0, np.max(np.abs(m)))

    @pytest.mark.parametrize("h", [1e-3, 1e-2, 5e-2])
    def test_contract_on_random_states(self, h, rng):
        # From 20 seeded random states and inertias, n = 100 steps keep |m|^2
        # and m.omega to roundoff(n) of their size, and n steps back with -h
        # return to m within roundoff(n) max|m|. gamma comes back bit for bit.
        n = 100
        bound = roundoff(n)
        for _ in range(20):
            inertia = tuple(rng.uniform(0.5, 3.0, 3).tolist())
            start = tuple(rng.normal(size=6).tolist())
            forward, backward = symmetric_stepper(inertia, h), symmetric_stepper(inertia, -h)
            y = start
            for _ in range(n):
                y = forward(y)
            m0, m = np.multiply(inertia, start[:3]), np.multiply(inertia, y[:3])
            assert abs(m @ m - m0 @ m0) <= bound * (m0 @ m0)
            assert abs(m @ y[:3] - m0 @ start[:3]) <= bound * (m0 @ start[:3])
            for _ in range(n):
                y = backward(y)
            back = np.multiply(inertia, y[:3])
            assert np.max(np.abs(back - m0)) <= bound * np.max(np.abs(m0))
            assert y[3:] == start[3:]

    def test_non_convergence(self):
        # h|omega| far beyond the fixed-point iteration's contraction range
        with pytest.raises(ConvergenceError):
            free_step(symmetric_stepper, vec3(1, 20, 1), I123, 0.5)

    def test_overflowing_seed_raises_before_iterating(self, monkeypatch):
        # At omega = 1e200 (1, 1, 1) the seed's products overflow: the step
        # says so at once, and solves nothing.
        def no_solve(*args):
            raise AssertionError("bs_solve called")

        monkeypatch.setattr(euler_lagrange, "bs_solve", no_solve)
        step = symmetric_stepper((1.0, 2.0, 3.0), 0.01)
        with pytest.raises(NumericalError, match="^symmetric free-top step: seed overflows$") as e:
            step((1e200, 1e200, 1e200, 0.0, 0.0, 1.0))
        assert type(e.value) is NumericalError

    def test_last_allowed_iterate_returns_if_it_satisfies_the_relation(self, monkeypatch):
        # With one iterate allowed, the first is also the last. At h = 1e-3
        # it has not stalled, but it satisfies the defining relation, so the
        # step returns it; at h = 1e-2 it does not, so the step raises. The
        # limit is read when the step runs, so a step bound before the patch
        # sees it.
        y, inertia = (0.7, -0.55, 0.4 / 3, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0)
        m = [i * w for i, w in zip(inertia, y[:3])]
        w = [x / i for x, i in zip(m, inertia)]
        # The seed: one explicit midpoint step of m' = m x omega.
        p = [a + 0.5e-3 * b for a, b in zip(m, cross(m, w))]
        n = [a + 1e-3 * b for a, b in zip(m, cross(p, [x / i for x, i in zip(p, inertia)]))]
        first = bs_solve(m, [a + x / i for a, x, i in zip(w, n, inertia)], 0.25 * 1e-3)
        assert max(abs(x - s) for x, s in zip(first, n)) > 1e-16
        step = symmetric_stepper(inertia, 1e-3)
        converged = step(y)
        monkeypatch.setattr(euler_lagrange, "MAX_FIXED_POINT_ITERATIONS", 1)
        out = step(y)
        assert out == (*(x / i for x, i in zip(first, inertia)), *y[3:])
        assert out != converged
        with pytest.raises(ConvergenceError, match="symmetric free-top step did not converge"):
            symmetric_stepper(inertia, 1e-2)(y)


class TestLagrangeStep:
    P = vec3(0, 0, 1)

    def tilted(self):
        a = vec3(1, 0, 1) / np.sqrt(2)
        return np.concatenate([vec3(0.2, -0.1, 1.0), a])

    def test_sleeping_top_is_fixed(self):
        y = np.array([0, 0, 2.5, 0, 0, 1])
        out = np.array(lagrange_stepper(self.P, 0.3)(y))
        assert np.array_equal(out[:3], y[:3])
        assert np.allclose(out[3:], y[3:], atol=1e-15)

    def test_zero_step(self):
        y = self.tilted()
        out = np.array(lagrange_stepper(self.P, 0.0)(y))
        assert np.allclose(out, y, atol=1e-16)

    def test_matches_elimination_oracle(self):
        m, a = vec3(0, 0, 1), vec3(1, 0, 0)
        h = 0.01
        out = np.array(lagrange_stepper(self.P, h)(np.concatenate([m, a])))
        m_next = m + h * cross(self.P, a)
        lhs = np.eye(3) - 0.5 * h * skew_apply_matrix(m_next)
        a_next = cramer_solve3(lhs, a + 0.5 * h * cross(m_next, a))
        assert np.allclose(out[:3], m_next, atol=1e-16)
        assert np.max(np.abs(out[3:] - a_next)) <= 1e-14

    def test_m_dot_p_exactly_conserved(self):
        y = self.tilted()
        out = np.array(lagrange_stepper(self.P, 0.05)(y))
        assert out[:3] @ self.P == y[:3] @ self.P


class TestLagrangeInvariants:
    P = vec3(0, 0, 1)

    def test_sleeping_top(self):
        nu = 2.5
        y = np.array([0, 0, nu, 0, 0, 1])
        a_sq, m_dot_p, m_dot_a, energy = lagrange_invariants(y, self.P, 0.1)
        assert (a_sq, m_dot_p, m_dot_a) == (1.0, nu, nu)
        assert energy == pytest.approx(0.5 * nu**2 + 1.0, abs=1e-15)

    def test_zero_momentum(self):
        y = np.array([0, 0, 0, 0.6, 0.0, 0.8])
        a_sq, m_dot_p, m_dot_a, energy = lagrange_invariants(y, self.P, 0.1)
        assert (m_dot_p, m_dot_a) == (0.0, 0.0)
        assert a_sq == pytest.approx(1.0, abs=1e-15)
        assert energy == pytest.approx(0.8, abs=1e-15)
