import numpy as np
import pytest

from spintops.algebra import SINGULAR_RTOL, SingularSystemError, bs_solve, solve3
from spintops.hk import hk_step
from spintops.kowalevski import gamma_step_rotation
from spintops.models import KOWALEVSKI_INERTIA

from conftest import (assemble_system, cramer_solve3, cross, full_pivot_solve, skew_apply_matrix,
                      vec3)


class TestCross:
    def test_basis_identity(self):
        assert np.array_equal(cross(vec3(1, 0, 0), vec3(0, 1, 0)), vec3(0, 0, 1))

    def test_self_cross_vanishes(self, rng):
        for _ in range(20):
            u = rng.normal(size=3)
            assert np.array_equal(cross(u, u), np.zeros(3))

    def test_component_formula(self):
        # component-formula oracle: (1,2,3) x (4,5,6)
        assert np.array_equal(cross(vec3(1, 2, 3), vec3(4, 5, 6)), vec3(-3, 6, -3))

    def test_antisymmetry_and_bilinearity(self, rng):
        for _ in range(50):
            u, v, w = rng.normal(size=(3, 3))
            a, b = rng.normal(size=2)
            assert np.allclose(cross(u, v), -cross(v, u), atol=1e-15)
            assert np.allclose(
                cross(a * u + b * w, v), a * cross(u, v) + b * cross(w, v), atol=1e-13
            )

    def test_orthogonal_to_both(self, rng):
        for _ in range(50):
            u, v = rng.normal(size=(2, 3))
            c = cross(u, v)
            assert abs(c @ u) < 1e-14
            assert abs(c @ v) < 1e-14

    def test_scalar_triple_product_cyclic(self, rng):
        for _ in range(50):
            u, v, w = rng.normal(size=(3, 3))
            t1 = u @ cross(v, w)
            t2 = v @ cross(w, u)
            t3 = w @ cross(u, v)
            assert abs(t1 - t2) < 1e-13
            assert abs(t2 - t3) < 1e-13

    def test_skew_apply_matrix(self, rng):
        for _ in range(20):
            v, x = rng.normal(size=(2, 3))
            assert np.allclose(skew_apply_matrix(v) @ x, cross(v, x), atol=1e-15)


def cutoff(a):
    """The relative singularity cutoff of a 3x3 system: SINGULAR_RTOL * ||a||_F^3."""
    return SINGULAR_RTOL * float(np.linalg.norm(a)) ** 3


class TestSolve3:
    def test_identity(self):
        assert np.array_equal(solve3(np.eye(3), vec3(1, 2, 3), cutoff(np.eye(3))), vec3(1, 2, 3))

    def test_diagonal(self):
        a = np.diag([2.0, 4.0, 8.0])
        assert np.array_equal(solve3(a, vec3(2, 4, 8), cutoff(a)), np.ones(3))

    def test_matches_cramer_oracle(self, rng):
        for _ in range(100):
            a = np.eye(3) + 0.5 * rng.normal(size=(3, 3))
            if abs(np.linalg.det(a)) < 0.1:
                continue
            b = rng.normal(size=3)
            x = np.array(solve3(a.tolist(), b.tolist(), cutoff(a)))
            assert np.allclose(x, cramer_solve3(a, b), atol=1e-11)
            assert np.max(np.abs(a @ x - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_singular_raises(self):
        rank_2 = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
        for a in [rank_2, np.zeros((3, 3))]:
            with pytest.raises(SingularSystemError):
                solve3(a.tolist(), [1.0, 1.0, 1.0], cutoff(a))


def random_top(rng):
    """Inertia, gravity and state of a random general top, as float lists."""
    return (rng.uniform(0.5, 3.0, 3).tolist(), rng.normal(size=3).tolist(),
            rng.normal(size=6).tolist())


class TestSolve6:
    # The 6x6 kernel is hk_step: the block elimination of the hk system
    # assembled densely by conftest.assemble_system.

    def test_identity(self, rng):
        # at h = 0 the system is I x = y
        inertia, g, y = random_top(rng)
        assert np.array_equal(hk_step(y, inertia, g, 0.0), y)

    def test_block_diagonal_matches_solve3(self, rng):
        # Without gravity the omega rows decouple from gamma': the omega block
        # solves alone, and the gamma block then solves with the new omega.
        for _ in range(20):
            inertia, _, y = random_top(rng)
            h = rng.uniform(0.01, 0.5)
            mat, rhs = assemble_system(np.array(y), inertia, (0.0, 0.0, 0.0), h)
            x = hk_step(y, inertia, (0.0, 0.0, 0.0), h)
            omega = solve3(mat[:3, :3].tolist(), rhs[:3].tolist(), cutoff(mat[:3, :3]))
            gamma = solve3(mat[3:, 3:].tolist(), (rhs[3:] - mat[3:, :3] @ omega).tolist(),
                           cutoff(mat[3:, 3:]))
            assert np.allclose(x[:3], omega, atol=1e-13)
            assert np.allclose(x[3:], gamma, atol=1e-13)

    def test_matches_full_pivot_oracle(self, rng):
        for _ in range(50):
            inertia, g, y = random_top(rng)
            h = rng.uniform(0.01, 0.5)
            mat, rhs = assemble_system(np.array(y), inertia, g, h)
            x = np.array(hk_step(y, inertia, g, h))
            assert np.allclose(x, full_pivot_solve(mat, rhs), atol=1e-12)
            assert np.max(np.abs(mat @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_singular_raises(self):
        # A free top with inertia (3, 2, 1) spinning about its middle axis at
        # |w2| = sqrt(3), h = 2: the omega block has det 1 - h^2 w2^2 / 12 = 0.
        # And the Kowalevski system at h = 1e9, far below the relative cutoff.
        for y, inertia, g, h in [
            ((0.0, 3.0 ** 0.5, 0.0, 0.0, 0.0, 1.0), (3.0, 2.0, 1.0), (0.0, 0.0, 0.0), 2.0),
            ((2.0, 0.0, 0.0, 1.0, 0.0, 0.001), KOWALEVSKI_INERTIA, (1.0, 0.0, 0.0), 1e9),
        ]:
            with pytest.raises(SingularSystemError):
                hk_step(y, inertia, g, h)


def rotation_matrix(theta):
    """Matrix of g -> exp(-K(theta)) g, built column by column from the
    rotation gamma-step with h = 1."""
    return np.column_stack([gamma_step_rotation(e, theta, 1.0) for e in np.eye(3)])


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        assert np.array_equal(rotation_matrix(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        # substitute n=(0,0,1), c=0, s=1 into the entry table
        r = rotation_matrix(vec3(0, 0, np.pi / 2))
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(r, expected, atol=1e-15)
        assert np.allclose(r @ vec3(1, 0, 0), vec3(0, -1, 0), atol=1e-15)

    def test_orthogonality(self, rng):
        for _ in range(50):
            r = rotation_matrix(rng.normal(size=3))
            assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-13
            assert abs(np.linalg.det(r) - 1.0) <= 1e-13

    def test_norm_preservation(self, rng):
        for _ in range(50):
            theta = rng.normal(size=3)
            g = rng.normal(size=3)
            assert abs(np.linalg.norm(rotation_matrix(theta) @ g) - np.linalg.norm(g)) <= 1e-13


class TestBsSolve:
    # |c v| from a small step up to 1e8, where the update is near a half-turn
    # about v; the closed form never raises.
    C_V_NORMS = [0.05, 1.0, 1e3, 1e8]

    def test_norm_preserved(self, rng):
        for cv in self.C_V_NORMS:
            for _ in range(50):
                x = rng.normal(size=3)
                v = rng.normal(size=3)
                xn = np.array(bs_solve(x, v, cv / np.linalg.norm(v)))
                assert abs(xn @ xn - x @ x) <= 1e-13 * max(1.0, x @ x), cv

    def test_defining_relation(self, rng):
        for cv in self.C_V_NORMS:
            for _ in range(50):
                x = rng.normal(size=3)
                v = rng.normal(size=3)
                c = cv / np.linalg.norm(v)
                xn = np.array(bs_solve(x, v, c))
                scale = max(1.0, cv) * np.linalg.norm(x)
                assert np.max(np.abs(xn - x - c * cross(xn + x, v))) <= 1e-14 * scale, cv
