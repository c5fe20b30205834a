import numpy as np
import pytest

from spintops.algebra import NumericalError, SingularSystemError, bs_solve, solve3
from spintops.kowalevski import gamma_step_rotation

from conftest import cramer_solve3, cross, skew_apply_matrix, vec3


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


class TestSolve3:
    def test_identity(self):
        assert np.array_equal(solve3(np.eye(3), vec3(1, 2, 3)), vec3(1, 2, 3))

    def test_diagonal(self):
        a = np.diag([2.0, 4.0, 8.0])
        assert np.array_equal(solve3(a, vec3(2, 4, 8)), np.ones(3))

    def test_matches_cramer_oracle(self, rng):
        for _ in range(100):
            a = np.eye(3) + 0.5 * rng.normal(size=(3, 3))
            if abs(np.linalg.det(a)) < 0.1:
                continue
            b = rng.normal(size=3)
            x = np.array(solve3(a.tolist(), b.tolist()))
            assert np.allclose(x, cramer_solve3(a, b), atol=1e-11)
            assert np.max(np.abs(a @ x - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_singular_raises(self):
        rank_2 = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]])
        for a in [rank_2, np.zeros((3, 3))]:
            with pytest.raises(SingularSystemError):
                solve3(a.tolist(), [1.0, 1.0, 1.0])

    def test_cutoff_is_relative_to_the_norm(self):
        # |det| against 1e-14 ||a||_F^3: a scaled system keeps its verdict.
        near = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-12], [1.0, 0.0, 1.0]])
        for scale in (1e-50, 1.0, 1e50):
            with pytest.raises(SingularSystemError):
                solve3((scale * near).tolist(), [1.0, 1.0, 1.0])
            assert np.isfinite(solve3((scale * np.eye(3)).tolist(), [1.0, 1.0, 1.0])).all()

    def test_norm_that_overflows_raises(self):
        # No cutoff can be formed from an inf or nan norm: the error names the
        # overflow, not a singularity, and carries no number.
        for v in (1e200, np.inf, np.nan):
            a = np.eye(3)
            a[0, 1] = v
            with pytest.raises(NumericalError) as info:
                solve3(a.tolist(), [1.0, 1.0, 1.0])
            assert info.type is NumericalError and str(info.value) == "system overflows"


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
