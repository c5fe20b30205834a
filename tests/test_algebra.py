import numpy as np
import pytest

from spintops.algebra import NumericalError, SingularSystemError, bs_solve, solve3

from conftest import cramer_solve3, cross, vec3


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
