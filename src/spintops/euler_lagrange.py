"""Norm-preserving and fully symmetric free-top steps, and the two-stage
explicit inertial-frame solver for the symmetric heavy top.

Free-top steps act on the angular momentum m; omega = m / diag(A, B, C).
The inertial-frame solver advances (m, a) with a fixed vertical p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import NumericalError, bs_solve, vec3
from .hk import hk_step_euler
from .models import TopParams, _values


class ConvergenceError(NumericalError):
    """Fixed-point iteration failed to reach tolerance."""


MAX_FIXED_POINT_ITERATIONS = 100
FIXED_POINT_TOL = 1e-13


def bs_step_euler(m, p: TopParams, h: float) -> np.ndarray:
    """Advance m by m' - m = (h/2)(m' + m) x omega, omega taken at the old
    level: a single linear solve. |m|^2 is preserved to roundoff, but the step
    is not symmetric under h -> -h.
    """
    m0, m1, m2 = (float(v) for v in m)
    return np.array(bs_solve((m0, m1, m2), (m0 / p.A, m1 / p.B, m2 / p.C), 0.5 * h))


def symmetric_step_euler(m, p: TopParams, h: float) -> np.ndarray:
    """Advance m by m' - m = (h/4)(m' + m) x (omega' + omega).

    Conserves both |m|^2 and m.omega and is symmetric under h -> -h, at the
    price of an implicit solve. Fixed-point iteration seeded by the bilinear
    free-top step; converged when the defining relation holds to
    FIXED_POINT_TOL.
    """
    A, B, C = p.A, p.B, p.C
    m0, m1, m2 = m = tuple(float(v) for v in m)
    w0, w1, w2 = m0 / A, m1 / B, m2 / C
    n0, n1, n2 = (p.inertia * hk_step_euler((w0, w1, w2), p, h)).tolist()
    scale = max(1.0, abs(m0), abs(m1), abs(m2))
    tol, c = FIXED_POINT_TOL * scale, 0.25 * h
    for _ in range(MAX_FIXED_POINT_ITERATIONS):
        x0, x1, x2 = bs_solve(m, (w0 + n0 / A, w1 + n1 / B, w2 + n2 / C), c)
        stalled = max(abs(x0 - n0), abs(x1 - n1), abs(x2 - n2)) <= 1e-16 * scale
        n0, n1, n2 = x0, x1, x2
        s0, s1, s2 = n0 + m0, n1 + m1, n2 + m2
        v0, v1, v2 = w0 + n0 / A, w1 + n1 / B, w2 + n2 / C
        converged = abs(n0 - m0 - c * (s1 * v2 - s2 * v1)) <= tol \
            and abs(n1 - m1 - c * (s2 * v0 - s0 * v2)) <= tol \
            and abs(n2 - m2 - c * (s0 * v1 - s1 * v0)) <= tol
        if converged and stalled:
            break
    if not converged:
        raise ConvergenceError("symmetric free-top step did not converge")
    return np.array([n0, n1, n2])


@dataclass(frozen=True)
class LagrangeParams:
    """Constant vertical vector p (dimensionless form)."""

    p: np.ndarray = field(default_factory=lambda: vec3(0.0, 0.0, 1.0))

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))


def lagrange_step(y: np.ndarray, lp: LagrangeParams, h: float) -> np.ndarray:
    """Two-stage explicit step on y = (m, a):

        m' = m + h * p x a
        a' - a = (h/2) m' x (a' + a)   (one 3x3 solve; |a| preserved exactly)
    """
    m0, m1, m2, a0, a1, a2 = y.tolist()
    p0, p1, p2 = lp.p.tolist()
    m_next = (m0 + h * (p1 * a2 - p2 * a1), m1 + h * (p2 * a0 - p0 * a2),
              m2 + h * (p0 * a1 - p1 * a0))
    # a' + a crossed with m' from the right: reuse the norm-preserving solve
    # with v = m' and reversed sign, since m' x (a'+a) = -(a'+a) x m'.
    return np.array([*m_next, *bs_solve((a0, a1, a2), m_next, -0.5 * h)])


def lagrange_invariants(y: np.ndarray, lp: LagrangeParams, h: float) -> tuple:
    """(a^2, m.p, m.a, E) of y = (m, a), or of each row of a stack of states
    (n, 6), with the O(h) cross term in the discrete energy:
    E = |m|^2/2 + a.p + (h/2)(a x m).p."""
    m, a = y[..., :3], y[..., 3:]
    energy = (0.5 * np.vecdot(m, m) + np.vecdot(a, lp.p)
              + 0.5 * h * np.vecdot(np.cross(a, m), lp.p))
    return _values(np.vecdot(a, a), np.vecdot(m, lp.p), np.vecdot(m, a), energy)
