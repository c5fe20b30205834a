"""Norm-preserving and fully symmetric free-top steps, and the two-stage
explicit inertial-frame solver for the symmetric heavy top.

Free-top steps act on the angular momentum m; omega = m / diag(A, B, C).
The inertial-frame solver advances (m, a) with a fixed vertical p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import NumericalError, bs_solve, cross, vec3
from .models import TopParams


class ConvergenceError(NumericalError):
    """Fixed-point iteration failed to reach tolerance."""


MAX_FIXED_POINT_ITERATIONS = 100
FIXED_POINT_TOL = 1e-13


def bs_step_euler(m: np.ndarray, p: TopParams, h: float) -> np.ndarray:
    """Advance m by m' - m = (h/2)(m' + m) x omega, omega taken at the old
    level: a single linear solve. |m|^2 is preserved to roundoff, but the step
    is not symmetric under h -> -h.
    """
    m = np.asarray(m, dtype=float)
    return bs_solve(m, m / p.inertia, 0.5 * h)


def symmetric_step_euler(m: np.ndarray, p: TopParams, h: float) -> np.ndarray:
    """Advance m by m' - m = (h/4)(m' + m) x (omega' + omega).

    Conserves both |m|^2 and m.omega and is symmetric under h -> -h, at the
    price of an implicit solve. Fixed-point iteration seeded by the bilinear
    free-top step; converged when the defining relation holds to
    FIXED_POINT_TOL.
    """
    from .hk import hk_step_euler

    m = np.asarray(m, dtype=float)
    w = m / p.inertia
    m_next = p.inertia * hk_step_euler(w, p, h)
    scale = max(1.0, float(np.max(np.abs(m))))
    for _ in range(MAX_FIXED_POINT_ITERATIONS):
        candidate = bs_solve(m, w + m_next / p.inertia, 0.25 * h)
        stalled = np.max(np.abs(candidate - m_next)) <= 1e-16 * scale
        m_next = candidate
        res = np.max(
            np.abs(m_next - m - 0.25 * h * cross(m_next + m, w + m_next / p.inertia))
        )
        if res <= FIXED_POINT_TOL * scale and stalled:
            return m_next
    if res <= FIXED_POINT_TOL * scale:
        return m_next
    raise ConvergenceError("symmetric free-top step did not converge")


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
    m, a = y[:3], y[3:]
    m_next = m + h * cross(lp.p, a)
    # a' + a crossed with m' from the right: reuse the norm-preserving solve
    # with v = m' and reversed sign, since m' x (a'+a) = -(a'+a) x m'.
    return np.concatenate([m_next, bs_solve(a, m_next, -0.5 * h)])


def lagrange_invariants(
    y: np.ndarray, lp: LagrangeParams, h: float
) -> tuple[float, float, float, float]:
    """(a^2, m.p, m.a, E) of y = (m, a), with the O(h) cross term in the
    discrete energy: E = |m|^2/2 + a.p + (h/2)(a x m).p."""
    m, a = y[:3], y[3:]
    a_sq = float(a @ a)
    m_dot_p = float(m @ lp.p)
    m_dot_a = float(m @ a)
    energy = float(0.5 * (m @ m) + a @ lp.p + 0.5 * h * (cross(a, m) @ lp.p))
    return a_sq, m_dot_p, m_dot_a, energy
