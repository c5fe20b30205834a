"""Norm-preserving and fully symmetric free-top steps, and the two-stage
explicit inertial-frame solver for the symmetric heavy top.

Free-top steps take the packed state (omega, gamma), advance the angular
momentum m = diag(A, B, C) omega and return omega' with gamma unchanged. The
inertial-frame solver advances (m, a) with a fixed vertical p. Each step takes
any sequence of six floats and returns a tuple of six; the inertia and the
vertical arrive as three floats each.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .algebra import NumericalError, bs_solve
from .hk import hk_step
from .models import _values

if TYPE_CHECKING:
    import numpy as np


class ConvergenceError(NumericalError):
    """Fixed-point iteration failed to reach tolerance."""


MAX_FIXED_POINT_ITERATIONS = 100
FIXED_POINT_TOL = 1e-13


def bs_step_euler(y, inertia, h: float) -> tuple[float, ...]:
    """Advance m = I omega by m' - m = (h/2)(m' + m) x omega, omega taken at
    the old level: a single linear solve. |m|^2 is preserved to roundoff, but
    the step is not symmetric under h -> -h.
    """
    w0, w1, w2, g0, g1, g2 = y
    A, B, C = inertia
    m0, m1, m2 = A * w0, B * w1, C * w2
    n0, n1, n2 = bs_solve((m0, m1, m2), (m0 / A, m1 / B, m2 / C), 0.5 * h)
    return n0 / A, n1 / B, n2 / C, g0, g1, g2


def symmetric_step_euler(y, inertia, h: float) -> tuple[float, ...]:
    """Advance m = I omega by m' - m = (h/4)(m' + m) x (omega' + omega).

    Conserves both |m|^2 and m.omega and is symmetric under h -> -h, at the
    price of an implicit solve. Fixed-point iteration seeded by the bilinear
    free-top step (hk_step at gamma = 0, g = 0); converged when the defining
    relation holds to FIXED_POINT_TOL.
    """
    A, B, C = inertia
    m0, m1, m2 = m = A * y[0], B * y[1], C * y[2]
    w0, w1, w2 = m0 / A, m1 / B, m2 / C
    o0, o1, o2 = hk_step((w0, w1, w2, 0.0, 0.0, 0.0), inertia, (0.0, 0.0, 0.0), h)[:3]
    n0, n1, n2 = A * o0, B * o1, C * o2
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
    return n0 / A, n1 / B, n2 / C, y[3], y[4], y[5]


def lagrange_step(y, p, h: float) -> tuple[float, ...]:
    """Two-stage explicit step on y = (m, a) with vertical p (three floats):

        m' = m + h * p x a
        a' - a = (h/2) m' x (a' + a)   (one 3x3 solve; |a| preserved exactly)
    """
    m0, m1, m2, a0, a1, a2 = y
    p0, p1, p2 = p
    m_next = (m0 + h * (p1 * a2 - p2 * a1), m1 + h * (p2 * a0 - p0 * a2),
              m2 + h * (p0 * a1 - p1 * a0))
    # a' + a crossed with m' from the right: reuse the norm-preserving solve
    # with v = m' and reversed sign, since m' x (a'+a) = -(a'+a) x m'.
    return (*m_next, *bs_solve((a0, a1, a2), m_next, -0.5 * h))


def lagrange_invariants(y: np.ndarray, p, h: float) -> tuple:
    """(a^2, m.p, m.a, E) of y = (m, a), or of each row of a stack of states
    (n, 6), with the O(h) cross term in the discrete energy:
    E = |m|^2/2 + a.p + (h/2)(a x m).p."""
    import numpy as np

    m, a = y[..., :3], y[..., 3:]
    energy = (0.5 * np.vecdot(m, m) + np.vecdot(a, p)
              + 0.5 * h * np.vecdot(np.cross(a, m), p))
    return _values(np.vecdot(a, a), np.vecdot(m, p), np.vecdot(m, a), energy)
