"""Norm-preserving and fully symmetric free-top steps, and the two-stage
explicit inertial-frame solver for the symmetric heavy top.

Free-top steps take the packed state (omega, gamma), advance the angular
momentum m = diag(A, B, C) omega and return omega' with gamma unchanged. The
inertial-frame solver advances (m, a) with a fixed vertical p. Each factory
takes the inertia or the vertical as three floats, then h, computes once what
depends only on those, and returns the step, which takes any sequence of six
floats and returns a tuple of six. The fully symmetric free-top step is
seeded by the free-top bilinear step, one 3x3 solve.
"""

from __future__ import annotations

from .algebra import NumericalError, bs_solve, solve3


class ConvergenceError(NumericalError):
    """Fixed-point iteration failed to reach tolerance."""


MAX_FIXED_POINT_ITERATIONS = 100
FIXED_POINT_TOL = 1e-13


def bs_stepper(inertia, h: float):
    """Free-top step y = (omega, gamma) -> y' as six floats: m = I omega
    advanced by m' - m = (h/2)(m' + m) x omega, omega taken at the old level,
    in a single linear solve. |m|^2 is preserved to roundoff, but the step is
    not symmetric under h -> -h.
    """
    A, B, C = inertia
    hh = 0.5 * h

    def step(y) -> tuple[float, ...]:
        w0, w1, w2, g0, g1, g2 = y
        m0, m1, m2 = A * w0, B * w1, C * w2
        n0, n1, n2 = bs_solve((m0, m1, m2), (m0 / A, m1 / B, m2 / C), hh)
        return n0 / A, n1 / B, n2 / C, g0, g1, g2

    return step


def symmetric_stepper(inertia, h: float):
    """Free-top step y = (omega, gamma) -> y' as six floats: m = I omega
    advanced by m' - m = (h/4)(m' + m) x (omega' + omega).

    Conserves both |m|^2 and m.omega and is symmetric under h -> -h, at the
    price of an implicit solve. Fixed-point iteration seeded by the bilinear
    free-top step of Kahan, one 3x3 system in omega':

        omega'_i - k_i (omega'_j omega_k + omega_j omega'_k) = omega_i,
        k_i = h (I_j - I_k) / (2 I_i), (i, j, k) cyclic.

    Its rows are those of the hk system at gamma = 0 and g = 0, bit for bit,
    and solve3 refuses them, singular or overflowing, where it refuses hk's;
    past |h| ~ 1e154 hk also refuses them, on an overflow of its gravity
    coefficient against the zero gamma. With
    scale = max(1, |m1|, |m2|, |m3|), the step returns the first iterate that
    has stalled (each component moved by at most 1e-16 * scale) and satisfies
    the defining relation to FIXED_POINT_TOL * scale, or the last of
    MAX_FIXED_POINT_ITERATIONS iterates if that one satisfies it, stalled or
    not; otherwise it raises ConvergenceError. The relation is evaluated only
    on those iterates, the only ones that can end the loop. Both module
    constants are read when the step runs.
    """
    A, B, C = inertia
    c = 0.25 * h
    k0, k1, k2 = h * (B - C) / (2.0 * A), h * (C - A) / (2.0 * B), h * (A - B) / (2.0 * C)
    nk0, nk1, nk2 = -k0, -k1, -k2
    # The dropped gravity rows add a zero to each entry off the diagonal, of
    # the sign of I_i in row i, and +0 to each right-hand side: a sum with a
    # zero can set the sign of a zero in omega', so both stay.
    zA, zB, zC = 0.0 * A, 0.0 * B, 0.0 * C

    def step(y) -> tuple[float, ...]:
        m0, m1, m2 = m = A * y[0], B * y[1], C * y[2]
        w0, w1, w2 = m0 / A, m1 / B, m2 / C
        o0, o1, o2 = solve3(((1.0, nk0 * w2 + zA, nk0 * w1 + zA),
                             (nk1 * w2 + zB, 1.0, nk1 * w0 + zB),
                             (nk2 * w1 + zC, nk2 * w0 + zC, 1.0)),
                            (w0 + 0.0, w1 + 0.0, w2 + 0.0))
        n0, n1, n2 = A * o0, B * o1, C * o2
        scale = max(1.0, abs(m0), abs(m1), abs(m2))
        tol, still = FIXED_POINT_TOL * scale, 1e-16 * scale
        for left in range(MAX_FIXED_POINT_ITERATIONS, 0, -1):
            x0, x1, x2 = bs_solve(m, (w0 + n0 / A, w1 + n1 / B, w2 + n2 / C), c)
            stalled = (-still <= x0 - n0 <= still and -still <= x1 - n1 <= still
                       and -still <= x2 - n2 <= still)
            n0, n1, n2 = x0, x1, x2
            if stalled or left == 1:
                s0, s1, s2 = n0 + m0, n1 + m1, n2 + m2
                v0, v1, v2 = w0 + n0 / A, w1 + n1 / B, w2 + n2 / C
                if abs(n0 - m0 - c * (s1 * v2 - s2 * v1)) <= tol \
                        and abs(n1 - m1 - c * (s2 * v0 - s0 * v2)) <= tol \
                        and abs(n2 - m2 - c * (s0 * v1 - s1 * v0)) <= tol:
                    return n0 / A, n1 / B, n2 / C, y[3], y[4], y[5]
        raise ConvergenceError("symmetric free-top step did not converge")

    return step


def lagrange_stepper(p, h: float):
    """Two-stage explicit step y = (m, a) -> y' as six floats, with vertical
    p (three floats):

        m' = m + h * p x a
        a' - a = (h/2) m' x (a' + a)   (one 3x3 solve; |a| preserved exactly)
    """
    p0, p1, p2 = p
    # a' + a crossed with m' from the right: reuse the norm-preserving solve
    # with v = m' and reversed sign, since m' x (a'+a) = -(a'+a) x m'.
    back = -0.5 * h

    def step(y) -> tuple[float, ...]:
        m0, m1, m2, a0, a1, a2 = y
        m_next = (m0 + h * (p1 * a2 - p2 * a1), m1 + h * (p2 * a0 - p0 * a2),
                  m2 + h * (p0 * a1 - p1 * a0))
        return (*m_next, *bs_solve((a0, a1, a2), m_next, back))

    return step


def lagrange_invariants(y, p, h: float) -> tuple:
    """(a^2, m.p, m.a, E) of a state y = (m, a), with the O(h) cross term in
    the discrete energy: E = |m|^2/2 + a.p + (h/2)(a x m).p."""
    m0, m1, m2, a0, a1, a2 = y
    p0, p1, p2 = p
    c0, c1, c2 = a1 * m2 - a2 * m1, a2 * m0 - a0 * m2, a0 * m1 - a1 * m0
    energy = (0.5 * (m0 * m0 + m1 * m1 + m2 * m2) + (a0 * p0 + a1 * p1 + a2 * p2)
              + 0.5 * h * (c0 * p0 + c1 * p1 + c2 * p2))
    return (a0 * a0 + a1 * a1 + a2 * a2, m0 * p0 + m1 * p1 + m2 * p2,
            m0 * a0 + m1 * a1 + m2 * a2, energy)
