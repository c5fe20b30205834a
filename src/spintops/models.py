"""Continuous-time rigid-body models: right-hand sides and conserved quantities.

The state is the packed y = (omega, gamma) in the body frame: angular
velocity and the vertical unit vector. Angular momentum is
m = diag(A, B, C) @ omega. Steps take and return the state as six floats, and
so do the right-hand side and the invariant functions: each takes any
sequence of six floats, one state, and returns floats. The invariant
functions are plain arithmetic, so they also take six numpy columns, one per
component of a run's states, and return a column per invariant, each value
rounded as the float call rounds it. Only the matrix-form check and its
skew-matrix helper import numpy.
Parameters are floats: the inertia (A, B, C) and the gravity-moment vector
g = mg*(x0, y0, z0) as three each, and the Kowalevski c0 as one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# The reduced Kowalevski top: A = B = 2, C = 1, gravity vector (c0, 0, 0).
KOWALEVSKI_INERTIA = (2.0, 2.0, 1.0)


def euler_poisson_rhs(y, inertia, g) -> tuple[float, ...]:
    """Time derivative dy = (d omega, d gamma) of the body-frame equations, as
    six floats:

    m_dot = m x omega + gamma x g with m = diag(A,B,C) omega, and
    gamma_dot = gamma x omega.
    """
    w0, w1, w2, g0, g1, g2 = y
    A, B, C = inertia
    e0, e1, e2 = g
    m0, m1, m2 = A * w0, B * w1, C * w2
    return (
        ((m1 * w2 - m2 * w1) + (g1 * e2 - g2 * e1)) / A,
        ((m2 * w0 - m0 * w2) + (g2 * e0 - g0 * e2)) / B,
        ((m0 * w1 - m1 * w0) + (g0 * e1 - g1 * e0)) / C,
        g1 * w2 - g2 * w1,
        g2 * w0 - g0 * w2,
        g0 * w1 - g1 * w0,
    )


def invariants(y, inertia, g) -> tuple:
    """The three universal conserved quantities (gamma^2, m.gamma, E) of a
    state y."""
    w0, w1, w2, g0, g1, g2 = y
    A, B, C = inertia
    e0, e1, e2 = g
    m0, m1, m2 = A * w0, B * w1, C * w2
    return (g0 * g0 + g1 * g1 + g2 * g2, m0 * g0 + m1 * g1 + m2 * g2,
            0.5 * (m0 * w0 + m1 * w1 + m2 * w2) + (e0 * g0 + e1 * g1 + e2 * g2))


def _xi_parts(y, c0: float) -> tuple:
    """The real and imaginary parts of xi of a state y."""
    w0, w1, _, g0, g1, _ = y
    return w0 * w0 - w1 * w1 - c0 * g0, w0 * w1 + w1 * w0 - c0 * g1


def xi(y, c0: float) -> complex:
    """xi = (omega_1 + i*omega_2)^2 - c0*(gamma_1 + i*gamma_2) of a state y,
    formed from its real and imaginary parts."""
    return complex(*_xi_parts(y, c0))


def kowalevski_invariants(y, c0: float) -> tuple:
    """(gamma^2, 2*ell, E, k^2) of a state y in the reduced A=B=2, C=1 form,
    with 2*ell = m.gamma and k^2 = |xi|^2."""
    w0, w1, w2, g0, g1, g2 = y
    re, im = _xi_parts(y, c0)
    return (g0 * g0 + g1 * g1 + g2 * g2, 2.0 * (w0 * g0 + w1 * g1) + w2 * g2,
            w0 * w0 + w1 * w1 + 0.5 * (w2 * w2) + c0 * g0, re * re + im * im)


def skew_apply_matrix(v) -> np.ndarray:
    """Matrix K(v) with K(v) @ u == v x u, as a numpy 3x3 array."""
    import numpy as np

    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def matrix_form_residual(y, inertia, g) -> float:
    """Max-norm residual of the two commutator identities equivalent to the
    component equations: dM/dt = [Om, M] + [G, Gam] and dGam/dt = [Om, Gam].

    Analytically zero for every state; useful as a consistency check of sign
    conventions.
    """
    import numpy as np

    y = np.asarray(y, dtype=float)
    dy = np.array(euler_poisson_rhs(y, inertia, g))
    m = inertia * y[:3]
    dm = inertia * dy[:3]

    # Matrices in the layout K(v).T @ u == u x v.
    M, Om, Gam, G, dM, dGam = (
        skew_apply_matrix(v).T for v in (m, y[:3], y[3:], g, dm, dy[3:])
    )
    r1 = dM - (Om @ M - M @ Om) - (G @ Gam - Gam @ G)
    r2 = dGam - (Om @ Gam - Gam @ Om)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
