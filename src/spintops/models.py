"""Continuous-time rigid-body models: right-hand sides and conserved quantities.

The state is the packed y = (omega, gamma) in the body frame: angular
velocity and the vertical unit vector. Angular momentum is
m = diag(A, B, C) @ omega. Steps take and return the state as six floats, and
so does the right-hand side: it takes any sequence of six floats and returns
a tuple of six. The invariant functions take a 6-vector, or an (n, 6) stack,
and they and the matrix-form check are the functions here that import numpy.
Parameters are floats: the inertia (A, B, C) and the gravity-moment vector
g = mg*(x0, y0, z0) as three each, and the Kowalevski c0 as one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# The reduced Kowalevski top: A = B = 2, C = 1, gravity vector (c0, 0, 0).
KOWALEVSKI_INERTIA = (2.0, 2.0, 1.0)


def _values(*values):
    """Floats for one state, or arrays of them for a stack of states."""
    return tuple(float(v) if v.ndim == 0 else v for v in values)


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


def invariants(y: np.ndarray, inertia, g) -> tuple:
    """The three universal conserved quantities (gamma^2, m.gamma, E) of a
    state y, or of each row of a stack of states (n, 6)."""
    import numpy as np

    w, gam = y[..., :3], y[..., 3:]
    m = inertia * w
    return _values(np.vecdot(gam, gam), np.vecdot(m, gam),
                   0.5 * np.vecdot(m, w) + np.vecdot(g, gam))


def xi(y: np.ndarray, c0: float) -> complex:
    """xi = (omega_1 + i*omega_2)^2 - c0*(gamma_1 + i*gamma_2), of a state y
    or of each row of a stack of states, formed from its real and imaginary
    parts as Python's complex arithmetic rounds them."""
    w0, w1, g0, g1 = y[..., 0], y[..., 1], y[..., 3], y[..., 4]
    return (w0 * w0 - w1 * w1 - c0 * g0) + 1j * (w0 * w1 + w1 * w0 - c0 * g1)


def kowalevski_invariants(y: np.ndarray, c0: float) -> tuple:
    """(2*ell, E, k^2) in the reduced A=B=2, C=1 form, of a state y or of each
    row of a stack of states (n, 6)."""
    import numpy as np

    w0, w1, w2, g0 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    two_ell = 2.0 * (w0 * g0 + w1 * y[..., 4]) + w2 * y[..., 5]
    energy = w0 * w0 + w1 * w1 + 0.5 * (w2 * w2) + c0 * g0
    z = xi(y, c0)
    return _values(two_ell, energy, np.hypot(z.real, z.imag) ** 2)


def skew_apply_matrix(v) -> np.ndarray:
    """Matrix K(v) with K(v) @ u == v x u, as a numpy 3x3 array."""
    import numpy as np

    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def matrix_form_residual(y: np.ndarray, inertia, g) -> float:
    """Max-norm residual of the two commutator identities equivalent to the
    component equations: dM/dt = [Om, M] + [G, Gam] and dGam/dt = [Om, Gam].

    Analytically zero for every state; useful as a consistency check of sign
    conventions.
    """
    import numpy as np

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
