"""Shared independent oracles and helpers for the test suite.

These deliberately re-derive results through different algorithms than the
package (Cramer's rule, complete-pivot elimination, the dense 6x6 assembly of
the hk step, the right-hand sides and RK4 in numpy vector arithmetic, the
matrix-commutator form of the equations, Jacobians by finite differences) so
that agreement is a real cross-check.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintops
from spintops.models import euler_poisson_rhs

SRC = str(Path(spintops.__file__).resolve().parents[1])


def spawn(script, *args, cwd=None, timeout=60):
    """Run `python -c script *args` in a fresh interpreter that imports
    spintops from SRC, with its output captured as text. The numpy-free
    tests make numpy unimportable at the top of their script."""
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": SRC}, timeout=timeout)


def roundoff(n: int) -> float:
    """Relative roundoff bound for n steps, c*eps*sqrt(n) with c = 8: the
    rounding errors of the steps add up like a random walk (Hairer, Lubich
    and Wanner, Geometric Numerical Integration, 2006). A quantity that a
    scheme keeps exactly stays within roundoff(n) * max(1, |initial value|)
    of its initial value over n steps."""
    return 8 * sys.float_info.epsilon * math.sqrt(n)


def vec3(x, y, z):
    return np.array([float(x), float(y), float(z)])


def cross(u, v):
    """Cross product u x v of two 3-vectors, by components."""
    return np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def skew_apply_matrix(v):
    """Matrix K(v) with K(v) @ u == v x u, as a numpy 3x3 array."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def matrix_form_residual(y, inertia, g):
    """Max-norm residual of the two commutator identities equivalent to the
    component equations of `euler_poisson_rhs`: dM/dt = [Om, M] + [G, Gam]
    and dGam/dt = [Om, Gam].

    Analytically zero for every state; a consistency check of its sign
    conventions.
    """
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


def det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def cramer_solve3(a, b):
    """3x3 solve by Cramer's rule."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = det3(a)
    x = np.empty(3)
    for i in range(3):
        ai = a.copy()
        ai[:, i] = b
        x[i] = det3(ai) / d
    return x


def full_pivot_solve(a, b):
    """Gaussian elimination with complete (row and column) pivoting."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    n = a.shape[0]
    col_perm = list(range(n))
    for k in range(n):
        sub = np.abs(a[k:, k:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        i += k
        j += k
        a[[k, i]] = a[[i, k]]
        b[k], b[i] = b[i], b[k]
        a[:, [k, j]] = a[:, [j, k]]
        col_perm[k], col_perm[j] = col_perm[j], col_perm[k]
        for r in range(k + 1, n):
            f = a[r, k] / a[k, k]
            a[r, k:] -= f * a[k, k:]
            b[r] -= f * b[k]
    y = np.zeros(n)
    for k in range(n - 1, -1, -1):
        y[k] = (b[k] - a[k, k + 1 :] @ y[k + 1 :]) / a[k, k]
    x = np.zeros(n)
    for k in range(n):
        x[col_perm[k]] = y[k]
    return x


def assemble_system(y, inertia, g, h):
    """Dense 6x6 matrix and right-hand side of the bilinear hk step, unknowns
    ordered (w1, w2, w3, g1, g2, g3): the oracle for the block solve."""
    w, gam = y[:3], y[3:]
    A, B, C = inertia
    gv = g
    a1 = h * (B - C) / (2.0 * A)
    a2 = h * (C - A) / (2.0 * B)
    a3 = h * (A - B) / (2.0 * C)
    b1 = h / (2.0 * A)
    b2 = h / (2.0 * B)
    b3 = h / (2.0 * C)
    hh = 0.5 * h

    mat = np.eye(6)
    # omega rows: new-level bilinear partners and averaged gravity terms.
    mat[0, 1] = -a1 * w[2]
    mat[0, 2] = -a1 * w[1]
    mat[0, 4] = -b1 * gv[2]
    mat[0, 5] = +b1 * gv[1]
    mat[1, 0] = -a2 * w[2]
    mat[1, 2] = -a2 * w[0]
    mat[1, 3] = +b2 * gv[2]
    mat[1, 5] = -b2 * gv[0]
    mat[2, 0] = -a3 * w[1]
    mat[2, 1] = -a3 * w[0]
    mat[2, 3] = -b3 * gv[1]
    mat[2, 4] = +b3 * gv[0]
    # gamma rows: every product pairs one old with one new factor.
    mat[3, 1] = +hh * gam[2]
    mat[3, 2] = -hh * gam[1]
    mat[3, 4] = -hh * w[2]
    mat[3, 5] = +hh * w[1]
    mat[4, 0] = -hh * gam[2]
    mat[4, 2] = +hh * gam[0]
    mat[4, 3] = +hh * w[2]
    mat[4, 5] = -hh * w[0]
    mat[5, 0] = +hh * gam[1]
    mat[5, 1] = -hh * gam[0]
    mat[5, 3] = -hh * w[1]
    mat[5, 4] = +hh * w[0]

    rhs = np.array(
        [
            w[0] + b1 * (gv[2] * gam[1] - gv[1] * gam[2]),
            w[1] + b2 * (gv[0] * gam[2] - gv[2] * gam[0]),
            w[2] + b3 * (gv[1] * gam[0] - gv[0] * gam[1]),
            gam[0],
            gam[1],
            gam[2],
        ]
    )
    return mat, rhs


def componentwise_rhs(y, inertia, g):
    """Independent oracle: the six scalar equations written out directly."""
    w1, w2, w3, g1, g2, g3 = y
    A, B, C = inertia
    x0, y0, z0 = g  # gravity vector already carries the mg factor
    dw1 = ((B - C) * w2 * w3 + (g2 * z0 - g3 * y0)) / A
    dw2 = ((C - A) * w3 * w1 + (g3 * x0 - g1 * z0)) / B
    dw3 = ((A - B) * w1 * w2 + (g1 * y0 - g2 * x0)) / C
    dg1 = g2 * w3 - g3 * w2
    dg2 = g3 * w1 - g1 * w3
    dg3 = g1 * w2 - g2 * w1
    return np.array([dw1, dw2, dw3, dg1, dg2, dg3])


def vector_body_rhs(y, inertia, g):
    """The body-frame right-hand side in numpy vector arithmetic:
    (m x omega + gamma x g) / I with m = I omega, and gamma x omega."""
    inertia, w, gam = np.asarray(inertia), y[:3], y[3:]
    m = inertia * w
    dm = cross(m, w) + cross(gam, g)
    return np.concatenate([dm / inertia, cross(gam, w)])


def vector_lagrange_rhs(y, p):
    """The inertial-frame right-hand side (p x a, m x a) of y = (m, a)."""
    return np.concatenate([cross(p, y[3:]), cross(y[:3], y[3:])])


def vector_rk4(rhs, y, h):
    """One classical RK4 step on a numpy 6-vector: the oracle for the float
    `reference` stepper, which must agree with it bit for bit."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def jacobian(f, y, eps=1e-3):
    """Jacobian of f at y by fourth-order central differences with step eps,
    one column per component of y. For the smooth maps of the test suite
    at states of size about 1 its relative error is about 1e-12."""
    y = np.asarray(y, dtype=float)

    def at(j, s):
        x = y.copy()
        x[j] += s * eps
        return np.asarray(f(x), dtype=float)

    return np.column_stack([(8.0 * (at(j, 1) - at(j, -1)) - (at(j, 2) - at(j, -2))) / (12.0 * eps)
                            for j in range(len(y))])


def bohlin_reversal_defect(omega, gamma, c0):
    """Leading term d(y) of one bohlin-a pair: Phi_{-h}(Phi_h(y)) - y = h^2 d(y) + O(h^3).

    d_gamma = -gamma x omega_dot with omega_dot the exact reduced Kowalevski
    right-hand side, d_omega3 = 0, and d(w1 + i w2) = c0 (d_gamma1 + i d_gamma2) / (2 (w1 + i w2)).
    Packed as (omega, gamma).
    """
    w1, w2, w3 = omega
    omega_dot = np.array([0.5 * w2 * w3, 0.5 * (c0 * gamma[2] - w1 * w3), -c0 * gamma[1]])
    d_gamma = -np.cross(gamma, omega_dot)
    d_w = c0 * complex(d_gamma[0], d_gamma[1]) / (2.0 * complex(w1, w2))
    return np.array([d_w.real, d_w.imag, 0.0, *d_gamma])


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
