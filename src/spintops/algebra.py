"""Small dense linear-algebra kernels: cross product, LU solve, Cayley update.

Everything here operates on plain numpy arrays: 3-vectors of shape (3,),
3x3 and 6x6 matrices. All functions are pure and thread-safe.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class NumericalError(RuntimeError):
    """Base class for numerical failures (singular systems, non-convergence)."""


class SingularSystemError(NumericalError):
    """Raised when a linear system is singular to working precision."""


@contextmanager
def numerical_guard(what: str):
    """Raise NumericalError when a float operation in the block overflows or
    is invalid (such as inf - inf), in numpy or in a Python power."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as e:
        raise NumericalError(f"{what}: {e}") from e


def vec3(x, y, z) -> np.ndarray:
    return np.array([float(x), float(y), float(z)])


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product u x v."""
    return np.array(
        [
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        ]
    )


def skew_apply_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix K(v) with K(v) @ x == cross(v, x)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


# Relative singularity cutoff: a system counts as singular when
# |det| < SINGULAR_RTOL * ||a||_F ** n.
SINGULAR_RTOL = 1e-14


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the n x n system a @ x = b by LAPACK's LU solve.

    Raises SingularSystemError when |det(a)| falls below the relative cutoff,
    a zero matrix included.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"shape mismatch: a {a.shape}, b {b.shape}")
    det = abs(float(np.linalg.det(a)))
    # "not >" also rejects det = 0 at a zero scale, and a NaN determinant.
    if not det > SINGULAR_RTOL * float(np.linalg.norm(a)) ** n:
        raise SingularSystemError(f"{n}x{n} system singular to tolerance (|det|={det:.3e})")
    return np.linalg.solve(a, b)


def bs_solve(x: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """Solve x' - x = c * (x' + x) x v for x'.

    With a = c*v this is (I + K(a)) x' = (I - K(a)) x, the Cayley transform of
    the skew matrix K(a), in closed form:
    x' = x + 2/(1 + |a|^2) * (a x (a x x) - a x x).
    det(I + K(a)) = 1 + |a|^2 >= 1, so the update is never singular, and it
    preserves |x|^2 exactly in exact arithmetic since (x'+x).(x'-x) = 0.
    """
    a = c * np.asarray(v, dtype=float)
    ax = cross(a, x)
    return x + (2.0 / (1.0 + a @ a)) * (cross(a, ax) - ax)
