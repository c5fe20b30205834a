"""Small kernels: the numerical guard, a 3x3 Cramer solve and the Cayley
update.

Every step carries its state as six Python floats, and the two solve kernels
it calls work on floats too: a vector is any sequence of three numbers and a
matrix three rows of three, and they return tuples. This module does not use
numpy. All functions are pure and thread-safe.
"""

from __future__ import annotations

from contextlib import contextmanager


class NumericalError(RuntimeError):
    """Base class for numerical failures (singular systems, non-convergence)."""


class SingularSystemError(NumericalError):
    """Raised when a linear system is singular to working precision."""


@contextmanager
def numerical_guard(what: str):
    """Raise NumericalError when a float operation in the block raises: a
    Python power or abs that overflows, a math or cmath call outside its
    domain, which raises a plain ValueError (math.tan(inf)). Python float
    arithmetic itself raises nothing: it yields inf or nan, which the callers
    check for. A NumericalError raised in the block keeps its type, and its
    message gets the prefix `what` too. Subclasses of ValueError are
    configuration errors and pass through."""
    try:
        yield
    except NumericalError as e:
        e.args = (f"{what}: {e}",)
        raise
    except (ArithmeticError, ValueError) as e:
        if isinstance(e, ValueError) and type(e) is not ValueError:
            raise
        raise NumericalError(f"{what}: {e}") from e


# Relative singularity cutoff of the hk system: hk_omega, the elimination
# stage of hk_step, and the seed of symmetric_step_euler, the same system at
# gamma = 0 and g = 0 written out as one 3x3 system, pass solve3 the cutoff
# that makes the 6x6 system singular when |det6| <= SINGULAR_RTOL * ||M||_F ** 6.
SINGULAR_RTOL = 1e-14


def solve3(a, b, cutoff: float) -> tuple[float, float, float]:
    """Solve the 3x3 system a x = b by Cramer's rule: x_j = sum_i (C_ij/det) b_i
    with C the cofactors of a.

    Raises SingularSystemError when |det| is not above `cutoff`; a NaN
    determinant or cutoff included.
    Dividing each cofactor by det before the sum keeps a unit row exact: where
    row k of a is e_k, x_k = b_k.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    if not abs(det) > cutoff:
        raise SingularSystemError(f"system singular to tolerance (|det|={abs(det):.3e}, "
                                  f"cutoff {cutoff:.3e})")
    c10 = a02 * a21 - a01 * a22
    c11 = a00 * a22 - a02 * a20
    c12 = a01 * a20 - a00 * a21
    c20 = a01 * a12 - a02 * a11
    c21 = a02 * a10 - a00 * a12
    c22 = a00 * a11 - a01 * a10
    b0, b1, b2 = b
    return (
        c00 / det * b0 + c10 / det * b1 + c20 / det * b2,
        c01 / det * b0 + c11 / det * b1 + c21 / det * b2,
        c02 / det * b0 + c12 / det * b1 + c22 / det * b2,
    )


def bs_solve(x, v, c: float) -> tuple[float, float, float]:
    """Solve x' - x = c * (x' + x) x v for x'.

    With a = c*v this is (I + K(a)) x' = (I - K(a)) x, the Cayley transform of
    the skew matrix K(a), in closed form:
    x' = x + 2/(1 + |a|^2) * (a x (a x x) - a x x).
    det(I + K(a)) = 1 + |a|^2 >= 1, so the update is never singular, and it
    preserves |x|^2 exactly in exact arithmetic since (x'+x).(x'-x) = 0.
    """
    x0, x1, x2 = x
    v0, v1, v2 = v
    a0, a1, a2 = c * v0, c * v1, c * v2
    t0 = a1 * x2 - a2 * x1
    t1 = a2 * x0 - a0 * x2
    t2 = a0 * x1 - a1 * x0
    k = 2.0 / (1.0 + (a0 * a0 + a1 * a1 + a2 * a2))
    return (
        x0 + k * ((a1 * t2 - a2 * t1) - t0),
        x1 + k * ((a2 * t0 - a0 * t2) - t1),
        x2 + k * ((a0 * t1 - a1 * t0) - t2),
    )
