"""Discrete steps for the reduced A=B=2, C=1 top with gravity along x.

Three unit-sphere-preserving updates for gamma (midpoint solve, stereographic
Euler substep, exact rotation), an exact phase-factor update for
xi = omega^2 - c0*gamma recovered through a complex square root, keeping the
root nearer a one-step predictor, and a hybrid predictor-corrector that keeps
both |gamma|^2 and |xi|^2 exact but is not time-reversal symmetric. Each
step, and the recovery stage they share, takes the packed state
(omega, gamma) as any sequence of six floats and returns a tuple of six; the
one parameter is the float c0. `bohlin_stage`, `bohlin_stepper` and
`hybrid_stepper` take c0 and h and return a function of the state alone.

The stereographic substep and the recovery stage do their complex arithmetic
in real and imaginary parts, with the operation order of the complex-number
forms, so on finite inputs they return values equal as floats to those forms'
(a zero may change its sign), except where the root choice of `bohlin_stage`
differs. A complex number is made only for cmath.exp, cmath.sqrt and the
complex abs of |z|.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from .algebra import bs_solve
from .hk import hk_omega_stage
from .models import KOWALEVSKI_INERTIA


def gamma_step_bs(gamma, omega, h: float) -> tuple[float, float, float]:
    """gamma' - gamma = (h/2)(gamma' + gamma) x omega; preserves |gamma|."""
    return bs_solve(gamma, omega, 0.5 * h)


def gamma_step_stereo(gamma, omega, h: float) -> tuple[float, float, float]:
    """One explicit Euler substep of dz/dt = (i/2)(w - 2*w3*z - conj(w)*z^2)
    in the stereographic variable, mapped back to the sphere.

    The inverse map lands on the unit sphere by construction, so |gamma'| = 1
    regardless of the substep error. The substep is unstable near the south
    pole, so for gamma_3 < -1/2 it runs in the second chart: on (R gamma,
    R omega) with R = diag(1, -1, -1), the rotation by pi about e1 under which
    gamma_dot = gamma x omega keeps its form, mapped back by R. So |z| <= sqrt(3)
    in the chart in use.

    z is carried as its real and imaginary parts, in the operation order of
    the complex form, and |z| is abs(complex(zr, zi)), the libm hypot; so
    each output equals, as a float, what the complex form returns.
    math.hypot rounds differently in about 1 case of 200.
    """
    g0, g1, g2 = gamma
    w0, w1, w2 = omega
    if g2 < -0.5:
        n0, n1, n2 = gamma_step_stereo((g0, -g1, -g2), (w0, -w1, -w2), h)
        return n0, -n1, -n2
    # z = (gamma_1 + i*gamma_2) / (1 + gamma_3), and back by
    # gamma_1 + i*gamma_2 = 2z/(1+|z|^2), gamma_3 = (1-|z|^2)/(1+|z|^2).
    s = 1.0 + g2
    zr, zi = g0 / s, g1 / s
    # q = w - 2*w3*z - conj(w)*z^2 and z += h*(i/2)*q
    t = 2.0 * w2
    vr, vi = w0 * zr + w1 * zi, w0 * zi - w1 * zr
    qr = (w0 - t * zr) - (vr * zr - vi * zi)
    qi = (w1 - t * zi) - (vr * zi + vi * zr)
    zr, zi = zr - h * (0.5 * qi), zi + h * (0.5 * qr)
    r = abs(complex(zr, zi)) ** 2
    d = 1.0 + r
    return 2.0 * zr / d, 2.0 * zi / d, (1.0 - r) / d


def gamma_step_rotation(gamma, omega, h: float) -> tuple[float, float, float]:
    """gamma' = exp(-h*K(omega)) gamma: the rotation by exactly t = h|omega|,
    written as the Cayley update bs_solve with |a| = tan(t/2)."""
    w0, w1, w2 = omega
    t0, t1, t2 = h * w0, h * w1, h * w2
    t = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
    return bs_solve(gamma, (t0, t1, t2), math.tan(0.5 * t) / t if t else 0.5)


# Scales p in the root choice when Re(w conj(p)) overflows. A finite square
# root has |w| < 1.6e154, so the scaled products stay finite, and both
# products overflow only when |p| > 1.1e154, so the scaled p is exact.
_SCALE = 2.0 ** -600


def bohlin_stage(c0: float, h: float):
    """The last stage of both steps, bound once for c0 and h: returns
    recover(y, gamma_next, omega3_next), which advances the state
    y = (omega, gamma) to the new gamma and w3, with
    omega' = omega_1' + i*omega_2' recovered from the exact phase update
    xi' = exp(-i*chi) xi, chi = (h/2)(w3' + w3).

    Solves (omega')^2 = exp(-i*chi)(omega^2 - c0*gamma) + c0*gamma' by a
    complex square root, keeping the root nearer the one-step explicit
    predictor p = omega - (i h/2)(w3*omega - c0*gamma3).

    The arithmetic is in real parts: xi's parts as `models._xi_parts` forms them,
    the product with exp(-i*chi) and the predictor in the operation order of
    complex multiplication, so the root is the float the complex form gives.
    The root w is kept when Re(w conj(p)) >= 0 and negated otherwise: since
    |w - p|^2 - |w + p|^2 = -4 Re(w conj(p)), this is the exact form of
    comparing the two distances, with no modulus to overflow; where its two
    products overflow with opposite signs it is summed again with p scaled by
    2**-600. It chooses differently from comparing abs(w - p) with
    abs(w + p) only where those round to the same float or overflow, or w or
    p is not finite.
    """
    half_h = 0.5 * h

    def recover(y, gamma_next, omega3_next: float) -> tuple[float, ...]:
        w0, w1, w2, g0, g1, g2 = y
        n0, n1, n2 = gamma_next
        # exp(-i*chi) by cmath, which is nan, not an error, at chi = +-inf
        e = cmath.exp(-1j * (half_h * (omega3_next + w2)))
        er, ei = e.real, e.imag
        xr = (w0 * w0 - w1 * w1) - c0 * g0
        xi = (w0 * w1 + w1 * w0) - c0 * g1
        w = cmath.sqrt(complex((er * xr - ei * xi) + c0 * n0, (er * xi + ei * xr) + c0 * n1))
        wr, wi = w.real, w.imag
        pr = w0 + half_h * (w2 * w1)
        pi = w1 - half_h * (w2 * w0 - c0 * g2)
        # |w - p|^2 - |w + p|^2 = -4 Re(w conj(p)): keep the nearer root.
        re = wr * pr + wi * pi
        if re != re:
            # inf - inf, or a nan in w or p: the scaled sum has the exact
            # sign for finite w and p
            re = wr * (pr * _SCALE) + wi * (pi * _SCALE)
        if re < 0.0:
            return -wr, -wi, omega3_next, n0, n1, n2
        return wr, wi, omega3_next, n0, n1, n2

    return recover


def bohlin_stepper(c0: float, h: float, gamma_step: Callable):
    """Three-stage step y = (omega, gamma) -> y' as six floats: gamma by
    gamma_step(gamma, omega, h) (one of the sphere-preserving gamma_step_bs,
    _stereo and _rotation), then the trapezoidal w3 update, then the
    square-root recovery of (w1, w2).

    Keeps |gamma|^2 = 1 and |xi|^2 exact; not symmetric under h -> -h since
    the gamma stage uses omega at the old level only. With the Cayley gamma
    stage gamma_step_bs, one forward/backward pair leaves

        Phi_{-h}(Phi_h(y)) - y = h^2 d(y) + O(h^3),
        d_gamma = -gamma x omega_dot,   d_omega3 = 0,
        d(w1 + i w2) = c0 (d_gamma1 + i d_gamma2) / (2 (w1 + i w2)),

    with omega_dot the exact right-hand side. The w3 and phase updates are
    symmetric and add nothing at this order. So n steps out and back at fixed
    T = n*h miss the start by O(h). At the default initial data gamma is
    nearly parallel to omega and omega_dot ~ (0, c0*gamma_3/2, 0), so
    |d| = 5.0e-4 there, against a median of order 1 over random states; this is
    why the 1000-step round trip at h = 1e-3 is only 9.3e-7.
    """
    recover = bohlin_stage(c0, h)
    half_h_c0 = 0.5 * h * c0

    def step(y) -> tuple[float, ...]:
        w0, w1, w2, g0, g1, g2 = y
        gam_next = gamma_step((g0, g1, g2), (w0, w1, w2), h)
        # the trapezoidal update w3' = w3 - (h/2) c0 (gamma2' + gamma2)
        return recover(y, gam_next, w2 - half_h_c0 * (gam_next[1] + g1))

    return step


def hybrid_stepper(c0: float, h: float):
    """Predictor-corrector step y -> y' as six floats: the bilinear 6x6
    predictor's omega' stage, then a midpoint-type re-solve of gamma against
    the averaged omega, then the square-root recovery of (w1, w2).

    Keeps |gamma|^2 = 1 and |xi|^2 exact. The new w3 is the predictor's.
    Not symmetric under h -> -h: 50 steps out and back from 200 random states
    (omega standard normal, gamma uniform on the sphere) miss the start by a
    median of 3.4e-12 (max 5.8e-11) at h = 1e-3, 3.7e-8 (5.0e-7) at h = 1e-2
    and 1.5e-5 (2.6e-4) at h = 5e-2, where hk stays below 7.1e-15. Only at
    the default point, omega_2 = 0, is the 1000-step round trip at h = 1e-3
    as small as 7.0e-14.
    """
    omega_stage = hk_omega_stage(KOWALEVSKI_INERTIA, (c0, 0.0, 0.0), h)
    recover = bohlin_stage(c0, h)
    quarter_h = 0.25 * h

    def step(y) -> tuple[float, ...]:
        w0, w1, w2, g0, g1, g2 = y
        p0, p1, p2, _, _, _, _ = omega_stage(y)
        return recover(y, bs_solve((g0, g1, g2), (p0 + w0, p1 + w1, p2 + w2), quarter_h), p2)

    return step
