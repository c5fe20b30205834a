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
    """
    g0, g1, g2 = gamma
    w0, w1, w2 = omega
    if g2 < -0.5:
        n0, n1, n2 = gamma_step_stereo((g0, -g1, -g2), (w0, -w1, -w2), h)
        return n0, -n1, -n2
    # z = (gamma_1 + i*gamma_2) / (1 + gamma_3), and back by
    # gamma_1 + i*gamma_2 = 2z/(1+|z|^2), gamma_3 = (1-|z|^2)/(1+|z|^2).
    z = complex(g0, g1) / (1.0 + g2)
    w = complex(w0, w1)
    z += h * (0.5j * (w - 2.0 * w2 * z - w.conjugate() * z * z))
    r = abs(z) ** 2
    d = 1.0 + r
    return 2.0 * z.real / d, 2.0 * z.imag / d, (1.0 - r) / d


def gamma_step_rotation(gamma, omega, h: float) -> tuple[float, float, float]:
    """gamma' = exp(-h*K(omega)) gamma: the rotation by exactly t = h|omega|,
    written as the Cayley update bs_solve with |a| = tan(t/2)."""
    w0, w1, w2 = omega
    t0, t1, t2 = h * w0, h * w1, h * w2
    t = math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
    return bs_solve(gamma, (t0, t1, t2), math.tan(0.5 * t) / t if t else 0.5)


def bohlin_stage(c0: float, h: float):
    """The last stage of both steps, bound once for c0 and h: returns
    recover(y, gamma_next, omega3_next), which advances the state
    y = (omega, gamma) to the new gamma and w3, with
    omega' = omega_1' + i*omega_2' recovered from the exact phase update
    xi' = exp(-i*chi) xi, chi = (h/2)(w3' + w3).

    Solves (omega')^2 = exp(-i*chi)(omega^2 - c0*gamma) + c0*gamma' by a
    complex square root, keeping the root nearer the one-step explicit
    predictor omega - (i h/2)(w3*omega - c0*gamma3).
    """
    half_h, half_ih = 0.5 * h, 0.5j * h

    def recover(y, gamma_next, omega3_next: float) -> tuple[float, ...]:
        w0, w1, w2, g0, g1, g2 = y
        n0, n1, n2 = gamma_next
        omega = complex(w0, w1)
        chi = half_h * (omega3_next + w2)
        w = cmath.sqrt(cmath.exp(-1j * chi) * (omega * omega - c0 * complex(g0, g1))
                       + c0 * complex(n0, n1))
        predictor = omega - half_ih * (w2 * omega - c0 * g2)
        # |w + p| is |-w - p| bit for bit: negation is exact.
        if abs(w - predictor) > abs(w + predictor):
            w = -w
        return w.real, w.imag, omega3_next, n0, n1, n2

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
