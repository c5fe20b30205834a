"""Bilinear one-step discretization of the full body-frame equations.

Each step is linear in the new (omega, gamma), so the update is one 6x6 linear
system. The defining relations are invariant under h -> -h with the two time
levels exchanged, which makes the scheme time-reversal symmetric. The step
comes in two stages: the omega' stage eliminates gamma' and solves for omega'
alone, which is all that the hybrid predictor uses, and the step then recovers
gamma' in closed form.

`hk_omega_stage` and `hk_stepper` take the inertia, the gravity vector and h,
compute once every term that depends only on those, and return a function of
the state alone, which takes any sequence of six floats. A gravity vector
(e0, 0, 0), as the Kowalevski and the free top have, binds the omega' stage to
rows without the terms of its two zero components.
"""

from __future__ import annotations

from .algebra import solve3


def hk_omega_stage(inertia, g, h: float):
    """The omega' stage of one bilinear step for inertia (A, B, C) and
    gravity-moment vector g, each a sequence of floats, as a function of
    y = (omega, gamma) that returns (omega', s, q): the three floats of omega'
    followed by s = (h/2) omega and q = 1/(1 + |s|^2), which the gamma'
    recovery reuses. At gamma = 0 and g = 0 it is the free-top step in omega
    alone.

    The omega rows read P omega' + diag(b) g x gamma' = r: P carries the
    new-level partners of the products omega_j omega_k, b_i = h/(2 I_i), and r
    the old-level terms. The gamma rows read
    (I + K(s)) gamma' = gamma + (h/2) gamma x omega', and
    (I + K(s))^-1 = q (I - K(s) + s s^T). Eliminating gamma' leaves one 3x3
    system in omega', which solve3 solves by Cramer's rule, and whose
    singularity and overflow it decides relative to its own Frobenius norm.

    g is tested once, here. Where g[1] and g[2] are zeros of either sign, the
    returned stage uses the axial rows: the general rows without every
    product with, and sum with, those two components, each remaining term
    in the same order, so that every output equals the general stage's as a
    float.
    """
    A, B, C = inertia
    e0, e1, e2 = g
    hh = 0.5 * h
    k0, k1, k2 = h * (B - C) / (2.0 * A), h * (C - A) / (2.0 * B), h * (A - B) / (2.0 * C)
    b0, b1, b2 = h / (2.0 * A), h / (2.0 * B), h / (2.0 * C)

    def omega_stage(y) -> tuple[float, ...]:
        w0, w1, w2, g0, g1, g2 = y
        s0, s1, s2 = hh * w0, hh * w1, hh * w2
        q = 1.0 / (1.0 + (s0 * s0 + s1 * s1 + s2 * s2))

        # Row i of diag(b) K(g) (I + K(s))^-1 is q b_i v^T with v = u + s x u +
        # (s.u) s, u = (i-th unit vector) x g; it enters the omega rows through
        # gamma' as (h/2) q b_i (v x gamma) . omega' + q b_i v . gamma. The rows
        # are written out with u = (0, -e2, e1), (e2, 0, -e0) and (-e1, e0, 0),
        # without the terms of u's zero components, which can change only the
        # sign of a zero.
        su = s2 * e1 - s1 * e2
        v0 = (s1 * e1 + s2 * e2) + su * s0
        v1 = su * s1 - (e2 + s0 * e1)
        v2 = (e1 - s0 * e2) + su * s2
        c = q * b0
        hc = hh * c
        row0 = (1.0 + hc * (v1 * g2 - v2 * g1), hc * (v2 * g0 - v0 * g2) - k0 * w2,
                hc * (v0 * g1 - v1 * g0) - k0 * w1)
        r0 = w0 + b0 * (e2 * g1 - e1 * g2) - c * (v0 * g0 + v1 * g1 + v2 * g2)
        su = s0 * e2 - s2 * e0
        v0 = (e2 - s1 * e0) + su * s0
        v1 = (s2 * e2 + s0 * e0) + su * s1
        v2 = su * s2 - (e0 + s1 * e2)
        c = q * b1
        hc = hh * c
        row1 = (hc * (v1 * g2 - v2 * g1) - k1 * w2, 1.0 + hc * (v2 * g0 - v0 * g2),
                hc * (v0 * g1 - v1 * g0) - k1 * w0)
        r1 = w1 + b1 * (e0 * g2 - e2 * g0) - c * (v0 * g0 + v1 * g1 + v2 * g2)
        su = s1 * e0 - s0 * e1
        v0 = su * s0 - (e1 + s2 * e0)
        v1 = (e0 - s2 * e1) + su * s1
        v2 = (s0 * e0 + s1 * e1) + su * s2
        c = q * b2
        hc = hh * c
        row2 = (hc * (v1 * g2 - v2 * g1) - k2 * w1, hc * (v2 * g0 - v0 * g2) - k2 * w0,
                1.0 + hc * (v0 * g1 - v1 * g0))
        r2 = w2 + b2 * (e1 * g0 - e0 * g1) - c * (v0 * g0 + v1 * g1 + v2 * g2)
        o0, o1, o2 = solve3((row0, row1, row2), (r0, r1, r2))
        return o0, o1, o2, s0, s1, s2, q

    if e1 != 0.0 or e2 != 0.0:
        return omega_stage

    def axial_stage(y) -> tuple[float, ...]:
        # The rows above at g = (e0, 0, 0), without their products with, and
        # sums with, e1 and e2: in row 0, v = 0.
        w0, w1, w2, g0, g1, g2 = y
        s0, s1, s2 = hh * w0, hh * w1, hh * w2
        q = 1.0 / (1.0 + (s0 * s0 + s1 * s1 + s2 * s2))
        row0 = (1.0, -k0 * w2, -k0 * w1)
        su = -s2 * e0
        v0 = su * s0 - s1 * e0
        v1 = s0 * e0 + su * s1
        v2 = su * s2 - e0
        c = q * b1
        hc = hh * c
        row1 = (hc * (v1 * g2 - v2 * g1) - k1 * w2, 1.0 + hc * (v2 * g0 - v0 * g2),
                hc * (v0 * g1 - v1 * g0) - k1 * w0)
        r1 = w1 + b1 * (e0 * g2) - c * (v0 * g0 + v1 * g1 + v2 * g2)
        su = s1 * e0
        v0 = su * s0 - s2 * e0
        v1 = e0 + su * s1
        v2 = s0 * e0 + su * s2
        c = q * b2
        hc = hh * c
        row2 = (hc * (v1 * g2 - v2 * g1) - k2 * w1, hc * (v2 * g0 - v0 * g2) - k2 * w0,
                1.0 + hc * (v0 * g1 - v1 * g0))
        r2 = w2 - b2 * (e0 * g1) - c * (v0 * g0 + v1 * g1 + v2 * g2)
        o0, o1, o2 = solve3((row0, row1, row2), (w0, r1, r2))
        return o0, o1, o2, s0, s1, s2, q

    return axial_stage


def hk_stepper(inertia, g, h: float):
    """One bilinear step y = (omega, gamma) -> (omega', gamma') as six floats,
    for inertia (A, B, C) and gravity-moment vector g, each a sequence of
    floats: omega' from hk_omega_stage, then gamma' in closed form.
    """
    omega_stage = hk_omega_stage(inertia, g, h)
    hh = 0.5 * h

    def step(y) -> tuple[float, ...]:
        o0, o1, o2, s0, s1, s2, q = omega_stage(y)
        _, _, _, g0, g1, g2 = y
        # gamma' = q (z - s x z + (s.z) s) with z = gamma + (h/2) gamma x omega'.
        z0 = g0 + hh * (g1 * o2 - g2 * o1)
        z1 = g1 + hh * (g2 * o0 - g0 * o2)
        z2 = g2 + hh * (g0 * o1 - g1 * o0)
        sz = s0 * z0 + s1 * z1 + s2 * z2
        return (o0, o1, o2, q * (z0 - (s1 * z2 - s2 * z1) + sz * s0),
                q * (z1 - (s2 * z0 - s0 * z2) + sz * s1), q * (z2 - (s0 * z1 - s1 * z0) + sz * s2))

    return step
