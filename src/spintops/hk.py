"""Bilinear one-step discretization of the full body-frame equations.

Each step is linear in the new (omega, gamma), so the update is one 6x6 linear
system. The defining relations are invariant under h -> -h with the two time
levels exchanged, which makes the scheme time-reversal symmetric. The step
takes any sequence of six floats and returns a tuple of six.
"""

from __future__ import annotations

from .algebra import SINGULAR_RTOL, solve3


def hk_step(y, inertia, g, h: float) -> tuple[float, ...]:
    """Advance y = (omega, gamma) by one bilinear step: (omega', gamma') as six
    floats, for inertia (A, B, C) and gravity-moment vector g, each a
    sequence of floats. At gamma = 0 and g = 0 the omega block is the
    free-top step in omega alone.

    The omega rows read P omega' + diag(b) g x gamma' = r: P carries the
    new-level partners of the products omega_j omega_k, b_i = h/(2 I_i), and r
    the old-level terms. The gamma rows read
    (I + K(s)) gamma' = gamma + (h/2) gamma x omega' with s = (h/2) omega, and
    (I + K(s))^-1 = q (I - K(s) + s s^T), q = 1/(1 + |s|^2). Eliminating
    gamma' leaves one 3x3 system in omega', solved by Cramer's rule, with
    det6 = det3 / q. The system counts as singular when
    |det6| <= SINGULAR_RTOL * ||M||_F^6, with ||M||_F the Frobenius norm of
    the 6x6 matrix written out in scalars.
    """
    w0, w1, w2, g0, g1, g2 = y
    A, B, C = inertia
    e0, e1, e2 = g
    hh = 0.5 * h
    k0, k1, k2 = h * (B - C) / (2.0 * A), h * (C - A) / (2.0 * B), h * (A - B) / (2.0 * C)
    b0, b1, b2 = h / (2.0 * A), h / (2.0 * B), h / (2.0 * C)
    s0, s1, s2 = hh * w0, hh * w1, hh * w2
    s_sq = s0 * s0 + s1 * s1 + s2 * s2
    q = 1.0 / (1.0 + s_sq)

    # Row i of diag(b) K(g) (I + K(s))^-1 is q b_i v^T with v = u + s x u +
    # (s.u) s, u = (i-th unit vector) x g; it enters the omega rows through
    # gamma' as (h/2) q b_i (v x gamma) . omega' + q b_i v . gamma.
    rows, rhs = [], []
    for (u0, u1, u2), bi, (p0, p1, p2), ri in zip(
        ((0.0, -e2, e1), (e2, 0.0, -e0), (-e1, e0, 0.0)),
        (b0, b1, b2),
        ((1.0, -k0 * w2, -k0 * w1), (-k1 * w2, 1.0, -k1 * w0), (-k2 * w1, -k2 * w0, 1.0)),
        (w0 + b0 * (e2 * g1 - e1 * g2), w1 + b1 * (e0 * g2 - e2 * g0),
         w2 + b2 * (e1 * g0 - e0 * g1)),
    ):
        su = s0 * u0 + s1 * u1 + s2 * u2
        v0 = u0 + (s1 * u2 - s2 * u1) + su * s0
        v1 = u1 + (s2 * u0 - s0 * u2) + su * s1
        v2 = u2 + (s0 * u1 - s1 * u0) + su * s2
        c = q * bi
        rows.append((p0 + hh * c * (v1 * g2 - v2 * g1), p1 + hh * c * (v2 * g0 - v0 * g2),
                     p2 + hh * c * (v0 * g1 - v1 * g0)))
        rhs.append(ri - c * (v0 * g0 + v1 * g1 + v2 * g2))

    fro_sq = (6.0 + k0 * k0 * (w1 * w1 + w2 * w2) + k1 * k1 * (w0 * w0 + w2 * w2)
              + k2 * k2 * (w0 * w0 + w1 * w1) + b0 * b0 * (e1 * e1 + e2 * e2)
              + b1 * b1 * (e0 * e0 + e2 * e2) + b2 * b2 * (e0 * e0 + e1 * e1)
              + 2.0 * (hh * hh * (g0 * g0 + g1 * g1 + g2 * g2) + s_sq))
    o0, o1, o2 = solve3(rows, rhs, q * SINGULAR_RTOL * fro_sq * fro_sq * fro_sq)

    # gamma' = q (z - s x z + (s.z) s) with z = gamma + (h/2) gamma x omega'.
    z0 = g0 + hh * (g1 * o2 - g2 * o1)
    z1 = g1 + hh * (g2 * o0 - g0 * o2)
    z2 = g2 + hh * (g0 * o1 - g1 * o0)
    sz = s0 * z0 + s1 * z1 + s2 * z2
    return (o0, o1, o2, q * (z0 - (s1 * z2 - s2 * z1) + sz * s0),
            q * (z1 - (s2 * z0 - s0 * z2) + sz * s1), q * (z2 - (s0 * z1 - s1 * z0) + sz * s2))
