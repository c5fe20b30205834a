"""Bilinear one-step discretization of the full body-frame equations.

Each step is linear in the new (omega, gamma), so the update is a single 6x6
linear solve. The defining relations are invariant under h -> -h with the two
time levels exchanged, which makes the scheme time-reversal symmetric.
"""

from __future__ import annotations

import numpy as np

from .algebra import solve
from .models import TopParams


def assemble_system(y: np.ndarray, p: TopParams, h: float) -> tuple[np.ndarray, np.ndarray]:
    """6x6 matrix and right-hand side; unknown ordering (w1, w2, w3, g1, g2, g3)."""
    w, gam = y[:3], y[3:]
    gv = p.g
    a1 = h * (p.B - p.C) / (2.0 * p.A)
    a2 = h * (p.C - p.A) / (2.0 * p.B)
    a3 = h * (p.A - p.B) / (2.0 * p.C)
    b1 = h / (2.0 * p.A)
    b2 = h / (2.0 * p.B)
    b3 = h / (2.0 * p.C)
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


def hk_step(y: np.ndarray, p: TopParams, h: float) -> np.ndarray:
    """Advance y = (omega, gamma) by one bilinear step (one 6x6 solve)."""
    mat, rhs = assemble_system(y, p, h)
    return solve(mat, rhs)


def hk_step_euler(omega: np.ndarray, p: TopParams, h: float) -> np.ndarray:
    """Free-top bilinear step in omega alone: the omega block of hk_step's
    system at gamma = 0, which carries no gravity term for any p."""
    mat, rhs = assemble_system(np.concatenate([omega, np.zeros(3)]), p, h)
    return solve(mat[:3, :3], rhs[:3])
