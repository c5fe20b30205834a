"""Continuous-time rigid-body models: right-hand sides and conserved quantities.

The state is the pair (omega, gamma) in the body frame: angular velocity and
the vertical unit vector. Angular momentum is m = diag(A, B, C) @ omega.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import cross, skew_apply_matrix, vec3


@dataclass(frozen=True)
class TopParams:
    """Moments of inertia (A, B, C) and gravity-moment vector g = mg*(x0, y0, z0)."""

    A: float
    B: float
    C: float
    g: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not (self.A > 0 and self.B > 0 and self.C > 0):
            raise ValueError("moments of inertia must be positive")
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))

    @property
    def inertia(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C])


@dataclass(frozen=True)
class BodyState:
    """(omega, gamma) pair in the body frame."""

    omega: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))

    def packed(self) -> np.ndarray:
        return np.concatenate([self.omega, self.gamma])

    @staticmethod
    def unpacked(y: np.ndarray) -> "BodyState":
        return BodyState(y[:3].copy(), y[3:].copy())


@dataclass(frozen=True)
class KowalevskiParams:
    """Reduced parameters A=B=2, C=1, gravity vector (c0, 0, 0)."""

    c0: float = 1.0

    def top_params(self) -> TopParams:
        return TopParams(2.0, 2.0, 1.0, vec3(self.c0, 0.0, 0.0))


def euler_poisson_rhs(s: BodyState, p: TopParams) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (d omega, d gamma) of the body-frame equations.

    m_dot = m x omega + gamma x g with m = diag(A,B,C) omega, and
    gamma_dot = gamma x omega.
    """
    w, gam = s.omega, s.gamma
    m = p.inertia * w
    dm = cross(m, w) + cross(gam, p.g)
    return dm / p.inertia, cross(gam, w)


def invariants(s: BodyState, p: TopParams) -> tuple[float, float, float]:
    """The three universal conserved quantities (gamma^2, m.gamma, E)."""
    w, gam = s.omega, s.gamma
    m = p.inertia * w
    return float(gam @ gam), float(m @ gam), float(0.5 * (m @ w) + p.g @ gam)


def omega_complex(s: BodyState) -> complex:
    return complex(s.omega[0], s.omega[1])


def gamma_complex(s: BodyState) -> complex:
    return complex(s.gamma[0], s.gamma[1])


def xi(s: BodyState, kp: KowalevskiParams) -> complex:
    """xi = (omega_1 + i*omega_2)^2 - c0*(gamma_1 + i*gamma_2)."""
    return omega_complex(s) ** 2 - kp.c0 * gamma_complex(s)


def kowalevski_invariants(s: BodyState, kp: KowalevskiParams) -> tuple[float, float, float]:
    """(2*ell, E, k^2) in the reduced A=B=2, C=1 form."""
    w, gam = s.omega, s.gamma
    two_ell = 2.0 * (w[0] * gam[0] + w[1] * gam[1]) + w[2] * gam[2]
    energy = w[0] ** 2 + w[1] ** 2 + 0.5 * w[2] ** 2 + kp.c0 * gam[0]
    k_sq = abs(xi(s, kp)) ** 2
    return float(two_ell), float(energy), float(k_sq)


def matrix_form_residual(s: BodyState, p: TopParams) -> float:
    """Max-norm residual of the two commutator identities equivalent to the
    component equations: dM/dt = [Om, M] + [G, Gam] and dGam/dt = [Om, Gam].

    Analytically zero for every state; useful as a consistency check of sign
    conventions.
    """
    dw, dgam = euler_poisson_rhs(s, p)
    m = p.inertia * s.omega
    dm = p.inertia * dw

    # Matrices in the layout K(v).T @ u == u x v.
    M, Om, Gam, G, dM, dGam = (
        skew_apply_matrix(v).T for v in (m, s.omega, s.gamma, p.g, dm, dgam)
    )
    r1 = dM - (Om @ M - M @ Om) - (G @ Gam - Gam @ G)
    r2 = dGam - (Om @ Gam - Gam @ Om)
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
