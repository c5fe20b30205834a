import math

import numpy as np
import pytest

from spintops import hk
from spintops.algebra import SINGULAR_RTOL, NumericalError, SingularSystemError, solve3
from spintops.hk import hk_omega, hk_step
from spintops.models import KOWALEVSKI_INERTIA

from conftest import assemble_system, cramer_solve3, full_pivot_solve, vec3

C0 = 1.0
KOW_G = (C0, 0.0, 0.0)
NO_G = (0.0, 0.0, 0.0)
BENCH = np.array([2, 0, 0, np.sqrt(1 - 0.001**2), 0, 0.001])


def bilinear_residual(y, y_next, inertia, gv, h):
    """The six defining relations evaluated directly (independent of the
    matrix assembly); max-abs residual."""
    w, g = y[:3], y[3:]
    wn, gn = y_next[:3], y_next[3:]
    A, B, C = inertia
    r = np.empty(6)
    r[0] = (wn[0] - w[0]) - h * (B - C) / (2 * A) * (wn[1] * w[2] + w[1] * wn[2]) \
        - h / (2 * A) * (gv[2] * (gn[1] + g[1]) - gv[1] * (gn[2] + g[2]))
    r[1] = (wn[1] - w[1]) - h * (C - A) / (2 * B) * (wn[2] * w[0] + w[2] * wn[0]) \
        - h / (2 * B) * (gv[0] * (gn[2] + g[2]) - gv[2] * (gn[0] + g[0]))
    r[2] = (wn[2] - w[2]) - h * (A - B) / (2 * C) * (wn[0] * w[1] + w[0] * wn[1]) \
        - h / (2 * C) * (gv[1] * (gn[0] + g[0]) - gv[0] * (gn[1] + g[1]))
    r[3] = (gn[0] - g[0]) - h / 2 * (gn[1] * w[2] + g[1] * wn[2] - gn[2] * w[1] - g[2] * wn[1])
    r[4] = (gn[1] - g[1]) - h / 2 * (gn[2] * w[0] + g[2] * wn[0] - gn[0] * w[2] - g[0] * wn[2])
    r[5] = (gn[2] - g[2]) - h / 2 * (gn[0] * w[1] + g[0] * wn[1] - gn[1] * w[0] - g[1] * wn[0])
    return float(np.max(np.abs(r)))


def assemble_by_probing(y, inertia, gv, h):
    """Independent assembly: the relations are affine in the new state, so the
    matrix columns come from probing unit vectors."""
    A, B, C = inertia

    def res_vec(x):
        w, g = y[:3], y[3:]
        wn, gn = x[:3], x[3:]
        return np.array(
            [
                (wn[0] - w[0]) - h * (B - C) / (2 * A) * (wn[1] * w[2] + w[1] * wn[2])
                - h / (2 * A) * (gv[2] * (gn[1] + g[1]) - gv[1] * (gn[2] + g[2])),
                (wn[1] - w[1]) - h * (C - A) / (2 * B) * (wn[2] * w[0] + w[2] * wn[0])
                - h / (2 * B) * (gv[0] * (gn[2] + g[2]) - gv[2] * (gn[0] + g[0])),
                (wn[2] - w[2]) - h * (A - B) / (2 * C) * (wn[0] * w[1] + w[0] * wn[1])
                - h / (2 * C) * (gv[1] * (gn[0] + g[0]) - gv[0] * (gn[1] + g[1])),
                (gn[0] - g[0]) - h / 2 * (gn[1] * w[2] + g[1] * wn[2] - gn[2] * w[1] - g[2] * wn[1]),
                (gn[1] - g[1]) - h / 2 * (gn[2] * w[0] + g[2] * wn[0] - gn[0] * w[2] - g[0] * wn[2]),
                (gn[2] - g[2]) - h / 2 * (gn[0] * w[1] + g[0] * wn[1] - gn[1] * w[0] - g[1] * wn[0]),
            ]
        )

    r0 = res_vec(np.zeros(6))
    cols = [res_vec(e) - r0 for e in np.eye(6)]
    return np.column_stack(cols), -r0


class TestHkStep:
    def test_zero_step_is_identity(self):
        y = np.array([0.4, -1.2, 0.3, 0.1, 0.2, 0.9])
        out = hk_step(y, KOWALEVSKI_INERTIA, KOW_G, 0.0)
        assert np.array_equal(out, y)

    def test_free_principal_rotation_fixes_omega(self):
        inertia = (1.0, 2.0, 3.0)
        y = np.array([0, 0, 1.7, 0.3, 0.1, 0.94])
        out = hk_step(y, inertia, NO_G, 0.05)
        assert np.allclose(out[:3], y[:3], atol=1e-15)
        assert bilinear_residual(y, out, inertia, NO_G, 0.05) <= 1e-14

    def test_matches_independent_assembly_and_oracle(self):
        h = 0.001
        out = hk_step(BENCH, KOWALEVSKI_INERTIA, KOW_G, h)
        mat, rhs = assemble_by_probing(BENCH, KOWALEVSKI_INERTIA, KOW_G, h)
        expected = full_pivot_solve(mat, rhs)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_defining_relations_satisfied(self, rng):
        for _ in range(20):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
            out = hk_step(y, inertia, g, 0.01)
            assert bilinear_residual(y, out, inertia, g, 0.01) <= 1e-12

    def test_assembly_matches_probing(self, rng):
        for _ in range(10):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
            mat, rhs = assemble_system(y, inertia, g, 0.02)
            mat2, rhs2 = assemble_by_probing(y, inertia, g, 0.02)
            assert np.allclose(mat, mat2, atol=1e-14)
            assert np.allclose(rhs, rhs2, atol=1e-14)

    def test_single_step_reversal(self):
        h = 0.001
        back = hk_step(hk_step(BENCH, KOWALEVSKI_INERTIA, KOW_G, h), KOWALEVSKI_INERTIA, KOW_G, -h)
        assert np.max(np.abs(back - BENCH)) <= 1e-10

    def test_accumulated_reversal_1000_steps(self):
        h = 0.001
        y = BENCH
        for _ in range(1000):
            y = hk_step(y, KOWALEVSKI_INERTIA, KOW_G, h)
        for _ in range(1000):
            y = hk_step(y, KOWALEVSKI_INERTIA, KOW_G, -h)
        assert np.max(np.abs(y - BENCH)) <= 1e-9

    def test_second_order_consistency(self):
        # endpoint error vs a tiny-step run of the same scheme
        t_end = 0.5

        def endpoint(h):
            y = BENCH
            for _ in range(round(t_end / h)):
                y = hk_step(y, KOWALEVSKI_INERTIA, KOW_G, h)
            return np.array(y)

        ref = endpoint(1e-4)
        e1 = np.max(np.abs(endpoint(0.01) - ref))
        e2 = np.max(np.abs(endpoint(0.005) - ref))
        assert 3.5 <= e1 / e2 <= 4.5

    def test_lagrange_params_conserve_omega3_exactly(self, rng):
        # A=B, x0=y0=0: the third omega relation degenerates to w3'=w3
        y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        out = hk_step(y, (2.0, 2.0, 1.0), vec3(0, 0, 0.8), 0.02)
        assert out[2] == y[2]
        # and over random C, gravity and h (a Cramer solve that divides
        # after summing loses the exact w3 in about 1 % of these)
        for _ in range(2000):
            inertia, g = (2.0, 2.0, rng.uniform(0.5, 3.0)), vec3(0, 0, rng.normal())
            y = rng.normal(size=6)
            assert hk_step(y, inertia, g, rng.uniform(0.001, 0.5))[2] == y[2]


def random_system(rng):
    """A state, a general heavy top (inertia, g) and a step size h in [-0.05, 1]."""
    inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
    return rng.normal(size=6), inertia, g, rng.uniform(-0.05, 1.0)


class TestBlockSolve:
    # hk_step eliminates gamma' in closed form and solves one 3x3 system; the
    # oracle solves the dense 6x6 by complete pivoting.

    def test_matches_dense_oracle(self, rng):
        # measured worst 7.3e-15
        for _ in range(2000):
            y, inertia, g, h = random_system(rng)
            want = full_pivot_solve(*assemble_system(y, inertia, g, h))
            got = hk_step(y, inertia, g, h)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_det6_is_det3_over_q(self, rng):
        # det of the 6x6 = det of the omega Schur complement * (1 + |s|^2),
        # s = (h/2) omega; measured worst relative difference 9.1e-16
        for _ in range(200):
            y, inertia, g, h = random_system(rng)
            mat, _ = assemble_system(y, inertia, g, h)
            s = 0.5 * h * y[:3]
            schur = mat[:3, :3] - mat[:3, 3:] @ np.linalg.solve(mat[3:, 3:], mat[3:, :3])
            det6 = np.linalg.det(mat)
            assert abs(np.linalg.det(schur) * (1.0 + s @ s) - det6) <= 1e-13 * abs(det6)

    def test_singular_cutoff_is_the_dense_one(self, rng, monkeypatch):
        # Move the relative cutoff to the median of |det6| / ||M||_F^6 over
        # the sampled systems: the block solve must raise for exactly the half
        # that the dense 6x6 criterion calls singular.
        systems = [random_system(rng) for _ in range(400)]
        ratios = []
        for y, inertia, g, h in systems:
            mat, _ = assemble_system(y, inertia, g, h)
            ratios.append(abs(np.linalg.det(mat)) / np.linalg.norm(mat) ** 6)
        rtol = float(np.median(ratios))
        monkeypatch.setattr(hk, "SINGULAR_RTOL", rtol)
        for (y, inertia, g, h), ratio in zip(systems, ratios):
            if abs(ratio / rtol - 1.0) <= 1e-9:
                continue
            if ratio > rtol:
                hk_step(y, inertia, g, h)
            else:
                with pytest.raises(SingularSystemError):
                    hk_step(y, inertia, g, h)


def loop_form_hk_step(y, inertia, g, h):
    """hk_step as it read when it built the three omega rows in a loop, before
    its omega' stage was split out as hk_omega."""
    w0, w1, w2, g0, g1, g2 = y
    A, B, C = inertia
    e0, e1, e2 = g
    hh = 0.5 * h
    k0, k1, k2 = h * (B - C) / (2.0 * A), h * (C - A) / (2.0 * B), h * (A - B) / (2.0 * C)
    b0, b1, b2 = h / (2.0 * A), h / (2.0 * B), h / (2.0 * C)
    s0, s1, s2 = hh * w0, hh * w1, hh * w2
    s_sq = s0 * s0 + s1 * s1 + s2 * s2
    q = 1.0 / (1.0 + s_sq)

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
    if not math.isfinite(fro_sq):
        raise NumericalError(f"hk system overflows (||M||_F^2={fro_sq:.3e})")
    o0, o1, o2 = solve3(rows, rhs, q * SINGULAR_RTOL * fro_sq * fro_sq * fro_sq)

    z0 = g0 + hh * (g1 * o2 - g2 * o1)
    z1 = g1 + hh * (g2 * o0 - g0 * o2)
    z2 = g2 + hh * (g0 * o1 - g1 * o0)
    sz = s0 * z0 + s1 * z1 + s2 * z2
    return (o0, o1, o2, q * (z0 - (s1 * z2 - s2 * z1) + sz * s0),
            q * (z1 - (s2 * z0 - s0 * z2) + sz * s1), q * (z2 - (s0 * z1 - s1 * z0) + sz * s2))


def outcome(step, *args):
    """The floats a step returns, by float.hex, or the type and message of
    what it raises."""
    try:
        return [float.hex(x) for x in step(*args)]
    except NumericalError as e:
        return type(e), str(e)


def bit_cases(rng, n):
    """n random (y, inertia, g, h) cases as Python floats: every fourth at
    gamma = 0 and g = 0, every fourth with one component an exact signed zero,
    h from a set that includes 0 and negative steps."""
    cases = []
    for i in range(n):
        y, inertia, g = rng.normal(size=6).tolist(), rng.uniform(0.5, 3.0, 3).tolist(), \
            rng.normal(size=3).tolist()
        if i % 4 == 1:
            y[3:], g = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        elif i % 4 == 2:
            y[int(rng.integers(6))] = float(rng.choice([0.0, -0.0]))
        cases.append((y, inertia, g, float(rng.choice([0.0, -1e-2, 1e-2, 1e-3, 0.05, 0.3]))))
    return cases


class TestOmegaStage:
    # hk_step is hk_omega followed by the closed-form gamma' recovery.

    def test_matches_the_loop_form_bit_for_bit(self, rng):
        bench = BENCH.tolist()
        cases = [(bench, KOWALEVSKI_INERTIA, KOW_G, h) for h in (0.0, -0.0, 1e-3, -1e-3)]
        # Signed zeros. Each of the twelve terms that a zero component of u
        # adds to the rows (a product with it, or a sum with it) changes the
        # sign of a zero in the result, on at least one of these states, when
        # it is left out. They were found by search over components in
        # {0, -0, 1, -1.5}, g in {0, -0, 0.5, -0.5} and h in {+-0.01, +-0}.
        cases += [(y, (1.0, 2.0, 3.0), g, h) for y, g, h in [
            ((-0.0, -0.0, 1.0, -0.0, -0.0, -0.0), (0.0, 0.0, 0.0), -0.01),
            ((-0.0, -0.0, -1.5, 0.0, 0.0, -0.0), (0.0, 0.0, 0.0), 0.0),
            ((-0.0, 1.0, -0.0, -0.0, -0.0, -0.0), (0.0, 0.0, 0.0), -0.01),
            ((1.0, -0.0, -0.0, -0.0, -0.0, -0.0), (0.0, 0.0, 0.0), -0.01),
            ((0.0, -0.0, -0.0, 0.0, -0.0, 0.0), (-0.0, -0.0, 0.0), 0.01),
            ((-1.5, -0.0, -0.0, 0.0, 0.0, 0.0), (0.0, -0.0, -0.0), 0.0),
            ((-0.0, -0.0, -1.5, 0.0, 0.0, 0.0), (-0.0, -0.0, 0.0), 0.0),
            ((0.0, -0.0, -0.0, 0.0, -0.0, 1.0), (-0.5, 0.0, -0.0), 0.0)]]
        # A system singular to tolerance, and two whose norm overflows: the
        # same exception, with the same message.
        errors = [(bench, KOWALEVSKI_INERTIA, KOW_G, 1e9),
                  ((1e200, 0.0, 0.0, 1.0, 0.0, 0.0), KOWALEVSKI_INERTIA, KOW_G, 1e-3),
                  ((1e200, 1e200, 1e200, 1.0, 0.0, 0.0), (1.0, 2.0, 3.0), NO_G, 0.01)]
        want = [outcome(loop_form_hk_step, *case) for case in errors]
        assert [w[0] for w in want] == [SingularSystemError, NumericalError, NumericalError]
        assert all(w[1].startswith("hk system overflows (") for w in want[1:])
        for case in cases + errors + bit_cases(rng, 2400):
            assert outcome(hk_step, *case) == outcome(loop_form_hk_step, *case), case

    def test_omega_is_the_first_three_of_the_step(self, rng):
        for case in bit_cases(rng, 500):
            assert outcome(hk_omega, *case) == outcome(hk_step, *case)[:3], case


def free_step(w, inertia, h):
    """hk_step at gamma = 0 and g = 0: the free-top bilinear step in omega
    alone."""
    return np.array(hk_step((*w, 0.0, 0.0, 0.0), inertia, NO_G, h)[:3])


class TestHkStepEuler:
    def test_spherical_top_fixed(self, rng):
        w = rng.normal(size=3)
        assert np.allclose(free_step(w, (2.0, 2.0, 2.0), 0.1), w, atol=1e-15)

    def test_principal_axis_fixed_point(self):
        assert np.allclose(free_step(vec3(0, 0, 1.3), (1.0, 2.0, 3.0), 0.1), vec3(0, 0, 1.3),
                           atol=1e-15)

    def test_matches_elimination_oracle(self):
        w = vec3(1, 1, 1)
        h = 0.1
        # free-top bilinear relations w'_i - w_i = a_i (w'_j w_k + w_j w'_k),
        # written out
        A, B, C = inertia = (1.0, 2.0, 3.0)
        a1, a2, a3 = h * (B - C) / (2 * A), h * (C - A) / (2 * B), h * (A - B) / (2 * C)
        mat = np.array([[1.0, -a1 * w[2], -a1 * w[1]],
                        [-a2 * w[2], 1.0, -a2 * w[0]],
                        [-a3 * w[1], -a3 * w[0], 1.0]])
        expected = cramer_solve3(mat, w)
        assert np.max(np.abs(free_step(w, inertia, h) - expected)) <= 1e-12

    def test_matches_omega_block_of_full_step(self, rng):
        inertia = (1.3, 0.9, 2.2)
        w = rng.normal(size=3)
        y = np.concatenate([w, rng.normal(size=3)])
        full = hk_step(y, inertia, NO_G, 0.03)
        assert np.allclose(free_step(w, inertia, 0.03), full[:3], atol=1e-13)

    def test_m_sq_drift_is_nonzero_and_second_order(self):
        # the free-top step breaks |m|^2; drift shrinks ~4x when h halves
        inertia = np.array([1.0, 2.0, 3.0])

        def drift(h, t_end=20.0):
            w = vec3(1, 1, 1)
            m0 = float((inertia * w) @ (inertia * w))
            worst = 0.0
            for _ in range(round(t_end / h)):
                w = free_step(w, inertia, h)
                m = inertia * w
                worst = max(worst, abs(float(m @ m) - m0))
            return worst

        d1 = drift(0.02)
        d2 = drift(0.01)
        assert d1 > 1e-6
        assert 3.0 <= d1 / d2 <= 5.5

    @pytest.mark.parametrize("h", [0.1, 0.01])
    def test_kahan_integrals_conserved(self, h):
        # Hirota-Kimura: with alpha = ((B-C)/A, (C-A)/B, (A-B)/C), each
        # I_ij = (alpha_j w_i^2 - alpha_i w_j^2) / (1 - (h/2)^2 alpha_i alpha_j w_k^2)
        # is an exact integral of the step. Measured spread <= 3.9e-14.
        A, B, C = inertia = (1.0, 2.0, 3.0)
        alpha = np.array([(B - C) / A, (C - A) / B, (A - B) / C])

        def integrals(w):
            return [
                (alpha[j] * w[i] ** 2 - alpha[i] * w[j] ** 2)
                / (1 - (h / 2) ** 2 * alpha[i] * alpha[j] * w[k] ** 2)
                for i, j, k in [(0, 1, 2), (1, 2, 0)]
            ]

        w = vec3(1, 1, 1)
        values = [integrals(w)]
        for _ in range(2000):
            w = free_step(w, inertia, h)
            values.append(integrals(w))
        spread = np.ptp(np.array(values), axis=0)
        assert np.all(spread <= 1e-13), spread
