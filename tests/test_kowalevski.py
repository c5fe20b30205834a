import cmath

import numpy as np
import pytest

from spintops.kowalevski import (
    bohlin_stage,
    bohlin_stepper,
    gamma_step_bs,
    gamma_step_rotation,
    gamma_step_stereo,
    hybrid_stepper,
)
from spintops.models import xi

from conftest import bohlin_reversal_defect, cramer_solve3, cross, skew_apply_matrix, vec3

C0 = 1.0
BENCH = np.array([2, 0, 0, np.sqrt(1 - 0.001**2), 0, 0.001])


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestGammaStepBs:
    def test_zero_step(self):
        g = vec3(0.4, 0.1, 0.9)
        assert np.allclose(gamma_step_bs(g, vec3(1, 2, 3), 0.0), g, atol=1e-16)

    def test_parallel_omega_fixed(self):
        g = vec3(0.6, 0.0, 0.8)
        assert np.allclose(gamma_step_bs(g, 3.0 * g, 0.1), g, atol=1e-14)

    def test_oracle_value_and_norm(self):
        g, w, h = vec3(1, 0, 0), vec3(0, 0, 1), 0.1
        out = gamma_step_bs(g, w, h)
        lhs = np.eye(3) + 0.5 * h * skew_apply_matrix(w)
        expected = cramer_solve3(lhs, g + 0.5 * h * cross(g, w))
        assert np.max(np.abs(out - expected)) <= 1e-14
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-14

    def test_norm_preserved_random(self, rng):
        for _ in range(50):
            g = random_unit(rng)
            out = np.array(gamma_step_bs(g, rng.normal(size=3), 0.05))
            assert abs(out @ out - 1.0) <= 1e-13


class TestStereo:
    # At h = 0 gamma_step_stereo is the chart map z = (g1 + i g2)/(1 + g3)
    # followed by its inverse.
    def test_north_pole(self):
        assert gamma_step_stereo((0.0, 0.0, 1.0), (1.0, -1.0, 2.0), 0.0) == (0.0, 0.0, 1.0)

    def test_equator_points(self):
        assert gamma_step_stereo((1.0, 0.0, 0.0), (1.0, -1.0, 2.0), 0.0) == (1.0, 0.0, 0.0)
        assert gamma_step_stereo((0.0, 1.0, 0.0), (1.0, -1.0, 2.0), 0.0) == (0.0, 1.0, 0.0)

    def test_round_trip(self, rng):
        # Over the whole sphere: gamma_3 < -1/2 runs in the second chart.
        seen = set()
        for _ in range(100):
            g = random_unit(rng)
            seen.add(g[2] < -0.5)
            back = gamma_step_stereo(g, rng.normal(size=3), 0.0)
            assert np.max(np.abs(back - g)) <= 1e-14
        assert seen == {False, True}

    def test_inverse_lands_on_sphere(self, rng):
        # g = (Re z, Im z, 0) maps to z, so any z reaches the inverse map.
        for _ in range(50):
            z = complex(*rng.normal(size=2) * 3)
            g = np.array(gamma_step_stereo((z.real, z.imag, 0.0), (1.0, -1.0, 2.0), 0.0))
            assert abs(g @ g - 1.0) <= 1e-15


class TestGammaStepStereo:
    def test_zero_step(self):
        g = vec3(0.6, 0.0, 0.8)
        assert np.allclose(gamma_step_stereo(g, vec3(1, -1, 2), 0.0), g, atol=1e-15)

    def test_vertical_rotation_fixes_pole(self):
        g = vec3(0, 0, 1)
        assert np.allclose(gamma_step_stereo(g, vec3(0, 0, 5.0), 0.01), g, atol=1e-15)

    def test_agrees_with_bs_to_second_order(self):
        out_b = np.array(gamma_step_stereo(BENCH[3:], BENCH[:3], 0.001))
        out_a = np.array(gamma_step_bs(BENCH[3:], BENCH[:3], 0.001))
        assert np.max(np.abs(out_b - out_a)) <= 1e-5

    def test_unit_norm_exact(self, rng):
        # Over the whole sphere: gamma_3 < -1/2 runs in the second chart.
        for _ in range(50):
            g = random_unit(rng)
            out = np.array(gamma_step_stereo(g, rng.normal(size=3), 0.05))
            assert abs(out @ out - 1.0) <= 1e-14

    def test_second_chart_agrees_with_bs_to_second_order(self):
        # gamma_3 < -1/2: the substep runs in the chart about the south pole.
        g, w = vec3(0.3, 0.4, -0.8) / np.sqrt(0.89), vec3(1.2, -1.0, 0.8)
        out_b = np.array(gamma_step_stereo(g, w, 0.001))
        out_a = np.array(gamma_step_bs(g, w, 0.001))
        assert np.max(np.abs(out_b - out_a)) <= 1e-5

    def test_south_pole_lands_on_sphere(self):
        # gamma_3 < -1/2 runs in the second chart, which the south pole is the
        # centre of.
        out = np.array(gamma_step_stereo(vec3(0, 0, -1.0), vec3(1, 0, 0), 0.01))
        assert abs(out @ out - 1.0) <= 1e-15


class TestGammaStepRotation:
    def test_zero_step(self):
        g = vec3(0.1, 0.2, 0.97)
        assert np.array_equal(gamma_step_rotation(g, vec3(1, 2, 3), 0.0), g)

    def test_quarter_turn(self):
        h = 0.01
        w = vec3(0, 0, np.pi / (2 * h))
        assert np.allclose(gamma_step_rotation(vec3(1, 0, 0), w, h), vec3(0, -1, 0), atol=1e-15)

    def test_agrees_with_bs_to_second_order(self):
        out_c = np.array(gamma_step_rotation(BENCH[3:], BENCH[:3], 0.001))
        out_a = np.array(gamma_step_bs(BENCH[3:], BENCH[:3], 0.001))
        assert np.max(np.abs(out_c - out_a)) <= 1e-5

    def test_norm_preserved(self, rng):
        for _ in range(50):
            g = random_unit(rng)
            out = np.array(gamma_step_rotation(g, rng.normal(size=3), 0.05))
            assert abs(out @ out - 1.0) <= 1e-13

    def test_exact_angle_matches_rodrigues(self, rng):
        # Rodrigues' formula for the rotation of g by the angle t about -n,
        # n = omega/|omega|, t = h|omega|: first order g + h g x omega.
        for t in [1e-13, 1e-8, 1e-3, 0.5, 2.0, 3.0, 4.0]:
            for _ in range(20):
                g, n = rng.normal(size=3), random_unit(rng)
                h = rng.uniform(0.5, 2.0)
                expected = g * np.cos(t) + cross(g, n) * np.sin(t) + n * (n @ g) * (1 - np.cos(t))
                out = gamma_step_rotation(g, (t / h) * n, h)
                assert np.max(np.abs(out - expected)) <= 1e-14 * np.linalg.norm(g), t

    def test_inverse_is_negated_step(self, rng):
        for _ in range(20):
            g, w = rng.normal(size=3), rng.normal(size=3)
            back = gamma_step_rotation(gamma_step_rotation(g, w, 0.7), w, -0.7)
            assert np.max(np.abs(back - g)) <= 1e-14 * np.linalg.norm(g)

    def test_sign_convention_first_order(self):
        # (gamma' - gamma) / h -> gamma x omega, first order in h
        w = vec3(0.3, -1.1, 0.7)
        g = vec3(0.2, 0.9, -0.4)
        errs = []
        for h in (1e-3, 5e-4):
            d = (gamma_step_rotation(g, w, h) - g) / h - cross(g, w)
            errs.append(np.max(np.abs(d)))
        assert errs[0] < 1e-2
        assert errs[1] < 0.6 * errs[0]  # first-order decay


def omega3_after_step(omega3, gamma2_n, gamma2_next, h, c0):
    """w3 after one bohlin_stepper step whose gamma stage moves gamma_2 from
    gamma2_n to gamma2_next."""
    step = bohlin_stepper(c0, h, lambda gamma, omega, h: (0.6, gamma2_next, 0.8))
    return step((1.2, 0.3, omega3, 0.6, gamma2_n, 0.8))[2]


class TestOmega3Update:
    # The trapezoidal update w3' = w3 - (h/2) c0 (gamma2' + gamma2).
    def test_no_gamma2_no_change(self):
        assert omega3_after_step(1.7, 0.0, 0.0, 0.1, 1.0) == 1.7

    def test_direct_arithmetic(self):
        w3_next = omega3_after_step(0.0, 1.0, 1.0, 0.1, 1.0)
        assert w3_next == 0.0 - 0.5 * 0.1 * 1.0 * (1.0 + 1.0)
        assert w3_next == pytest.approx(-0.1, abs=1e-16)

    def test_affine_reversal(self):
        w3_next = omega3_after_step(0.35, 0.2, 0.7, 0.05, 1.0)
        w3_back = omega3_after_step(w3_next, 0.7, 0.2, -0.05, 1.0)
        assert w3_back == pytest.approx(0.35, abs=1e-16)


class TestBohlinStep:
    def test_stationary_phase_returns_omega(self):
        w = 1.5 + 0.2j
        g = 0.3 + 0.1j
        out = bohlin_stage(1.0, 0.001)((w.real, w.imag, 0.0, g.real, g.imag, 0.5),
                                       (g.real, g.imag, 0.5), 0.0)
        assert abs(complex(*out[:2]) - w) <= 1e-13

    def test_negative_real_radicand_positive_branch(self):
        # Z = -1 with predictor in the upper half plane -> +i
        out = bohlin_stage(1.0, 0.001)((0.0, 1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0)
        assert abs(complex(*out[:2]) - 1j) <= 1e-13

    def test_xi_modulus_exact(self, rng):
        recover = bohlin_stage(1.0, 0.01)
        for _ in range(50):
            w = complex(*rng.normal(size=2))
            g = complex(*rng.normal(size=2))
            gn = complex(*rng.normal(size=2))
            w3, w3n = rng.normal(size=2)
            y = (w.real, w.imag, w3, g.real, g.imag, rng.normal())
            out = complex(*recover(y, (gn.real, gn.imag, 0.0), w3n)[:2])
            assert abs(abs(out**2 - gn) - abs(w**2 - g)) <= 1e-13

    def test_matches_the_complex_form_bit_for_bit(self, rng):
        # The recovery as it read on complex arguments, before it took and
        # returned the packed state; it tests the root by |-w - p|, the stage
        # by |w + p|.
        def complex_form(omega_n, gamma_n, gamma_next, gamma3_n, omega3_n, omega3_next, h, c0):
            chi = 0.5 * h * (omega3_next + omega3_n)
            z = cmath.exp(-1j * chi) * (omega_n * omega_n - c0 * gamma_n) + c0 * gamma_next
            w = cmath.sqrt(z)
            if w == 0:
                return w
            predictor = omega_n - 0.5j * h * (omega3_n * omega_n - c0 * gamma3_n)
            if abs(w - predictor) > abs(-w - predictor):
                w = -w
            return w

        cases = [((2.0, 0.0, 0.5, 0.3, 0.1, 0.9), (0.3, 0.1 - 1e-8, 0.9), 0.5, 0.0, 1.0),
                 ((0.0, 0.0, 0.5, 0.0, 0.0, 0.9), (0.0, 0.0, 1.0), 0.5, 0.01, 1.0),
                 ((0.0, -0.0, -0.5, -0.0, 0.0, 0.9), (-0.0, 0.0, 1.0), 0.5, -0.01, 1.0)]
        for _ in range(2000):
            y, gn = rng.normal(size=6).tolist(), rng.normal(size=3).tolist()
            w3n, h, c0 = rng.normal(), rng.choice([1e-3, -1e-2, 0.05, 0.0]), rng.choice([1.0, 0.7])
            cases.append((y, gn, w3n, float(h), float(c0)))
        for y, gn, w3n, h, c0 in cases:
            want = complex_form(complex(y[0], y[1]), complex(y[3], y[4]), complex(gn[0], gn[1]),
                                y[5], y[2], w3n, h, c0)
            got = bohlin_stage(c0, h)(y, gn, w3n)
            assert list(map(float.hex, got)) == \
                list(map(float.hex, (want.real, want.imag, w3n, *gn))), (y, gn, w3n, h, c0)

    def test_phase_update_matches_reference_flow(self):
        # one-step trapezoidal phase vs a tiny-step reference integration
        from spintops.harness import RunConfig, run

        h = 0.001
        cfg = RunConfig(model="kowalevski", scheme="reference", h=h / 100, steps=100, stride=100)
        y_ref = run(cfg).states[-1]
        xi_ref = xi(y_ref, C0)
        chi = 0.5 * h * (y_ref[2] + BENCH[2])
        xi_trap = cmath.exp(-1j * chi) * xi(BENCH, C0)
        assert abs(xi_trap - xi_ref) <= 5.0 * h**3


class TestBohlinAlgorithmStep:
    def test_zero_step_is_identity(self):
        out = bohlin_stepper(C0, 0.0, gamma_step_bs)(BENCH)
        assert np.max(np.abs(out - BENCH)) <= 1e-15

    def test_reversal_defect_leading_term(self, rng):
        # One forward/backward pair leaves h^2 d(y) + O(h^3); worst relative
        # error over these 300 states measured 6.8e-3 at h=1e-3 and 6.8e-4 at h=1e-4.
        states = []
        while len(states) < 300:
            w = rng.normal(size=3)
            if abs(complex(w[0], w[1])) >= 0.5:
                states.append(np.concatenate([w, random_unit(rng)]))

        def worst_rel(h):
            worst = 0.0
            forward = bohlin_stepper(C0, h, gamma_step_bs)
            backward = bohlin_stepper(C0, -h, gamma_step_bs)
            for y in states:
                pair = backward(forward(y)) - y
                lead = h * h * bohlin_reversal_defect(y[:3], y[3:], C0)
                worst = max(worst, np.linalg.norm(pair - lead) / np.linalg.norm(lead))
            return worst

        rel_3, rel_4 = worst_rel(1e-3), worst_rel(1e-4)
        assert rel_3 <= 5e-2
        assert rel_4 <= rel_3 / 8.0


class TestHybridStep:
    def test_zero_step_is_identity(self):
        out = hybrid_stepper(C0, 0.0)(BENCH)
        assert np.max(np.abs(out - BENCH)) <= 1e-15

    def test_root_kept_when_arguments_straddle_zero(self):
        # The root 2 - 2.5e-9j and the predictor, exactly 2, lie on opposite
        # sides of the real axis. A rule comparing argument signs took the far
        # root -2 + 2.5e-9j here; the nearest root is kept.
        out = bohlin_stage(1.0, 0.0)((2.0, 0.0, 0.5, 0.3, 0.1, 0.9), (0.3, 0.1 - 1e-8, 0.9), 0.5)
        assert out == (2.0, -2.4999999986841104e-9, 0.5, 0.3, 0.1 - 1e-8, 0.9)
        back = hybrid_stepper(C0, -0.001)(hybrid_stepper(C0, 0.001)(BENCH))
        assert np.max(np.abs(back - BENCH)) <= 1e-13


@pytest.mark.slow
@pytest.mark.parametrize(
    "stepper",
    [
        lambda h: bohlin_stepper(C0, h, gamma_step_bs),
        lambda h: bohlin_stepper(C0, h, gamma_step_stereo),
        lambda h: bohlin_stepper(C0, h, gamma_step_rotation),
        lambda h: hybrid_stepper(C0, h),
    ],
    ids=["bohlin-a", "bohlin-b", "bohlin-c", "hybrid"],
)
def test_one_step_moves_omega_by_order_h_near_real_axis(stepper):
    # w1 + i*w2 within 1e-4 of the real axis, where the root and the predictor
    # may straddle it: taking the far root would move (w1, w2) by 2|w1|.
    # The worst ratio of the move to its bound measured 0.436.
    rng = np.random.default_rng(12345)
    h = 1e-3
    step = stepper(h)
    n = 0
    while n < 5000:
        g = random_unit(rng)
        if g[2] <= -0.9:
            continue
        n += 1
        w = rng.normal(size=3)
        w[1] = rng.uniform(-1e-4, 1e-4)
        out = step(np.concatenate([w, g]))
        bound = 2.0 * h * (1.0 + np.max(np.abs(w))) ** 2
        assert np.max(np.abs(out[:3] - w)) <= bound, (w, g)
