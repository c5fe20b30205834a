import numpy as np
import pytest

from spintops import algebra
from spintops.algebra import NumericalError, SingularSystemError, solve3
from spintops.euler_lagrange import symmetric_stepper
from spintops.harness import RunConfig, make_stepper
from spintops.hk import hk_omega_stage, hk_stepper
from spintops.models import KOWALEVSKI_INERTIA

from conftest import (assemble_system, componentwise_rhs, cramer_solve3, full_pivot_solve,
                      jacobian, vec3)

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
        out = hk_stepper(KOWALEVSKI_INERTIA, KOW_G, 0.0)(y)
        assert np.array_equal(out, y)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 21: at h = 0, z = gamma + (h/2) gamma x "
                                           "omega' forms 0 * inf from this finite state")
    @pytest.mark.parametrize("h", [0.0, -0.0])
    def test_zero_step_is_identity_at_large_components(self, h):
        y = (0.3869, -1e300, -0.4529, -1e300, 1.6516, 0.4257)
        assert hk_stepper((0.6406, 2.3385, 2.8105), (0.3459, -0.5477, 0.5778), h)(y) == y

    def test_free_principal_rotation_fixes_omega(self):
        inertia = (1.0, 2.0, 3.0)
        y = np.array([0, 0, 1.7, 0.3, 0.1, 0.94])
        out = hk_stepper(inertia, NO_G, 0.05)(y)
        assert np.allclose(out[:3], y[:3], atol=1e-15)
        assert bilinear_residual(y, out, inertia, NO_G, 0.05) <= 1e-14

    def test_matches_independent_assembly_and_oracle(self):
        h = 0.001
        out = hk_stepper(KOWALEVSKI_INERTIA, KOW_G, h)(BENCH)
        mat, rhs = assemble_by_probing(BENCH, KOWALEVSKI_INERTIA, KOW_G, h)
        expected = full_pivot_solve(mat, rhs)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_defining_relations_satisfied(self, rng):
        for _ in range(20):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
            out = hk_stepper(inertia, g, 0.01)(y)
            assert bilinear_residual(y, out, inertia, g, 0.01) <= 1e-12

    def test_assembly_matches_probing(self, rng):
        for _ in range(10):
            y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
            inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
            mat, rhs = assemble_system(y, inertia, g, 0.02)
            mat2, rhs2 = assemble_by_probing(y, inertia, g, 0.02)
            assert np.allclose(mat, mat2, atol=1e-14)
            assert np.allclose(rhs, rhs2, atol=1e-14)

    def test_lagrange_params_conserve_omega3_exactly(self, rng):
        # A=B, x0=y0=0: the third omega relation degenerates to w3'=w3
        y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        out = hk_stepper((2.0, 2.0, 1.0), vec3(0, 0, 0.8), 0.02)(y)
        assert out[2] == y[2]
        # and over random C, gravity and h (a Cramer solve that divides
        # after summing loses the exact w3 in about 1 % of these)
        for _ in range(2000):
            inertia, g = (2.0, 2.0, rng.uniform(0.5, 3.0)), vec3(0, 0, rng.normal())
            y = rng.normal(size=6)
            assert hk_stepper(inertia, g, rng.uniform(0.001, 0.5))(y)[2] == y[2]


def random_system(rng):
    """A state, a general heavy top (inertia, g) and a step size h in [-0.05, 1]."""
    inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
    return rng.normal(size=6), inertia, g, rng.uniform(-0.05, 1.0)


def random_top(rng):
    """Inertia, gravity and state of a random general top, as float lists."""
    return (rng.uniform(0.5, 3.0, 3).tolist(), rng.normal(size=3).tolist(),
            rng.normal(size=6).tolist())


def dense_error(y, inertia, g, h, x):
    """Max-norm distance of a step's x from the dense 6x6 solve by complete
    pivoting, relative to the largest component of that solve."""
    want = full_pivot_solve(*assemble_system(np.asarray(y, dtype=float), inertia, g, h))
    return float(np.max(np.abs(np.asarray(x) - want)) / np.max(np.abs(want)))


# A free top with inertia (3, 2, 1) spinning about its middle axis at
# |w2| = sqrt(3), h = 2: the omega block has det 1 - h^2 w2^2 / 12 = 0.
MIDDLE_AXIS = ((0.0, 3.0 ** 0.5, 0.0, 0.0, 0.0, 1.0), (3.0, 2.0, 1.0), NO_G, 2.0)
# A general top at h = 1e9, where the 3x3 system is singular to its cutoff.
GENERAL_1E9 = ((0.3, -1.2, 0.8, 0.6, 0.0, 0.8), (1.0, 2.0, 3.0), (0.5, 0.0, 1.0), 1e9)


class TestBlockSolve:
    # The hk step eliminates gamma' in closed form and solves one 3x3 system; the
    # oracle solves the dense 6x6 by complete pivoting, assembled by
    # conftest.assemble_system.

    def test_identity(self, rng):
        # at h = 0 the system is I x = y
        inertia, g, y = random_top(rng)
        assert np.array_equal(hk_stepper(inertia, g, 0.0)(y), y)

    def test_block_diagonal_matches_solve3(self, rng):
        # Without gravity the omega rows decouple from gamma': the omega block
        # solves alone, and the gamma block then solves with the new omega.
        for _ in range(20):
            inertia, _, y = random_top(rng)
            h = rng.uniform(0.01, 0.5)
            mat, rhs = assemble_system(np.array(y), inertia, NO_G, h)
            x = hk_stepper(inertia, NO_G, h)(y)
            omega = solve3(mat[:3, :3].tolist(), rhs[:3].tolist())
            gamma = solve3(mat[3:, 3:].tolist(), (rhs[3:] - mat[3:, :3] @ omega).tolist())
            assert np.allclose(x[:3], omega, atol=1e-13)
            assert np.allclose(x[3:], gamma, atol=1e-13)

    def test_matches_full_pivot_oracle(self, rng):
        for _ in range(50):
            inertia, g, y = random_top(rng)
            h = rng.uniform(0.01, 0.5)
            mat, rhs = assemble_system(np.array(y), inertia, g, h)
            x = np.array(hk_stepper(inertia, g, h)(y))
            assert np.allclose(x, full_pivot_solve(mat, rhs), atol=1e-12)
            assert np.max(np.abs(mat @ x - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_singular_raises(self):
        for y, inertia, g, h in [MIDDLE_AXIS, GENERAL_1E9]:
            with pytest.raises(SingularSystemError):
                hk_stepper(inertia, g, h)(y)

    def test_verdict_follows_the_accuracy_of_the_solve(self, monkeypatch):
        # The Kowalevski system at h = 1e9 is far from singular relative to
        # the norm of its 3x3 rows: the step returns the dense solve.
        x = hk_stepper(KOWALEVSKI_INERTIA, KOW_G, 1e9)(BENCH)
        assert dense_error(BENCH, KOWALEVSKI_INERTIA, KOW_G, 1e9, x) <= 1e-15
        # The free top's seed of symmetric and the hk step solve the same
        # rows, so they are refused with the same message.
        y, inertia, g, h = MIDDLE_AXIS
        messages = set()
        for step in (hk_stepper(inertia, g, h), symmetric_stepper(inertia, h)):
            with pytest.raises(SingularSystemError) as info:
                step(y)
            messages.add(str(info.value))
        assert len(messages) == 1, messages
        # The general top at h = 1e9 is refused, and with no cutoff its
        # omega' would be 9e-2 off the dense solve.
        y, inertia, g, h = GENERAL_1E9
        with pytest.raises(SingularSystemError):
            hk_stepper(inertia, g, h)(y)
        monkeypatch.setattr(algebra, "SINGULAR_RTOL", 0.0)
        assert dense_error(y, inertia, g, h, hk_stepper(inertia, g, h)(y)) > 1e-2

    def test_matches_dense_oracle(self, rng):
        # measured worst 7.3e-15
        for _ in range(2000):
            y, inertia, g, h = random_system(rng)
            want = full_pivot_solve(*assemble_system(y, inertia, g, h))
            got = hk_stepper(inertia, g, h)(y)
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

    def test_singular_cutoff_is_the_3x3_one(self, rng, monkeypatch):
        # Move the relative cutoff to the median of |det S| / ||S||_F^3 over
        # the sampled systems, S the omega Schur complement of the dense 6x6
        # matrix: the block solve must raise for exactly the half that the
        # 3x3 criterion calls singular.
        systems = [random_system(rng) for _ in range(400)]
        ratios = []
        for y, inertia, g, h in systems:
            mat, _ = assemble_system(y, inertia, g, h)
            schur = mat[:3, :3] - mat[:3, 3:] @ np.linalg.solve(mat[3:, 3:], mat[3:, :3])
            ratios.append(abs(np.linalg.det(schur)) / np.linalg.norm(schur) ** 3)
        rtol = float(np.median(ratios))
        monkeypatch.setattr(algebra, "SINGULAR_RTOL", rtol)
        for (y, inertia, g, h), ratio in zip(systems, ratios):
            if abs(ratio / rtol - 1.0) <= 1e-9:
                continue
            step = hk_stepper(inertia, g, h)
            if ratio > rtol:
                step(y)
            else:
                with pytest.raises(SingularSystemError):
                    step(y)


def loop_form_hk_step(y, inertia, g, h):
    """The hk step as it read when it built the three omega rows in a loop,
    before its omega' stage was split out as hk_omega_stage."""
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
    o0, o1, o2 = solve3(rows, rhs)

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


def unsigned(step):
    """The step with 0.0 added to each float it returns, which maps -0 to +0
    and keeps every other bit, inf and nan: a zero's sign is no part of a
    step's contract."""
    return lambda *args: [x + 0.0 for x in step(*args)]


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


def hk_configs(inertia, g):
    """The validated configs whose hk stepper steps with this inertia and
    gravity vector: general always, euler where every component of g is a
    zero, of either sign, and kowalevski where the body is the reduced top,
    whose gravity (c0, +0, +0) RunConfig.body() forms."""
    init = (0.0,) * 6
    configs = [RunConfig("general", "hk", 0.01, inertia=inertia, gravity=g, init=init)]
    if not any(g):
        configs.append(RunConfig("euler", "hk", 0.01, inertia=inertia, gravity=g, init=init))
    if tuple(inertia) == KOWALEVSKI_INERTIA and [float.hex(e) for e in g[1:]] == ["0x0.0p+0"] * 2:
        configs.append(RunConfig("kowalevski", "hk", 0.01, c0=g[0]))
    return [config.validated() for config in configs]


class TestOmegaStage:
    # The step of hk_stepper is the omega' stage of hk_omega_stage followed by
    # the closed-form gamma' recovery, and a run steps through the same
    # kernel, bound once by make_stepper(cfg, h).

    def test_matches_the_loop_form_bit_for_bit(self, rng):
        # Every bit but a zero's sign matches the loop form; make_stepper and
        # hk_stepper, two bindings of the same source, match in every bit.
        bench = BENCH.tolist()
        cases = [(bench, KOWALEVSKI_INERTIA, KOW_G, h) for h in (0.0, -0.0, 1e-3, -1e-3)]
        # Signed zeros. The loop form keeps the terms of u's zero components
        # (a product with one, or a sum with one), which hk_omega_stage drops,
        # and on these states they set the sign of a zero in the result. They
        # were found by search over components in {0, -0, 1, -1.5}, g in
        # {0, -0, 0.5, -0.5} and h in {+-0.01, +-0}.
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
        errors = [MIDDLE_AXIS,
                  ((1e200, 0.0, 0.0, 1.0, 0.0, 0.0), KOWALEVSKI_INERTIA, KOW_G, 1e-3),
                  ((1e200, 1e200, 1e200, 1.0, 0.0, 0.0), (1.0, 2.0, 3.0), NO_G, 0.01)]
        want = [outcome(loop_form_hk_step, *case) for case in errors]
        assert [w[0] for w in want] == [SingularSystemError, NumericalError, NumericalError]
        assert all(w[1] == "system overflows" for w in want[1:])
        models = set()
        for case in cases + errors + bit_cases(rng, 2400):
            y, inertia, g, h = case
            step = hk_stepper(inertia, g, h)
            assert outcome(unsigned(step), y) == outcome(unsigned(loop_form_hk_step), *case), case
            got = outcome(step, y)
            for cfg in hk_configs(inertia, g):
                assert outcome(make_stepper(cfg, h), y) == got, (cfg.model, case)
                models.add(cfg.model)
        assert models == {"kowalevski", "euler", "general"}

    def test_omega_is_the_first_three_of_the_step(self, rng):
        for y, inertia, g, h in bit_cases(rng, 500):
            assert outcome(hk_omega_stage(inertia, g, h), y)[:3] \
                == outcome(hk_stepper(inertia, g, h), y)[:3], (y, inertia, g, h)


def free_step(w, inertia, h):
    """The hk step at gamma = 0 and g = 0: the free-top bilinear step in omega
    alone."""
    return np.array(hk_stepper(inertia, NO_G, h)((*w, 0.0, 0.0, 0.0))[:3])


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
        full = hk_stepper(inertia, NO_G, 0.03)(y)
        assert np.allclose(free_step(w, inertia, 0.03), full[:3], atol=1e-13)

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


def kahan_determinant_residual(step, inertia, g, y, h):
    """Relative distance of det DPhi(y) from det(I + (h/2) f'(y')) /
    det(I - (h/2) f'(y)), for the step y' = Phi(y) and f the right-hand side,
    all three Jacobians by finite differences."""
    eye = np.eye(6)
    rhs_jacobian = lambda x: jacobian(lambda z: componentwise_rhs(z, inertia, g), x)
    det = np.linalg.det(jacobian(step, y))
    kahan = (np.linalg.det(eye + 0.5 * h * rhs_jacobian(step(y)))
             / np.linalg.det(eye - 0.5 * h * rhs_jacobian(y)))
    return abs(det - kahan) / abs(kahan)


# (inertia, gravity) of the euler, kowalevski (c0 = 1) and general models.
KAHAN_BODIES = {"euler": ((1.0, 2.0, 3.0), NO_G), "kowalevski": (KOWALEVSKI_INERTIA, KOW_G),
                "general": ((1.0, 2.0, 3.0), (0.3, -0.5, 0.7))}


def random_states(rng, n):
    for _ in range(n):
        gamma = rng.normal(size=3)
        yield np.concatenate([rng.uniform(-1.0, 1.0, 3), gamma / np.linalg.norm(gamma)])


class TestKahanMap:
    # hk is Kahan's map of the Euler-Poisson equations, so its Jacobian
    # determinant is det(I + (h/2) f'(y')) / det(I - (h/2) f'(y)) (Celledoni,
    # McLachlan, Owren and Quispel, J. Phys. A 46 (2013) 025201). This checks
    # the elimination with no code shared with the assembly oracle.
    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("model", KAHAN_BODIES)
    def test_jacobian_determinant(self, model, h, rng):
        inertia, g = KAHAN_BODIES[model]
        for y in random_states(rng, 8):
            residual = kahan_determinant_residual(hk_stepper(inertia, g, h), inertia, g, y, h)
            assert residual <= 1e-10, (y, residual)

    @pytest.mark.parametrize("scheme", ["reference", "bohlin-a"])
    def test_other_kowalevski_steps_miss_it(self, scheme, rng):
        # The identity tells Kahan's map apart: at h = 0.1 the RK4 reference
        # and bohlin-a miss it at every state, by 100 times the bound or more.
        inertia, g = KAHAN_BODIES["kowalevski"]
        step = make_stepper(RunConfig("kowalevski", scheme, 0.1, 0).validated(), 0.1)
        best = min(kahan_determinant_residual(lambda x: step(x), inertia, g, y, 0.1)
                   for y in random_states(rng, 8))
        assert best > 1e-8, best
