"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The long Kowalevski runs (h=0.001, 50000 steps, the default near-vertical initial data)
are shared across criteria through module-scoped fixtures. An invariant that a
scheme keeps exactly stays within roundoff(n) * max(1, |initial value|) over n
steps, roundoff(n) = 8 eps sqrt(n) (conftest).
"""

import math

import numpy as np
import pytest

from spintops.harness import (
    RunConfig,
    convergence_study,
    drift_report,
    estimate_period,
    reversal_test,
    run,
)
from spintops.models import KOWALEVSKI_INERTIA, kowalevski_invariants

from conftest import (bohlin_reversal_defect, componentwise_rhs, jacobian, matrix_form_residual,
                      roundoff, vec3)

H = 0.001
N = 50000


def _check(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _exact(d, n):
    """Whether the drift d of an exact invariant over n steps is roundoff."""
    return d.max_abs_deviation <= roundoff(n) * max(1.0, abs(d.initial))


def _kow_run(scheme):
    return run(RunConfig(model="kowalevski", scheme=scheme, h=H, steps=N, stride=1))


@pytest.fixture(scope="module")
def hk_traj():
    return _kow_run("hk")


@pytest.fixture(scope="module")
def hybrid_traj():
    return _kow_run("hybrid")


@pytest.fixture(scope="module")
def bohlin_a_traj():
    return _kow_run("bohlin-a")


@pytest.mark.slow
def test_criterion_1_hk_k_sq_band(hk_traj):
    k = np.array(hk_traj.values("k_sq"))
    inc = np.diff(k)
    sign_changes = int(np.sum(np.sign(inc[:-1]) != np.sign(inc[1:])))
    # hk is symmetric, so its error is even in h: over the same T = N * H the
    # band width shrinks 4x each time h halves.
    widths = [np.ptp(run(RunConfig(model="kowalevski", scheme="hk", h=h, steps=round(N * H / h),
                                   stride=1)).values("k_sq")) for h in (2 * H, H / 2)]
    ratios = (widths[0] / np.ptp(k), np.ptp(k) / widths[1])
    ok = (9.0000025 <= k.min() and k.max() <= 9.0000115 and sign_changes >= 10
          and all(abs(r - 4.0) <= 0.01 for r in ratios))
    _check(
        1,
        ok,
        f"k^2 in [{k.min():.9f}, {k.max():.9f}], {sign_changes} increment sign changes, "
        f"band width ratios h=2e-3/1e-3 {ratios[0]:.6f} and 1e-3/5e-4 {ratios[1]:.6f}",
    )


def test_criterion_2_initial_invariants():
    # the literal test-point values the decimals were derived from
    y = np.array([2, 0, 0, 0.9999995, 0, 0.001])
    _, two_ell, energy, k_sq = kowalevski_invariants(y, 1.0)
    ok = (
        abs(k_sq - 9.00000300000025) <= 1e-12
        and abs(energy - 4.9999995) <= 1e-15
        and abs(two_ell - 3.999998) <= 1e-15
    )
    _check(2, ok, f"k^2={k_sq!r}, E={energy!r}, 2l={two_ell!r}")


@pytest.mark.slow
def test_criterion_3_hybrid_exactness(hybrid_traj):
    rep = drift_report(hybrid_traj)
    gamma_dev = rep["gamma_sq"].max_abs_deviation
    k_rel = rep["k_sq"].max_abs_deviation / rep["k_sq"].initial
    ok = _exact(rep["gamma_sq"], N) and _exact(rep["k_sq"], N)
    _check(3, ok, f"max|gamma^2-1|={gamma_dev:.3e}, rel k^2 drift={k_rel:.3e}, "
                  f"bound {roundoff(N):.3e}")


@pytest.mark.slow
def test_criterion_4_bohlin_a_exactness_and_drift(bohlin_a_traj):
    rep = drift_report(bohlin_a_traj)
    gamma_dev = rep["gamma_sq"].max_abs_deviation
    k_rel = rep["k_sq"].max_abs_deviation / rep["k_sq"].initial
    e_drift = rep["E"].max_abs_deviation
    ok = _exact(rep["gamma_sq"], N) and _exact(rep["k_sq"], N) and 1e-9 < e_drift < 1e-2
    _check(
        4,
        ok,
        f"max|gamma^2-1|={gamma_dev:.3e}, rel k^2 drift={k_rel:.3e} (bound {roundoff(N):.3e}), "
        f"E drift={e_drift:.3e}",
    )


@pytest.mark.slow
def test_criterion_5_period_contrast(hk_traj, bohlin_a_traj):
    p_hk = estimate_period(hk_traj.values("g3"), H)
    p_a = estimate_period(bohlin_a_traj.values("g3"), H)
    rel = abs(p_hk - p_a) / p_hk
    ok = rel > 0.05
    _check(5, ok, f"gamma_3 periods {p_hk:.4f} vs {p_a:.4f} ({100 * rel:.1f}% apart)")


@pytest.mark.slow
def test_criterion_5_period_law():
    _period_law(1.0)


@pytest.mark.slow
def test_criterion_5_period_law_at_c0_2():
    _period_law(2.0)


def _period_law(c0):
    # The default point lies next to the equilibrium y* = (2, 0, 0, 1, 0, 0),
    # omega || gamma || e1, a saddle: for 0 < c0 < 4 its Jacobian has
    # eigenvalues +-i sqrt(4 - c0), +-sqrt(c0 / 2) and 0 twice, so lambda is
    # 1/sqrt(2) at c0 = 1 and 1 at c0 = 2. Near a saddle of rate lambda a
    # period grows like ln(1/delta) / lambda, with delta the distance from the
    # separatrix, and bohlin-a's O(h) drift of E and 2l sets delta. So
    # quartering h adds ln 4 / lambda to bohlin-a's gamma_3 period.
    rhs = lambda y: componentwise_rhs(y, KOWALEVSKI_INERTIA, (c0, 0.0, 0.0))
    lam = max(np.linalg.eigvals(jacobian(rhs, (2.0, 0.0, 0.0, 1.0, 0.0, 0.0))).real)
    t_end, dt = 60.0, 1e-3
    periods = [estimate_period(run(RunConfig(model="kowalevski", scheme="bohlin-a", h=h,
                                             steps=round(t_end / h), stride=round(dt / h),
                                             c0=c0)).values("g3"), dt)
               for h in (1e-3, 2.5e-4)]
    gap, law = periods[1] - periods[0], math.log(4.0) / lam
    ok = abs(gap - law) <= 0.02 * law
    _check(5, ok, f"c0 = {c0}: bohlin-a gamma_3 periods {periods[0]:.4f} and {periods[1]:.4f} at "
                  f"h=1e-3 and 2.5e-4: gap {gap:.4f} against ln 4/lambda = {law:.4f}, "
                  f"lambda = {lam:.6f}")


@pytest.mark.slow
def test_criterion_6_lagrange_exact_invariants():
    rng = np.random.default_rng(42)
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    init = np.concatenate([rng.normal(size=3), a])
    cfg = RunConfig(model="lagrange", scheme="bs", h=0.01, steps=100000, stride=10,
                    init=init)
    rep = drift_report(run(cfg))
    rels = {
        name: d.max_abs_deviation / max(1.0, abs(d.initial))
        for name, d in rep.items()
    }
    ok = all(_exact(d, cfg.steps) for d in rep.values())
    _check(6, ok, ", ".join(f"{k} rel drift {v:.3e}" for k, v in rels.items())
           + f", bound {roundoff(cfg.steps):.3e}")


@pytest.mark.slow
def test_criterion_7_euler_top_schemes():
    from spintops.euler_lagrange import bs_stepper, symmetric_stepper
    from spintops.hk import hk_stepper

    inertia = (1.0, 2.0, 3.0)
    diag = np.array(inertia)
    gamma = (0.0, 0.0, 1.0)  # rides along unchanged in the free-top steps

    m = vec3(1, 2, 3) * vec3(1, 1, 1)  # m = diag(1,2,3) @ (1,1,1)
    m0_sq = float(m @ m)
    y, step = (1.0, 1.0, 1.0, *gamma), bs_stepper(inertia, 0.01)
    for _ in range(100000):
        y = step(y)
    m = diag * y[:3]
    bs_drift = abs(m @ m - m0_sq)

    def hk_m_drift(h, t_end=20.0):
        w = vec3(1, 1, 1)
        m0 = diag * w
        worst, step = 0.0, hk_stepper(inertia, (0.0, 0.0, 0.0), h)
        for _ in range(round(t_end / h)):
            w = np.array(step((*w, 0.0, 0.0, 0.0))[:3])
            mm = diag * w
            worst = max(worst, abs(float(mm @ mm) - float(m0 @ m0)))
        return worst

    # hk breaks |m|^2, and its drift shrinks about 4x when h halves
    d1 = hk_m_drift(0.02)
    d2 = hk_m_drift(0.01)

    m = diag * vec3(1, 1, 1)
    m0_sq = float(m @ m)
    mw0 = float(m @ (m / diag))
    n_sym = 1000
    y, step = (1.0, 1.0, 1.0, *gamma), symmetric_stepper(inertia, 0.01)
    for _ in range(n_sym):
        y = step(y)
    m = diag * y[:3]
    sym_msq = abs(m @ m - m0_sq)
    sym_mw = abs(m @ (m / diag) - mw0)

    ok = (
        # roundoff(100000) * |m|^2 = 7.9e-12 would be looser than this bound
        bs_drift <= 1e-12
        and d1 > 1e-6 and d2 > 0 and 3.0 <= d1 / d2 <= 5.5
        and sym_msq <= roundoff(n_sym) * max(1.0, m0_sq)
        and sym_mw <= roundoff(n_sym) * max(1.0, mw0)
    )
    _check(
        7,
        ok,
        f"bs |m|^2 drift {bs_drift:.3e}; hk drift {d1:.3e}, ratio {d1 / d2:.2f}; "
        f"symmetric drifts {sym_msq:.3e}/{sym_mw:.3e}",
    )


def test_criterion_8_reversibility():
    # hk is symmetric, so its round trip is roundoff. bohlin-a is not: one
    # pair leaves h^2 d(y) + O(h^3) (see bohlin_stepper), so n pairs
    # at fixed T = n*h leave O(h), and halving h halves the round trip.
    n = 1000
    cfg = RunConfig(model="kowalevski", scheme="hk", h=H, steps=n)
    e_hk = reversal_test(cfg)
    cfg_a = RunConfig(model="kowalevski", scheme="bohlin-a", h=H, steps=n)
    e_a = reversal_test(cfg_a)
    e_a_half = reversal_test(cfg_a._replace(h=H / 2, steps=2 * n))
    ratio = e_a / e_a_half
    y0 = cfg_a.validated().init
    estimate = n * H**2 * np.linalg.norm(bohlin_reversal_defect(y0[:3], y0[3:], cfg_a.c0))
    ok = e_hk <= 1e-9 and e_a > 1e-9 and abs(ratio - 2.0) <= 0.1
    _check(
        8,
        ok,
        f"hk round trip {e_hk:.3e}, bohlin-a round trip {e_a:.3e} "
        f"(leading-order estimate n*h^2*|d(y0)| = {estimate:.3e}), "
        f"ratio at h/2 with T fixed {ratio:.4f} (first order: 2)",
    )


def test_criterion_9_convergence_orders():
    h_list = [0.02, 0.01, 0.005]
    results = {}
    for scheme, expected in [("hk", 2.0), ("hybrid", 2.0), ("bohlin-b", 1.0)]:
        cfg = RunConfig(model="kowalevski", scheme=scheme, h=0.01, steps=1)
        orders = [o for _, _, o in convergence_study(cfg, h_list, 1.0) if o is not None]
        results[scheme] = (expected, orders)
    ok = all(
        abs(o - expected) <= 0.25 for expected, orders in results.values() for o in orders
    )
    detail = "; ".join(
        f"{s}: observed {['%.3f' % o for o in orders]} (expect {e})"
        for s, (e, orders) in results.items()
    )
    _check(9, ok, detail)


def test_criterion_10_matrix_form_residual():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        y = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        inertia, g = rng.uniform(0.5, 3.0, 3), rng.normal(size=3)
        worst = max(worst, matrix_form_residual(y, inertia, g))
    ok = worst <= 1e-13
    _check(10, ok, f"worst commutator-identity residual {worst:.3e}")
