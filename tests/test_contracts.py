"""Every scheme of `harness.MODELS` keeps the contract it declares there, on
seeded random states:

- `exact`: each declared invariant column holds to roundoff over a run, and
  every other invariant column of the model drifts far above roundoff;
- `reversible`: n steps with h and n with -h come back to the start to
  roundoff at every h checked, or, for a scheme declared not reversible, miss
  it by far more than roundoff;
- `order`: `convergence_study` observes the declared order on every state.

Roundoff grows like a random walk, so a bound on n steps is `roundoff(n)` of
conftest, c*eps*sqrt(n) with c = 8, times the size of what it bounds. On
these states the declared exact columns drift by at most 1.0e-14 (bound
2.5e-14) and the others by 8.7e-7 or more; reversible schemes come back
within 8.7e-15 (bound 1.8e-14), and the smallest median miss of the others
is 8.5e-8 (the RK4 reference); the observed orders are within 0.075 of the
declared ones (bound ORDER_TOL = 0.15).

A scheme that declares no order is left out of the order test. The Euler
`bs` and `symmetric` steps declare none while they leave gamma where it is
(ROADMAP item 2); the strict xfail at the end records the orders they should
show once gamma moves.
"""

import statistics
from functools import cache

import numpy as np
import pytest

from spintops.harness import MODELS, RunConfig, convergence_study, reversal_test, run

from conftest import ORDER_TOL, roundoff

SEED = 20260823
N_STATES = 20
H_DRIFT, N_DRIFT = 0.05, 200
H_TRIP, N_TRIP = (0.01, 0.05), 50
H_ORDER, T_ORDER, N_ORDER_STATES = [0.04, 0.02, 0.01], 1.0, 4
# A scheme declared not reversible misses the start, in the median over the
# states at the largest h, by at least this many times the roundoff bound.
IRREVERSIBLE_FACTOR = 1e4
# A column not declared exact drifts, on some state, by at least this many
# times the roundoff bound.
DRIFT_FACTOR = 100.0

PAIRS = [(model, scheme) for model in MODELS for scheme in MODELS[model].schemes]
ORDERED = [(model, scheme) for model, scheme in PAIRS
           if MODELS[model].schemes[scheme].order is not None]


def unit(rng) -> tuple[float, ...]:
    v = rng.normal(size=3)
    return tuple((v / np.linalg.norm(v)).tolist())


# Random parameters of each model, from the parameters it reads.
PARAMS = {
    "euler": lambda rng: dict(inertia=tuple(rng.uniform(0.5, 3.0, 3).tolist())),
    "lagrange": lambda rng: dict(vertical=unit(rng)),
    "kowalevski": lambda rng: dict(c0=float(rng.uniform(0.5, 2.0))),
    "general": lambda rng: dict(inertia=tuple(rng.uniform(0.5, 3.0, 3).tolist()),
                                gravity=tuple(rng.normal(size=3).tolist())),
}


@cache
def drift_runs(model: str, scheme: str) -> list:
    """N_STATES runs of N_DRIFT steps at H_DRIFT from random states and
    parameters: the first three components standard normal, the last three
    uniform on the unit sphere. Every second Kowalevski state has
    |omega_2| <= 1e-4, near the real axis, where the square-root recovery
    must keep the nearer root for a step to move omega by O(h)."""
    rng = np.random.default_rng(SEED)
    runs = []
    for i in range(N_STATES):
        first = rng.normal(size=3)
        if model == "kowalevski" and i % 2:
            first[1] = rng.uniform(-1e-4, 1e-4)
        runs.append(run(RunConfig(model, scheme, H_DRIFT, N_DRIFT,
                                  init=(*first.tolist(), *unit(rng)), **PARAMS[model](rng))))
    return runs


@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
def test_exact_columns(pair):
    model, scheme = pair
    names = MODELS[model].invariant_names
    exact = MODELS[model].schemes[scheme].exact
    assert set(exact) <= set(names)
    bound = roundoff(N_DRIFT)
    worst = dict.fromkeys(names, 0.0)
    for traj in drift_runs(model, scheme):
        for name in names:
            col = traj.values(name)
            drift = max(abs(v - col[0]) for v in col) / max(1.0, abs(col[0]))
            worst[name] = max(worst[name], drift)
    assert all(worst[name] <= bound if name in exact else worst[name] >= DRIFT_FACTOR * bound
               for name in names), worst


@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
def test_reversibility(pair):
    model, scheme = pair
    bound = roundoff(2 * N_TRIP)
    trips = {h: [reversal_test(traj.config._replace(h=h, steps=N_TRIP))
                 / max(1.0, *map(abs, traj.config.init)) for traj in drift_runs(model, scheme)]
             for h in H_TRIP}
    if MODELS[model].schemes[scheme].reversible:
        assert all(max(errors) <= bound for errors in trips.values()), trips
    else:
        assert statistics.median(trips[max(H_TRIP)]) >= IRREVERSIBLE_FACTOR * bound, trips


@pytest.mark.slow
@pytest.mark.parametrize("pair", ORDERED, ids="/".join)
def test_order(pair):
    model, scheme = pair
    order = MODELS[model].schemes[scheme].order
    for traj in drift_runs(model, scheme)[:N_ORDER_STATES]:
        rows = convergence_study(traj.config, H_ORDER, T_ORDER)
        assert rows[0][2] is None
        observed = [o for _, _, o in rows[1:]]
        assert all(abs(o - order) <= ORDER_TOL for o in observed), (traj.config, observed)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the free-top bs and symmetric steps "
                                       "leave gamma where it is, so converge measures order 0")
def test_free_top_orders_once_gamma_moves():
    for scheme, order in [("bs", 1), ("symmetric", 2)]:
        for traj in drift_runs("euler", scheme)[:N_ORDER_STATES]:
            rows = convergence_study(traj.config, H_ORDER, T_ORDER)
            assert all(abs(o - order) <= ORDER_TOL for _, _, o in rows[1:]), (scheme, rows)
