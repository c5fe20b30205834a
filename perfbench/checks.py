"""Output checks for the benchmark's operations.

Each check returns a list of problems; an empty list means the output is
correct. The checks re-derive everything from the states spintops returns
(or the text and CSV its CLI prints), never from its own invariant columns:

- the exact-invariant contract of each scheme, at the acceptance tolerances;
- finiteness of every state;
- the final state against a value recorded from the parent commit of the
  benchmark (`expected.json`, Kowalevski data and CLI output) or against an
  independent re-implementation below (seeded Euler and Lagrange states);
- each CLI command exits 0 without a traceback.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

# Roundoff bound on a final state, relative to the state's scale. Swapping
# the 3x3 and 6x6 eliminations for np.linalg.solve moves the final states of
# the (at most 10 000-step) checked runs by at most 3e-14.
FINAL_STATE_RTOL = 1e-9
# Relative tolerance on a number the CLI prints with 7 significant digits.
PRINTED_RTOL = 1e-5
# A step counts as a branch flip when (w1, w2) moves by more than this
# multiple of h times the state's scale; an ordinary step moves it by ~h.
BRANCH_FLIP_FACTOR = 50.0

INERTIA = np.array([1.0, 2.0, 3.0])
VERTICAL = np.array([0.0, 0.0, 1.0])
C0 = 1.0


def _rel_dev(values: np.ndarray, scale: np.ndarray | float) -> float:
    return float(np.max(np.abs(values - values[0]) / scale))


def _final_state(y: np.ndarray, want, label: str) -> list[str]:
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(y - want)))
    bound = FINAL_STATE_RTOL * max(1.0, float(np.max(np.abs(want))))
    if not err <= bound:
        return [f"{label}: final state differs from reference by {err:.3e} (bound {bound:.1e})"]
    return []


def branch_flips(states: np.ndarray, h: float) -> int:
    """Steps where (w1, w2) jumps by far more than one step can move it."""
    w12 = states[:, :2]
    jump = np.linalg.norm(np.diff(w12, axis=0), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(states[:-1]), axis=1))
    return int(np.sum(jump > BRANCH_FLIP_FACTOR * abs(h) * scale))


def check_kowalevski(states: np.ndarray, scheme: str, key: str) -> list[str]:
    if not np.all(np.isfinite(states)):
        return [f"{key}: non-finite state"]
    problems = []
    if scheme != "hk":  # bohlin-* and hybrid hold gamma^2 and k^2 exactly
        w, g = states[:, :3], states[:, 3:]
        gamma_sq = np.sum(g * g, axis=1)
        k_sq = np.abs((w[:, 0] + 1j * w[:, 1]) ** 2 - C0 * (g[:, 0] + 1j * g[:, 1])) ** 2
        if not _rel_dev(gamma_sq, 1.0) <= 1e-12:
            problems.append(f"{key}: gamma^2 drift {_rel_dev(gamma_sq, 1.0):.3e} > 1e-12")
        if not _rel_dev(k_sq, k_sq[0]) <= 1e-10:
            problems.append(f"{key}: relative k^2 drift {_rel_dev(k_sq, k_sq[0]):.3e} > 1e-10")
    return problems + _final_state(states[-1], EXPECTED["final_state"][key], key)


def check_euler(states: np.ndarray, scheme: str, want: np.ndarray) -> list[str]:
    label = f"euler/{scheme}"
    if not np.all(np.isfinite(states)):
        return [f"{label}: non-finite state"]
    m = INERTIA * states[:, :3]
    m_sq = np.sum(m * m, axis=1)
    problems = []
    tol = 1e-12 if scheme == "bs" else 1e-11
    if not _rel_dev(m_sq, m_sq[0]) <= tol:
        problems.append(f"{label}: relative |m|^2 drift {_rel_dev(m_sq, m_sq[0]):.3e} > {tol}")
    if scheme == "symmetric":
        m_w = np.sum(m * states[:, :3], axis=1)
        if not _rel_dev(m_w, m_w[0]) <= 1e-11:
            problems.append(f"{label}: relative m.w drift {_rel_dev(m_w, m_w[0]):.3e} > 1e-11")
    return problems + _final_state(states[-1], want, label)


def check_lagrange(states: np.ndarray, h: float, want: np.ndarray) -> list[str]:
    label = "lagrange/bs"
    if not np.all(np.isfinite(states)):
        return [f"{label}: non-finite state"]
    m, a = states[:, :3], states[:, 3:]
    m_norm = np.linalg.norm(m, axis=1)
    a_norm = np.linalg.norm(a, axis=1)
    invariants = {
        # name: (values, the scale their roundoff grows with)
        "a^2": (np.sum(a * a, axis=1), a_norm[0] ** 2),
        "m.p": (m @ VERTICAL, m_norm[0]),
        "m.a": (np.sum(m * a, axis=1), m_norm[0] * a_norm[0]),
        "E": (
            0.5 * np.sum(m * m, axis=1) + a @ VERTICAL + 0.5 * h * (np.cross(a, m) @ VERTICAL),
            0.5 * m_norm[0] ** 2 + a_norm[0],
        ),
    }
    problems = [
        f"{label}: relative {name} drift {_rel_dev(v, s):.3e} > 1e-11"
        for name, (v, s) in invariants.items()
        if not _rel_dev(v, s) <= 1e-11
    ]
    return problems + _final_state(states[-1], want, label)


# --- independent re-implementation of the Euler and Lagrange schemes -------


def _cayley(x: np.ndarray, v: np.ndarray, c: float) -> np.ndarray:
    """x' with x' - x = c (x' + x) x v, by a dense solve."""
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.linalg.solve(np.eye(3) + c * k, x + c * np.cross(x, v))


def oracle_euler(scheme: str, init: np.ndarray, h: float, steps: int) -> np.ndarray:
    a, b, c = INERTIA
    m = INERTIA * init[:3]
    for _ in range(steps):
        w = m / INERTIA
        if scheme == "bs":
            m = _cayley(m, w, 0.5 * h)
            continue
        # bilinear free-top step as the seed, then the fixed point of
        # m' - m = (h/4)(m' + m) x (w' + w)
        k1, k2, k3 = h * (b - c) / (2 * a), h * (c - a) / (2 * b), h * (a - b) / (2 * c)
        mat = np.array([[1.0, -k1 * w[2], -k1 * w[1]],
                        [-k2 * w[2], 1.0, -k2 * w[0]],
                        [-k3 * w[1], -k3 * w[0], 1.0]])
        nxt = INERTIA * np.linalg.solve(mat, w)
        for _ in range(100):
            cand = _cayley(m, w + nxt / INERTIA, 0.25 * h)
            done = np.max(np.abs(cand - nxt)) <= 1e-16 * max(1.0, np.max(np.abs(m)))
            nxt = cand
            if done:
                break
        m = nxt
    return np.concatenate([m / INERTIA, init[3:]])


def oracle_lagrange(init: np.ndarray, h: float, steps: int) -> np.ndarray:
    m, a = init[:3].copy(), init[3:].copy()
    for _ in range(steps):
        m = m + h * np.cross(VERTICAL, a)
        a = _cayley(a, m, -0.5 * h)
    return np.concatenate([m, a])


# --- CLI output -------------------------------------------------------------

_REVERSE = re.compile(r"round-trip error after \d+ steps forward \+ backward: (\S+)")
_PERIOD = re.compile(r"estimated period of \w+: (\S+)")


def parse_cli(command: str, stdout: str, csv_path: Path | None) -> dict:
    """The numbers a command prints (or writes to its CSV) that the checks compare."""
    if command == "run":
        rows = np.genfromtxt(csv_path, delimiter=",", skip_header=1, ndmin=2)
        return {"rows": len(rows), "final_state": rows[-1, 2:8].tolist(),
                "finite": bool(np.all(np.isfinite(rows[:, 2:8])))}
    if command == "reverse":
        return {"round_trip": float(_REVERSE.search(stdout).group(1))}
    if command == "converge":
        lines = stdout.strip().splitlines()[1:]
        return {"errors": [float(ln.split()[1]) for ln in lines],
                "orders": [float(ln.split()[2]) for ln in lines[1:]]}
    if command == "period":
        return {"period": float(_PERIOD.search(stdout).group(1))}
    raise ValueError(command)


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def check_cli(key: str, code: int, stdout: str, stderr: str, csv_path: Path | None) -> list[str]:
    if code != 0 or "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1:] or [""]
        return [f"{key}: exit {code}: {last[0]}"]
    command = key.split()[0]
    try:
        got = parse_cli(command, stdout, csv_path)
    except (AttributeError, ValueError, IndexError, OSError) as e:
        return [f"{key}: unreadable output ({e})"]
    want = EXPECTED["cli"][key]
    problems = []
    if command == "run":
        if got["rows"] != want["rows"] or not got["finite"]:
            problems.append(f"{key}: {got['rows']} CSV rows (want {want['rows']}), finite={got['finite']}")
        problems += _final_state(np.array(got["final_state"]), want["final_state"], key)
    elif command == "reverse":
        ok = (got["round_trip"] <= 1e-9 if want["reversible"]
              else _close(got["round_trip"], want["round_trip"], PRINTED_RTOL))
        if not ok:
            problems.append(f"{key}: round-trip error {got['round_trip']:.6e}, recorded {want['round_trip']:.6e}")
    elif command == "converge":
        ok = len(got["errors"]) == len(want["errors"]) and all(
            _close(g, w, PRINTED_RTOL) for g, w in zip(got["errors"], want["errors"])
        ) and all(abs(g - w) <= 1.5e-3 for g, w in zip(got["orders"], want["orders"]))
        if not ok:
            problems.append(f"{key}: errors {got['errors']} orders {got['orders']}, recorded {want}")
    elif not _close(got["period"], want["period"], PRINTED_RTOL):
        problems.append(f"{key}: period {got['period']}, recorded {want['period']}")
    return problems
