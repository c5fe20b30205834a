"""Span tracer that times the spintops layers from outside the package.

`Tracer.install()` replaces every public spintops function, in every layer
module that holds a reference to it (its import sites, e.g. `hk.solve6` and
`kowalevski.bs_solve`), with a wrapper that records one span per call:
name, start, end, parent span and pass id. Nothing under `src/` changes.
Spans live in flat arrays in memory and are written out once, by `dump()`.

A layer's self time is its span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("algebra", "hk", "kowalevski", "euler_lagrange", "models", "harness", "cli")

# Per-span numbers the derived metrics need: whether a `run` is the RK4
# reference of a convergence study, and how many rows `to_csv` writes.
TAGS = {
    "harness.run": lambda config: 1.0 if config.scheme == "reference" else 0.0,
    "harness.to_csv": lambda traj, path: float(len(traj.steps)),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.tag = array("d")
        # (pass id, exception class) -> count, taken at the span the exception left first
        self.errors: Counter = Counter()
        self.current_pass = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, tag=None):
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self.current_pass)
            self.tag.append(tag(*args, **kwargs) if tag else 0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                if not getattr(e, "_perfbench_counted", False):
                    e._perfbench_counted = True
                    self.errors[(self.current_pass, type(e).__name__)] += 1
                raise
            finally:
                self.end[i] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each public spintops function at every layer module that
        references it, and `Trajectory.to_csv`."""
        for layer in LAYERS:
            mod = importlib.import_module(f"spintops.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("spintops.")
                ):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                self._patch(mod, attr, self.wrap(name, obj, TAGS.get(name)))
        traj_cls = importlib.import_module("spintops.harness").Trajectory
        self._patch(
            traj_cls, "to_csv",
            self.wrap("harness.to_csv", traj_cls.to_csv, TAGS["harness.to_csv"]),
        )

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, **extra) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
            tag=np.frombuffer(self.tag),
            errors=np.array([f"{p}|{e}|{c}" for (p, e), c in self.errors.items()], dtype=str),
            **{k: np.asarray(v) for k, v in extra.items()},
        )

    def merge(self, path: str, pass_id: int) -> dict:
        """Append the spans a child process dumped, under `pass_id`; return
        the extra arrays it saved."""
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        offset = len(self.name_id)
        remap = np.array([self._id(str(n)) for n in data["names"]], dtype=np.int32)
        parent = data["parent"]
        self.name_id.extend(remap[data["name_id"]].tolist())
        self.start.extend(data["start"].tolist())
        self.end.extend(data["end"].tolist())
        self.parent.extend(np.where(parent < 0, -1, parent + offset).tolist())
        self.pass_id.extend([pass_id] * len(parent))
        self.tag.extend(data["tag"].tolist())
        for item in data["errors"]:
            _, exc, count = str(item).split("|")
            self.errors[(pass_id, exc)] += int(count)
        known = {"names", "name_id", "start", "end", "parent", "pass_id", "tag", "errors"}
        return {k: v for k, v in data.items() if k not in known}

    def pass_summary(self, pass_id: int) -> dict:
        """Per span name: calls, self seconds, total seconds and tag sum over
        one pass, plus the derived relations the benchmark reports."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        tag = np.frombuffer(self.tag)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        sel = np.frombuffer(self.pass_id, dtype=np.int32) == pass_id
        ids, par = name_id[sel], parent[sel]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total_s = np.bincount(ids, weights=dur[sel], minlength=n)
        self_s = np.bincount(ids, weights=(dur - child_s)[sel], minlength=n)
        tags = np.bincount(ids, weights=tag[sel], minlength=n)
        out = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i]), "tag": float(tags[i])}
            for i, name in enumerate(self.names)
        }
        parent_name = np.where(par >= 0, name_id[np.maximum(par, 0)], -1)

        def under(child: str, parent_: str, weights=None):
            if child not in self._name_ids or parent_ not in self._name_ids:
                return 0.0
            m = (ids == self._name_ids[child]) & (parent_name == self._name_ids[parent_])
            return float(np.sum(m if weights is None else weights[sel][m]))

        out["_bs_solve_in_symmetric"] = under("algebra.bs_solve", "euler_lagrange.symmetric_step_euler")
        out["_reference_run_s"] = under(
            "harness.run", "harness.convergence_study", weights=dur * (tag == 1.0)
        )
        return out
