"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each listed public function of ``mot`` with a
timing wrapper wherever the function object is bound: in its own module
and in every other ``mot`` module (or the package itself) that imported
it by name.  A class is traced through its ``__init__`` and a click
command through its ``callback``.  A name that the program no longer has
is skipped, so the trace keeps working while the program loses code.
``uninstall`` puts every original object back.

Spans live in memory as parallel lists (name index, start, end, parent
span) and are summarised per round and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) of every function whose calls are timed.
TARGETS = (
    ("cli", "pave"),
    ("measures", "DiscreteMeasure"),
    ("measures", "check_convex_order"),
    ("measures", "potential_domain"),
    ("coupling", "build_martingale_lp"),
    ("coupling", "find_coupling"),
    ("coupling", "nonpolar_mask"),
    ("paving", "compute_paving"),
    ("geometry", "convex_hull"),
    ("geometry", "relative_interiors_intersect"),
    ("geometry", "in_relative_interior"),
    ("geometry", "minimal_face"),
    ("geometry", "intersect_halfspaces_with_polytope"),
    ("pwl", "affine_component"),
    ("pwl", "check_barycenter_face"),
    ("lp", "solve"),
    ("lp", "feasible"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)
LP_NAMES = ("lp.solve", "lp.feasible")


PACKAGE = "mot"


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._index = {name: k for k, name in enumerate(self.names)}
        self.name_idx: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        # per-call observations: LP shape and outcome, merge-test result
        self.lp_calls: list[tuple] = []  # (span, rows, cols, outcome)
        self.ri_hits = 0
        self._restore: list[tuple] = []
        self.skipped: list[str] = []

    # ---- installing and removing the wrappers -------------------------

    def _modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.skipped.append(name)
                continue
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.skipped.append(name)
                    continue
                self._set(original, "__init__", init, self._wrap(name, init))
            elif callable(getattr(original, "callback", None)):
                cb = original.callback
                self._set(original, "callback", cb, self._wrap(name, cb))
            elif callable(original):
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, original, wrapper)
            else:
                self.skipped.append(name)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _set(self, owner, key, original, wrapper):
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        idx = self._index[name]
        observe = None
        if name in LP_NAMES:
            observe = self._observe_lp
        elif name == "geometry.relative_interiors_intersect":
            observe = self._observe_ri
        clock = time.perf_counter
        name_idx, start, end, parent, stack = (
            self.name_idx, self.start, self.end, self.parent, self._stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(name_idx)
            name_idx.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if observe is not None:
                observe(span, args, result)
            return result

        return wrapper

    def _observe_lp(self, span, args, result):
        shape = getattr(getattr(args[0], "constraint_matrix", None), "shape", None) if args else None
        rows, cols = (int(shape[0]), int(shape[1])) if shape is not None and len(shape) == 2 else (0, 0)
        if isinstance(result, bool):
            outcome = "feasible" if result else "infeasible"
        else:
            status = getattr(result, "status", None)
            outcome = str(getattr(status, "value", status))
        self.lp_calls.append((span, rows, cols, outcome))

    def _observe_ri(self, span, args, result):
        if result:
            self.ri_hits += 1

    # ---- summaries ----------------------------------------------------

    def mark(self):
        """Position to summarise from, taken before a round."""
        return (len(self.name_idx), len(self.lp_calls), self.ri_hits)

    def summary(self, since) -> dict:
        """Per-layer figures of the spans recorded after ``since``."""
        first, first_lp, hits0 = since
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child_s = {}
        for s in range(len(self.name_idx) - 1, first - 1, -1):
            dur = self.end[s] - self.start[s]
            k = self.name_idx[s]
            calls[k] += 1
            self_s[k] += dur - child_s.pop(s, 0.0)
            p = self.parent[s]
            if p >= first:
                child_s[p] = child_s.get(p, 0.0) + dur
        mask_idx = self._index["coupling.nonpolar_mask"]
        lp_idx = {self._index[n] for n in LP_NAMES}
        lp_in_mask = 0
        for s in range(first, len(self.name_idx)):
            if self.name_idx[s] in lp_idx and self._has_ancestor(s, mask_idx, first):
                lp_in_mask += 1
        lp = self.lp_calls[first_lp:]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out["lp.rows.max"] = max((r for _, r, _, _ in lp), default=0)
        out["lp.cols.max"] = max((c for _, _, c, _ in lp), default=0)
        out["lp.cells.sum"] = sum(r * c for _, r, c, _ in lp)
        out["lp.infeasible"] = sum(1 for *_, o in lp if o == "infeasible")
        out["lp.unbounded"] = sum(1 for *_, o in lp if o == "unbounded")
        n_mask = calls[mask_idx]
        out["coupling.mask_lp_per_call"] = lp_in_mask / n_mask if n_mask else 0.0
        n_ri = calls[self._index["geometry.relative_interiors_intersect"]]
        out["paving.merge_hit_ratio"] = (self.ri_hits - hits0) / n_ri if n_ri else 0.0
        out["trace.self_sum_s"] = sum(self_s)
        return out

    def _has_ancestor(self, s, name_k, first):
        p = self.parent[s]
        while p >= first:
            if self.name_idx[p] == name_k:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """All spans as JSON: names, and per span [name, start, end, parent]."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "skipped": self.skipped,
                    "spans": [
                        [k, round(a - t0, 9), round(b - t0, 9), p]
                        for k, a, b, p in zip(self.name_idx, self.start, self.end, self.parent)
                    ],
                },
                fh,
                separators=(",", ":"),
            )
