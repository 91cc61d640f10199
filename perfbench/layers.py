"""Per-layer spans recorded from outside the catcorr package.

The tracer wraps each listed public function at every ``catcorr.*``
module binding that refers to it (and class members on their class),
records one span per call (target, start, end, parent span, request id)
in flat arrays while installed, and restores the originals afterwards.
Self time is derived from the spans: a span's duration minus the
durations of its direct children. Nothing under ``src/`` is touched; a
target that a later version of the package no longer has is reported
as missing and counts zero calls.
"""

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# layer name -> "module:qualname" targets inside the catcorr package
LAYERS = (
    ("kernels.overlap", ("kernels:overlap",)),
    ("states.spec", ("states:SuperpositionSpec.__init__",
                     "states:SuperpositionSpec.branch_product",
                     "states:SuperpositionSpec.omitted_product",
                     "states:normalization")),
    ("states.density", ("states:reduced_pair_density", "states:pure_split",
                        "states:PureSplit.projector")),
    ("states.check_density", ("states:check_density",)),
    ("states.bloch", ("states:bloch_decompose", "states:bloch_compose")),
    ("correlations.closed", ("correlations:mixed_k_eigenvalues",
                             "correlations:mixed_discord_closed",
                             "correlations:geometric_discord_pure_closed",
                             "correlations:concurrence_pure",
                             "correlations:branch_and_discord")),
    ("correlations.numeric", ("correlations:geometric_discord_numeric",
                              "correlations:k_matrix")),
    ("correlations.concurrence_mixed", ("correlations:concurrence_mixed",)),
    ("linalg.eig_sym", ("linalg:eig_sym",)),
    ("linalg.eig_herm", ("linalg:eig_herm", "linalg:sqrtm_psd")),
    ("dephasing.closed", ("dephasing:discord_trajectory",
                          "dephasing:concurrence_trajectory",
                          "dephasing:sudden_death_time")),
    ("dephasing.kraus", ("dephasing:apply_dephasing", "dephasing:kraus_ops")),
    ("oracle.gram", ("oracle:pair_density_from_overlaps",)),
    ("oracle.search", ("oracle:discord_by_measurement_search",)),
    ("cli", ("cli:main",)),
)

# functions whose successful outputs count as densities built
DENSITY_BUILDERS = ("states:reduced_pair_density", "states:pure_split",
                    "oracle:pair_density_from_overlaps", "dephasing:apply_dephasing")
CHECK_DENSITY = "states:check_density"

LAYER_METRICS = (("calls", "count"), ("self_s", "s"), ("share", "ratio"), ("errors", "count"))


class Tracer:
    """Span recorder for traced calls; `request_id` is set by the caller.

    The catcorr package must be imported before construction: the wrappers
    are built once, and `installed()` swaps them in and out.
    """

    def __init__(self, error_type):
        self.error_type = error_type
        self.targets = [t for _, targets in LAYERS for t in targets]
        self.layer_of = np.array([k for k, (_, targets) in enumerate(LAYERS) for _ in targets])
        self.request_id = -1
        self.target = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error_spans = []
        self._stack = [-1]
        self.missing = []
        self._patches = self._resolve()

    def _wrap(self, fn, tid: int):
        target, parent, request = self.target, self.parent, self.request
        start, end, stack, error_type = self.start, self.end, self._stack, self.error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(target)
            target.append(tid)
            parent.append(stack[-1])
            request.append(self.request_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except error_type:
                self.error_spans.append(idx)
                raise
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()

        return traced

    def _resolve(self) -> list:
        """(owner, attribute, original, wrapper) for every binding of every target."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "catcorr" or name.startswith("catcorr."))]
        patches = []
        for tid, spec in enumerate(self.targets):
            modname, qualname = spec.split(":")
            home = sys.modules.get("catcorr." + modname)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None:
                    self.missing.append(spec)
                elif isinstance(raw, property):
                    wrapped = property(self._wrap(raw.fget, tid), raw.fset, raw.fdel, raw.__doc__)
                    patches.append((owner, attr, raw, wrapped))
                else:
                    patches.append((owner, attr, raw, self._wrap(raw, tid)))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(spec)
                continue
            wrapper = self._wrap(fn, tid)
            patches.extend((module, name, fn, wrapper) for module in modules
                           for name, value in list(vars(module).items()) if value is fn)
        return patches

    @property
    def bindings(self) -> int:
        return len(self._patches)

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs, then restore the originals."""
        try:
            for owner, name, _, wrapper in self._patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original, _ in reversed(self._patches):
                setattr(owner, name, original)

    def _arrays(self) -> tuple:
        tid = np.frombuffer(self.target, dtype=np.intc).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.intp)
        dur = 1e-9 * (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64))
        return tid, parent, dur

    def summary(self, workload_s: float) -> dict:
        """Per-layer (value, unit) metrics: calls, self time, share of
        `workload_s` and errors, plus the check_density-per-density ratio."""
        tid, parent, dur = self._arrays()
        n_targets, n_layers = len(self.targets), len(LAYERS)
        nested = parent >= 0
        child_s = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child_s
        layer = self.layer_of[tid]
        calls_per_target = np.bincount(tid, minlength=n_targets)
        errors_per_target = np.zeros(n_targets, dtype=np.intp)
        layer_calls = np.bincount(layer, minlength=n_layers)
        layer_self = np.bincount(layer, weights=self_s, minlength=n_layers)
        layer_errors = np.zeros(n_layers, dtype=np.intp)
        for idx in self.error_spans:
            errors_per_target[tid[idx]] += 1
            up = parent[idx]
            # count an error once per layer it leaves, not per nested frame
            if up < 0 or layer[up] != layer[idx]:
                layer_errors[layer[idx]] += 1
        metrics = {}
        for k, (name, _) in enumerate(LAYERS):
            values = {"calls": int(layer_calls[k]), "self_s": float(layer_self[k]),
                      "share": float(layer_self[k] / workload_s) if workload_s > 0 else 0.0,
                      "errors": int(layer_errors[k])}
            for kind, unit in LAYER_METRICS:
                metrics[f"{name}.{kind}"] = (values[kind], unit)
        built = sum(int(calls_per_target[self.targets.index(t)] - errors_per_target[self.targets.index(t)])
                    for t in DENSITY_BUILDERS)
        checks = int(calls_per_target[self.targets.index(CHECK_DENSITY)])
        # 0 where no density is built (evolve)
        metrics["states.check_density.per_density"] = (checks / built if built else 0.0, "ratio")
        detail = {
            "spans": int(len(dur)),
            "bindings_patched": self.bindings,
            "missing_targets": list(self.missing),
            "densities_built": built,
            "check_density_calls": checks,
            "calls_per_target": {t: int(c) for t, c in zip(self.targets, calls_per_target)},
        }
        return {"metrics": metrics, "detail": detail}

    def save(self, path) -> None:
        """Write the spans compressed: starts as nanosecond deltas, parents
        as distance back from the span (0 for a root)."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        idx = np.arange(len(start))
        parent = np.frombuffer(self.parent, dtype=np.intc)
        np.savez_compressed(
            path, targets=np.array(self.targets),
            target=np.frombuffer(self.target, dtype=np.intc).astype(np.int16),
            parent_back=np.where(parent >= 0, idx - parent, 0).astype(np.int32),
            request=np.frombuffer(self.request, dtype=np.intc),
            start_delta_ns=np.diff(start, prepend=start[:1]), duration_ns=end - start)
