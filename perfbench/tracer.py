"""In-memory spans around the public functions of each todadual layer.

Tracer.install() replaces every binding of a listed function inside the
todadual package (for example `toda.build_lax`, `duality.build_lax` and
`cli.build_lax`) with a wrapper, so calls are caught whichever module
makes them; uninstall() puts the originals back.  Each wrapped call
records its name, start, end and the span that caused it.  Self time is a
call's duration minus the time its traced children cover.  Functions
called 1e4-1e5 times per operation are counted and timed the same way but
keep no span record.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# module -> functions traced in it.  Every function yields the metrics
# <module>.<function>.calls_per_op and <module>.<function>.self_ms_per_op.
LAYERS = {
    "toda": ("build_lax", "toda_hamiltonians", "equations_of_motion", "integrate_flow"),
    "poisson": ("commutativity_matrix",),
    "goldfish": ("goldfish_hamiltonian", "a_from_p", "p_from_a"),
    "moser": ("closed_form_minor", "build_moser_g", "momentum_equation_residual", "minor_oracle_mk"),
    "linalg": ("structured_diagonalize", "lower_triangularize", "iwasawa", "extended_solve"),
    "duality": ("toda_to_moser", "goldfish_to_toda", "verify_duality_identities", "duality_jacobian"),
    "verify": ("run_suite",),
    "cli": ("main",),
}
# Called 1e4-1e5 times per operation (finite-difference stencils, the
# D-family subset loop): counted and timed, no span kept.
COUNT_ONLY = {"toda.build_lax", "toda.toda_hamiltonians", "moser.closed_form_minor"}

FIELD_EVALS = "toda.integrate_flow.field_evals_per_step"
OVERHEAD = "trace.overhead_pct"


def traced_names() -> list:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_ms_per_op"] = "ms"
    units[FIELD_EVALS] = "count"
    units[OVERHEAD] = "%"
    return units


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.flow_steps = 0
        self.field_evals = 0
        self._stack = []  # open calls: [child_seconds, id that children name as parent]
        self._next_id = 1
        self._flow_depth = 0
        self._patches = []

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name == "todadual" or name.startswith("todadual.")]
        for name in traced_names():
            module_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"todadual.{module_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        keep_span = name not in COUNT_ONLY
        is_flow = name == "toda.integrate_flow"
        is_field = name == "toda.equations_of_motion"
        steps_of = inspect.signature(fn).bind if is_flow else None

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            span_id = parent
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            if is_flow:
                self.flow_steps += int(steps_of(*args, **kwargs).arguments["steps"])
                self._flow_depth += 1
            elif is_field and self._flow_depth:
                self.field_evals += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_flow:
                    self._flow_depth -= 1
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    spans.append((span_id, parent, name, start, end))

        return traced

    def metrics(self, ops: int, overhead_pct: float, time_scale: float) -> dict:
        """Per-layer metrics over `ops` operations, as {name: (value, unit)}.

        Self times are multiplied by `time_scale`, the run's reference-speed
        time over its raw time.
        """
        units = metric_units()
        out = {}
        for name in traced_names():
            out[f"{name}.calls_per_op"] = self.calls[name] / ops
            out[f"{name}.self_ms_per_op"] = 1000.0 * time_scale * self.self_s[name] / ops
        out[FIELD_EVALS] = self.field_evals / self.flow_steps if self.flow_steps else 0.0
        out[OVERHEAD] = overhead_pct
        return {name: (value, units[name]) for name, value in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.spans}, fh)
