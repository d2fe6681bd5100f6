"""Per-layer spans recorded from outside the package.

The package imports functions by name, so each function is patched in the
module that calls it, and each method on the class that defines it. A span
records calls, total time, the part of that time spent in nested spans, and
an optional item count. Spans stay in memory; :meth:`Tracer.totals` hands
them to the caller at the end of the run.
"""

from __future__ import annotations

import sys
import time


def _records(args, out):
    return len(out.r1) + len(out.r2) + len(out.p or ())


def _pairs(args, out):
    return args[4].shape[0] * args[5].shape[0]


# (module, owner or None, attribute, span, item counter)
TARGETS = [
    ("fedcpr.algorithms", None, "substream", "rng.substream", None),
    ("fedcpr.algorithms", None, "score_many", "model.score", None),
    ("fedcpr.algorithms", None, "score_grad_many", "model.score", None),
    ("fedcpr.algorithms", None, "loss", "losses.step", None),
    ("fedcpr.algorithms", None, "loss_grads", "losses.step", None),
    ("fedcpr.algorithms", None, "outer_deriv", "losses.step", None),
    ("fedcpr.algorithms", None, "exact_objective", "losses.oracle", _pairs),
    ("fedcpr.algorithms", None, "exact_grad", "losses.oracle_grad", None),
    ("fedcpr.algorithms", None, "auc", "metrics.auc", None),
    ("fedcpr.algorithms", None, "partial_auc", "metrics.partial_auc", None),
    ("fedcpr.algorithms", None, "fedx1_estimate", "algorithms.estimate", None),
    ("fedcpr.algorithms", None, "fedx2_estimate", "algorithms.estimate", None),
    ("fedcpr.algorithms", None, "fedx2_u_update", "algorithms.u_update", None),
    ("fedcpr.algorithms", None, "run_round", "algorithms.run_round", None),
    ("fedcpr.algorithms", "_Program", "begin_round", "algorithms.begin_round", None),
    ("fedcpr.algorithms", "_Program", "build_upload", "algorithms.upload", None),
    ("fedcpr.algorithms", "_Program", "bootstrap_upload", "algorithms.upload", None),
    ("fedcpr.algorithms", "FedX1Program", "local_step", "algorithms.step", None),
    ("fedcpr.algorithms", "FedX2Program", "local_step", "algorithms.step", None),
    ("fedcpr.algorithms", "CentralizedProgram", "local_step", "algorithms.step", None),
    ("fedcpr.federation", None, "server_aggregate", "federation.aggregate", _records),
    ("fedcpr.federation", "Buffer", "refill", "federation.refill", lambda args, out: len(args[1])),
    ("fedcpr.federation", "Buffer", "draw", "federation.draw", lambda args, out: len(out)),
    ("fedcpr.harness", None, "build_dataset", "data.build", None),
    ("fedcpr.harness", "CsvTraceSink", "on_round", "harness.on_round", None),
    ("fedcpr.harness", "CsvTraceSink", "on_iteration", "harness.on_iteration", None),
]


class Tracer:
    def __init__(self) -> None:
        self._stats: dict[str, list[int]] = {}  # span -> [calls, ns, child ns, items]
        self._open: list[int] = []  # nested-span ns of each open span
        self.missing: list[str] = []

    def install(self) -> None:
        """Patch every target that exists; name the ones that do not."""
        for module_name, owner_name, attr, span, items in TARGETS:
            owner = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            setattr(owner, attr, self._wrap(vars(owner)[attr], span, items))

    def _wrap(self, fn, span: str, items):
        stats = self._stats.setdefault(span, [0, 0, 0, 0])
        stack = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += nested
            if items is not None:
                stats[3] += items(args, out)
            return out

        return traced

    def totals(self) -> dict[str, dict[str, int]]:
        return {
            span: {"calls": c, "ns": ns, "self_ns": ns - nested, "items": n}
            for span, (c, ns, nested, n) in self._stats.items()
        }
