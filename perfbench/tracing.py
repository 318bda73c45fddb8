"""Per-layer tracing from outside the package.

The tracer replaces, for the duration of one command, the names each
caller looks up at call time (``cli``'s imported functions, the
``_kernels.batch_*`` module attributes, ``sim``'s imported estimators
and procedures, ``tuning.generalized_pi0``) with wrappers that record a
span: name, start, end and parent span. Spans stay in memory; the
benchmark writes them out after the run. Nothing is wrapped outside a
``Tracer.installed()`` block, so the timed runs execute the plain code.

Every span's self time (its duration minus its direct children's) is
booked to exactly one time metric, so the time metrics partition the
traced command's wall time. ``sim.recompute_s`` is the only exception:
it is the share of ``estimators.*_s`` spent on estimates that
``run_procedure`` recomputes, and is reported for reference only.

Counts are derived after the command returns, from references to the
arguments and results the wrappers kept, so counting adds nothing to the
recorded spans. A wrapped name that no longer exists is reported as
absent and its metrics read 0; the run does not fail.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

ROOT = "cli.main"

_ESTIMATORS = {
    "generalized_pi0": "estimators.generalized_s",
    "pounds_hat_pi0": "estimators.pounds_hat_s",
    "storey_pi0": "estimators.other_s",
    "pounds_tilde_pi0": "estimators.other_s",
    "benjamini_pi0": "estimators.other_s",
}
_PROCEDURES = {
    "build_rejection_process": "fdr.build_s",
    "threshold": "fdr.threshold_s",
    "bh_procedure": "fdr.stepup_s",
    "adaptive_bh": "fdr.stepup_s",
}

#: (module under ``discretefdr``, attribute) -> the metric its self time
#: is booked to. The span name is ``module.attribute``.
TARGETS = {
    ("cli", "ingest_counts"): "discrete_tests.ingest_s",
    ("cli", "test_count_table"): "discrete_tests.test_self_s",
    ("cli", "run_replications"): "sim.replications_self_s",
    ("cli", "bootstrap_tune"): "tuning.bootstrap_self_s",
    **{("cli", name): metric for name, metric in _ESTIMATORS.items()},
    **{("cli", name): metric for name, metric in _PROCEDURES.items()},
    ("_kernels", "batch_binomial"): "kernels.batch_s",
    ("_kernels", "batch_fisher"): "kernels.batch_s",
    ("_kernels", "batch_negbinom"): "kernels.batch_s",
    ("sim", "generate_scenario"): "sim.generate_self_s",
    ("sim", "compute_pi0"): "sim.compute_pi0_s",
    ("sim", "run_procedure"): "sim.run_procedure_self_s",
    ("sim", "false_discovery_proportion"): "sim.fdp_s",
    **{("sim", name): metric for name, metric in _ESTIMATORS.items()},
    **{("sim", name): metric for name, metric in _PROCEDURES.items()},
    ("tuning", "generalized_pi0"): "tuning.full_sample_s",
}

#: Time metrics that partition the traced command, in report order.
SELF_TIMES = ("cli.self_s",) + tuple(dict.fromkeys(TARGETS.values()))

# Wrapped calls whose arguments or results feed a count.
_KEEP = {
    "cli.ingest_counts", "cli.test_count_table", "cli.bootstrap_tune",
    "_kernels.batch_binomial", "_kernels.batch_fisher",
    "_kernels.batch_negbinom", "cli.build_rejection_process",
    "sim.build_rejection_process",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "call")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.call = None

    def as_list(self) -> list:
        return [self.id, self.parent, self.name, self.start, self.end]


class Tracer:
    """Spans of one traced command plus the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        keep = name in _KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                span.call = (args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, package):
        """Swap every target name for its wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr in TARGETS:
                module = getattr(package, module_name, None)
                if module is None or not hasattr(module, attr):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, f"{module_name}.{attr}"))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run(self, fn, *args):
        """Call ``fn(*args)`` under the root span."""
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    # -- derived quantities ---------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per metric in :data:`SELF_TIMES`."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        metric_of = {f"{mod}.{attr}": m for (mod, attr), m in TARGETS.items()}
        metric_of[ROOT] = "cli.self_s"
        out = dict.fromkeys(SELF_TIMES, 0.0)
        for span in self.spans:
            out[metric_of[span.name]] += span.end - span.start - child_time[span.id]
        return out

    def command_s(self) -> float:
        root = self.spans[0]
        return root.end - root.start

    def _recomputed(self) -> list[Span]:
        """Estimator spans called from ``run_procedure``: recomputed estimates."""
        names = {f"sim.{name}" for name in _ESTIMATORS}
        return [
            s
            for s in self.spans
            if s.name in names
            and s.parent is not None
            and self.spans[s.parent].name == "sim.run_procedure"
        ]

    def recompute_s(self) -> float:
        return sum(s.end - s.start for s in self._recomputed())

    def counts(self) -> dict[str, float]:
        """Work and waste counters of the traced command."""
        c = dict.fromkeys(
            (
                "discrete_tests.rows", "discrete_tests.dropped",
                "kernels.features", "kernels.distinct_keys",
                "kernels.support_entries", "kernels.max_support",
                "estimators.padded_bytes", "fdr.threshold_calls",
                "fdr.processes_built", "fdr.distinct_pvalues",
                "tuning.values_resampled", "sim.recomputed_estimates",
            ),
            0,
        )
        for span in self.spans:
            name = span.name
            if name.endswith(".threshold"):
                c["fdr.threshold_calls"] += 1
            elif name.endswith(".build_rejection_process"):
                c["fdr.processes_built"] += 1
                c["fdr.distinct_pvalues"] += int(span.call[1].distinct.shape[0])
            elif name == "cli.ingest_counts":
                table = span.call[1]
                c["discrete_tests.rows"] += len(table) + table.dropped
                c["discrete_tests.dropped"] += table.dropped
            elif name.startswith("_kernels."):
                args, (pvals, flat, start, length) = span.call
                c["kernels.features"] += int(pvals.shape[0])
                c["kernels.distinct_keys"] += distinct_keys(kernel_keys(name, args))
                c["kernels.support_entries"] += int(length.sum())
                c["kernels.max_support"] = max(
                    c["kernels.max_support"], int(length.max())
                )
            elif name == "cli.bootstrap_tune":
                study, grid = span.call[0][:2]
                c["tuning.values_resampled"] += len(grid.points) * grid.B * study.m
        c["sim.recomputed_estimates"] = len(self._recomputed())
        c["estimators.padded_bytes"] = self._padded_bytes()
        features = c["kernels.features"]
        c["kernels.key_reuse"] = (
            1.0 - c["kernels.distinct_keys"] / features if features else 0.0
        )
        return c

    def _studies(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(keys, p-values, support lengths) of every study tested.

        Taken from the kernel calls, plus ``test_count_table`` calls
        that did not reach a kernel (the doubling convention).
        """
        has_child = {s.parent for s in self.spans}
        studies = []
        for span in self.spans:
            if span.name.startswith("_kernels."):
                args, (pvals, _, _, lengths) = span.call
                studies.append((kernel_keys(span.name, args), pvals, lengths))
            elif span.name == "cli.test_count_table" and span.id not in has_child:
                table = span.call[0][0]
                pvals, supports = span.call[1]
                lengths = np.array([s.shape[0] for s in supports], dtype=np.int64)
                studies.append((table_keys(table), pvals, lengths))
        return studies

    def _padded_bytes(self) -> int:
        """Largest m x max-support x 8 over the studies the run tested.

        This is computed from the supports, not measured: it is the size
        of the padded matrix ``Study.support_floor`` allocates.
        """
        return max(
            (n.shape[0] * int(n.max()) * 8 for _, _, n in self._studies()),
            default=0,
        )

    def input_properties(self) -> dict:
        """Properties of the inputs the command's tests saw."""
        studies = self._studies()
        m = sum(int(p.shape[0]) for _, p, _ in studies)
        distinct = sum(distinct_keys(k) for k, _, _ in studies)
        dropped = sum(
            s.call[1].dropped for s in self.spans if s.name == "cli.ingest_counts"
        )
        return {
            "studies": len(studies),
            "m": m,
            "dropped_rows": int(dropped),
            "distinct_keys": distinct,
            "distinct_key_share": distinct / m if m else 0.0,
            "max_total": max((int(_totals(k).max()) for k, _, _ in studies), default=0),
            "support_entries": sum(int(n.sum()) for _, _, n in studies),
            "max_support": max((int(n.max()) for _, _, n in studies), default=0),
            "distinct_pvalues": sum(int(np.unique(p).shape[0]) for _, p, _ in studies),
        }


def kernel_keys(name: str, args) -> np.ndarray:
    """Conditioning key of every feature of one batch-kernel call.

    The key fixes the null law: n for bin, (r1, r2, s) for fet, s for ent.
    """
    if name.endswith("batch_fisher"):
        x1, r1, x2, r2 = (np.asarray(a, dtype=np.int64) for a in args[:4])
        return np.column_stack((x1 + x2, r1, r2))
    return np.asarray(args[0], dtype=np.int64) + np.asarray(args[1], dtype=np.int64)


def table_keys(table) -> np.ndarray:
    """Conditioning keys of a parsed count table, as for the kernels."""
    total = table.group1 + table.group2
    if table.kind == "fet":
        return np.column_stack((total, table.trials1, table.trials2))
    return total


def distinct_keys(keys: np.ndarray) -> int:
    return int(np.unique(keys, axis=0).shape[0]) if keys.shape[0] else 0


def _totals(keys: np.ndarray) -> np.ndarray:
    """The conditioned total of each key (the first column for fet)."""
    return keys[:, 0] if keys.ndim == 2 else keys
