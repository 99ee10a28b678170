"""Spans around the program's layer boundaries, recorded from outside ``src/``.

:class:`Tracer` replaces each declared layer function with a wrapper that
records a span (name, start, end, parent) into an in-memory, per-thread
list; parents are tracked per thread, so spans of the daemon's executor
and connection threads nest under their own callers.  Nothing is written
until :func:`write_trace` runs at the end of the benchmark, which also
computes every span's self time (its duration minus its children's).

A layer function can be bound under several names — a module attribute
re-exported by a package, or imported by name into another module — and
a method can be overridden by subclasses.  :meth:`Tracer.install` patches
every such binding, so no call path escapes the span.

``LAYER_METRICS`` declares the per-layer metrics a traced run reports,
with the workloads and end-to-end metrics each one should move.
``ACTIVE`` names the workloads on which each span must fire; a traced run
whose declared span stays silent there counts as failed, which catches a
binding the wrapper missed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_ALL = ("cold_row", "attack_warm", "daemon_campaign")
_DAEMON = ("daemon_campaign",)


# ----------------------------------------------------------------------
# Counters computed at kernel and layer boundaries
# ----------------------------------------------------------------------
def _conv_exit(tracer: "Tracer", args, kwargs, result) -> None:
    # Computed from argument shapes, not measured: 2*N*F*K*P GEMM flops;
    # bytes are the input, weights, bias, output, and the im2col columns
    # once written and once read.
    x, weight_matrix, bias = args[0], args[1], args[2]
    out, cols = result
    batch, filters, positions = out.shape
    tracer.count("nn.kernels.gemm_flops", 2 * batch * filters * weight_matrix.shape[1] * positions)
    moved = x.nbytes + weight_matrix.nbytes + out.nbytes + 2 * cols.nbytes
    if bias is not None:
        moved += bias.nbytes
    tracer.count("nn.kernels.bytes_moved", moved)


def _col2im_exit(tracer: "Tracer", args, kwargs, result) -> None:
    # Reads the columns, writes the image.
    tracer.count("nn.kernels.bytes_moved", args[0].nbytes + result.nbytes)


def _bfa_run_exit(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("core.bfa.attacks")
    tracer.count("core.bfa.flips", result.num_flips)
    tracer.count("core.bfa.converged", int(result.converged))


def _shortlist_exit(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("core.bfa.shortlist.trials", len(result))


def _mapping_exit(tracer: "Tracer", args, kwargs, result) -> None:
    if isinstance(result, dict):  # candidates_from_profile, not the placement
        tracer.count("core.mapping.candidate_bits", sum(c.count for c in result.values()))


def _timeline_exit(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("dram.timeline.windows", len(result.windows))


def _save_exit(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("experiments.store.bytes_written", Path(result).stat().st_size)


def _submit_exit(tracer: "Tracer", args, kwargs, result) -> None:
    job, created = result
    if created:
        tracer.mark(job.job_id)


def _claim_exit(tracer: "Tracer", args, kwargs, result) -> None:
    if result is not None:
        submitted = tracer.marks.get(result.job_id)
        if submitted is not None:
            tracer.count("experiments.queue.wait_s", time.perf_counter() - submitted)


#: (span name, bindings, exit hook, workloads on which it must fire).
#: A binding is ``module:function`` or ``module:Class.method``; methods
#: are patched on the class and on every subclass that overrides them.
SPANS: Tuple[Tuple[str, Sequence[str], Optional[Callable], Sequence[str]], ...] = (
    ("nn.training", ["repro.nn.training:train"], None, ("cold_row",)),
    ("nn.autograd.backward", ["repro.nn.autograd:Tensor.backward"], None, _ALL),
    ("nn.optim.step", ["repro.nn.optim:Optimizer.step"], None, ("cold_row",)),
    ("nn.kernels.conv2d_forward", ["repro.nn.kernels:conv2d_forward"], _conv_exit, _ALL),
    ("nn.kernels.col2im", ["repro.nn.kernels:col2im"], _col2im_exit, _ALL),
    ("nn.inference.peek_many", ["repro.nn.inference:SuffixEvaluator.peek_many"], None, _ALL),
    ("nn.quantization", ["repro.nn.quantization:quantize_model"], None, _ALL),
    ("core.bfa.run", ["repro.core.bfa:BitFlipAttack.run"], _bfa_run_exit, _ALL),
    ("core.bfa.propose", ["repro.core.bfa:BitFlipAttack._propose_for_tensor"], None, _ALL),
    ("core.bfa.shortlist", ["repro.core.bfa:BitFlipAttack._score_shortlist"], _shortlist_exit, _ALL),
    (
        "core.objective.gradients",
        ["repro.core.objective:AttackObjective.attack_loss_and_gradients"],
        None,
        _ALL,
    ),
    ("core.objective.evaluate", ["repro.core.objective:AttackObjective.evaluate"], None, _ALL),
    (
        "core.mapping",
        [
            "repro.core.mapping:WeightBitMapping.for_model_infos",
            "repro.core.mapping:WeightBitMapping.candidates_from_profile",
        ],
        _mapping_exit,
        _ALL,
    ),
    (
        "faults.profiles",
        [
            "repro.core.comparison:build_deployment_profiles",
            "repro.faults.profiles:BitFlipProfile.from_vulnerability_model",
        ],
        None,
        _ALL,
    ),
    (
        "faults.profiler",
        [
            "repro.faults.profiler:ChipProfiler.profile_rowhammer",
            "repro.faults.profiler:ChipProfiler.profile_rowpress",
        ],
        None,
        _DAEMON,
    ),
    (
        "faults.sweep",
        ["repro.faults.sweep:rowhammer_flip_curve", "repro.faults.sweep:rowpress_flip_curve"],
        None,
        _DAEMON,
    ),
    ("dram.timeline", ["repro.dram.timeline:TimelineEngine.run"], _timeline_exit, _DAEMON),
    ("defenses.evaluation", ["repro.defenses.evaluation:evaluate_defense"], None, _DAEMON),
    ("experiments.queue.submit", ["repro.experiments.queue:JobQueue.submit"], _submit_exit, _DAEMON),
    ("experiments.queue.claim", ["repro.experiments.queue:JobQueue.claim"], _claim_exit, _DAEMON),
    ("experiments.service.run", ["repro.experiments.service:ExperimentService._run_job"], None, _DAEMON),
    ("experiments.store.save", ["repro.experiments.store:ResultStore.save"], _save_exit, _DAEMON),
    ("experiments.store.load", ["repro.experiments.store:ResultStore.load"], None, _DAEMON),
    ("experiments.fsck", ["repro.experiments.fsck:fsck_store"], None, _DAEMON),
)

ACTIVE: Dict[str, Sequence[str]] = {name: active for name, _, _, active in SPANS}


class Summary:
    """Per-span-name totals of one traced phase, plus the counters."""

    def __init__(self, rows: Dict[str, Dict[str, float]], counters: Dict[str, float]):
        self.rows = rows
        self.counters = counters

    def busy(self, name: str) -> float:
        return self.rows.get(name, {}).get("busy_s", 0.0)

    def calls(self, name: str) -> int:
        return int(self.rows.get(name, {}).get("calls", 0))

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: (metric, unit, better, value, the workload:end-to-end metrics it should move).
LAYER_METRICS: Tuple[Tuple[str, str, str, Callable[[Summary], float], Sequence[str]], ...] = (
    ("nn.training.busy_s", "s", "lower", lambda s: s.busy("nn.training"),
     ("cold_row:wall_s", "attack_warm:setup_s")),
    ("nn.training.batches", "count", "lower", lambda s: s.calls("nn.optim.step"),
     ("cold_row:wall_s", "attack_warm:setup_s")),
    ("nn.autograd.backward.busy_s", "s", "lower", lambda s: s.busy("nn.autograd.backward"),
     ("cold_row:wall_s", "attack_warm:setup_s")),
    ("nn.autograd.backward.calls", "count", "lower", lambda s: s.calls("nn.autograd.backward"),
     ("cold_row:wall_s", "attack_warm:setup_s")),
    ("nn.optim.step.busy_s", "s", "lower", lambda s: s.busy("nn.optim.step"),
     ("cold_row:wall_s", "attack_warm:setup_s")),
    ("nn.kernels.col2im.busy_s", "s", "lower", lambda s: s.busy("nn.kernels.col2im"),
     ("cold_row:wall_s", "attack_warm:setup_s")),
    ("nn.kernels.col2im.calls", "count", "lower", lambda s: s.calls("nn.kernels.col2im"),
     ("cold_row:wall_s", "attack_warm:setup_s")),
    ("core.bfa.run.busy_s", "s", "lower", lambda s: s.busy("core.bfa.run"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.bfa.iterations", "count", "lower", lambda s: s.calls("core.bfa.shortlist"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.bfa.flips", "count", "lower", lambda s: s.counter("core.bfa.flips"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.bfa.converged_frac", "frac", "higher",
     lambda s: _ratio(s.counter("core.bfa.converged"), s.counter("core.bfa.attacks")),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.bfa.propose.busy_s", "s", "lower", lambda s: s.busy("core.bfa.propose"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.bfa.shortlist.busy_s", "s", "lower", lambda s: s.busy("core.bfa.shortlist"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.bfa.shortlist.trials", "count", "lower", lambda s: s.counter("core.bfa.shortlist.trials"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.bfa.useful_trial_frac", "frac", "higher",
     lambda s: _ratio(s.counter("core.bfa.flips"), s.counter("core.bfa.shortlist.trials")),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.objective.gradients.busy_s", "s", "lower", lambda s: s.busy("core.objective.gradients"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.objective.gradients.calls", "count", "lower", lambda s: s.calls("core.objective.gradients"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.objective.evaluate.busy_s", "s", "lower", lambda s: s.busy("core.objective.evaluate"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.objective.evaluate.calls", "count", "lower", lambda s: s.calls("core.objective.evaluate"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("nn.inference.peek_many.calls", "count", "lower", lambda s: s.calls("nn.inference.peek_many"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("nn.kernels.conv2d_forward.busy_s", "s", "lower", lambda s: s.busy("nn.kernels.conv2d_forward"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("nn.kernels.conv2d_forward.calls", "count", "lower",
     lambda s: s.calls("nn.kernels.conv2d_forward"), ("attack_warm:wall_s", "cold_row:wall_s")),
    ("nn.kernels.gemm_flops", "flop", "lower", lambda s: s.counter("nn.kernels.gemm_flops"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("nn.kernels.bytes_moved", "B", "lower", lambda s: s.counter("nn.kernels.bytes_moved"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("nn.quantization.busy_s", "s", "lower", lambda s: s.busy("nn.quantization"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.mapping.busy_s", "s", "lower", lambda s: s.busy("core.mapping"),
     ("attack_warm:wall_s", "cold_row:wall_s")),
    ("core.mapping.candidate_bits", "count", "higher",
     lambda s: s.counter("core.mapping.candidate_bits"), ("attack_warm:wall_s", "cold_row:wall_s")),
    ("faults.profiles.busy_s", "s", "lower", lambda s: s.busy("faults.profiles"),
     ("cold_row:wall_s", "daemon_campaign:job_latency_s.p90")),
    ("experiments.queue.submit.busy_s", "s", "lower", lambda s: s.busy("experiments.queue.submit"),
     ("daemon_campaign:jobs_per_s", "daemon_campaign:job_latency_s.p50")),
    ("experiments.queue.wait_s", "s", "lower", lambda s: s.counter("experiments.queue.wait_s"),
     ("daemon_campaign:jobs_per_s", "daemon_campaign:job_latency_s.p50")),
    ("experiments.service.run_s", "s", "lower", lambda s: s.busy("experiments.service.run"),
     ("daemon_campaign:jobs_per_s", "daemon_campaign:job_latency_s.p50")),
    ("experiments.store.save.busy_s", "s", "lower", lambda s: s.busy("experiments.store.save"),
     ("daemon_campaign:jobs_per_s", "daemon_campaign:job_latency_s.p50")),
    ("experiments.store.bytes_written", "B", "lower",
     lambda s: s.counter("experiments.store.bytes_written"),
     ("daemon_campaign:jobs_per_s", "daemon_campaign:job_latency_s.p50")),
    ("experiments.store.load.busy_s", "s", "lower", lambda s: s.busy("experiments.store.load"),
     ("daemon_campaign:jobs_per_s", "daemon_campaign:job_latency_s.p50")),
    ("experiments.fsck.busy_s", "s", "lower", lambda s: s.busy("experiments.fsck"),
     ("daemon_campaign:jobs_per_s", "daemon_campaign:job_latency_s.p50")),
    ("dram.timeline.busy_s", "s", "lower", lambda s: s.busy("dram.timeline"),
     ("daemon_campaign:job_latency_s.p50",)),
    ("dram.timeline.windows", "count", "lower", lambda s: s.counter("dram.timeline.windows"),
     ("daemon_campaign:job_latency_s.p50",)),
    ("faults.profiler.busy_s", "s", "lower", lambda s: s.busy("faults.profiler"),
     ("daemon_campaign:job_latency_s.p50",)),
    ("faults.sweep.busy_s", "s", "lower", lambda s: s.busy("faults.sweep"),
     ("daemon_campaign:job_latency_s.p50",)),
    ("defenses.evaluation.busy_s", "s", "lower", lambda s: s.busy("defenses.evaluation"),
     ("daemon_campaign:job_latency_s.p50",)),
    ("experiments.cache.hits", "count", "higher", lambda s: s.counter("experiments.cache.hits"),
     ("daemon_campaign:job_latency_s.p90",)),
    ("experiments.cache.misses", "count", "lower", lambda s: s.counter("experiments.cache.misses"),
     ("daemon_campaign:job_latency_s.p90",)),
    ("experiments.registry.hits", "count", "higher", lambda s: s.counter("experiments.registry.hits"),
     ("daemon_campaign:job_latency_s.p90",)),
    ("experiments.registry.misses", "count", "lower",
     lambda s: s.counter("experiments.registry.misses"), ("daemon_campaign:job_latency_s.p90",)),
    ("trace.overhead_s", "s", "lower", lambda s: s.counter("trace.overhead_s"),
     ("cold_row:wall_s", "attack_warm:wall_s", "daemon_campaign:wall_s")),
)


class Tracer:
    """In-memory span recorder over patched layer functions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (thread name, that thread's span records) per tracing thread.
        self._threads: List[Tuple[str, List[list]]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Timestamps keyed by an identifier (job id -> submit time).
        self.marks: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _thread_state(self) -> Tuple[List[list], List[int]]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.current_thread().name, spans))
        return spans, local.stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def mark(self, key: str) -> None:
        with self._lock:
            self.marks[key] = time.perf_counter()

    def _wrap(self, name: str, fn: Callable, on_exit: Optional[Callable]) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self._thread_state()
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(self, args, kwargs, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # vars() keeps a classmethod's descriptor, so restoring is exact.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, name: str, module: str, attr: str, on_exit) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(name, original, on_exit)
        for mod_name, mod in list(sys.modules.items()):
            # The benchmark's own modules import layer functions by name too.
            if mod is None or mod_name.split(".")[0] not in ("repro", "perfbench"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _patch_method(self, name: str, module: str, qualname: str, on_exit) -> None:
        class_name, attr = qualname.split(".")
        root = getattr(importlib.import_module(module), class_name)
        pending, seen = [root], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(klass, attr, classmethod(self._wrap(name, raw.__func__, on_exit)))
            else:
                self._set(klass, attr, self._wrap(name, raw, on_exit))

    def install(self) -> None:
        """Wrap every binding of every declared layer function."""
        for name, bindings, on_exit, _ in SPANS:
            for binding in bindings:
                module, target = binding.split(":")
                if "." in target:
                    self._patch_method(name, module, target, on_exit)
                else:
                    self._patch_function(name, module, target, on_exit)

    def uninstall(self) -> None:
        """Restore every patched binding (reverse order)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summarising ---------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Every span with its self time; parents index the same thread."""
        out: List[Dict[str, Any]] = []
        with self._lock:
            threads = list(self._threads)
        for thread_name, spans in threads:
            child_time = [0.0] * len(spans)
            for record in spans:
                if record[3] >= 0:
                    child_time[record[3]] += record[2] - record[1]
            base = len(out)
            for index, (name, start, end, parent) in enumerate(spans):
                out.append({
                    "name": name,
                    "thread": thread_name,
                    "start": start,
                    "end": end,
                    "parent": parent + base if parent >= 0 else -1,
                    "self_s": (end - start) - child_time[index],
                })
        return out

    def summary(self) -> Summary:
        """Per-name calls, busy and self seconds.

        Busy time and calls count only a name's outermost spans, so a
        method that calls its overridden parent (same span name) is not
        counted twice.
        """
        records = self.records()
        rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for record in records:
            row = rows[record["name"]]
            row["self_s"] += record["self_s"]
            parent = record["parent"]
            nested = False
            while parent >= 0:
                if records[parent]["name"] == record["name"]:
                    nested = True
                    break
                parent = records[parent]["parent"]
            if not nested:
                row["calls"] += 1
                row["busy_s"] += record["end"] - record["start"]
        with self._lock:
            counters = dict(self.counters)
        return Summary(dict(rows), counters)


def layer_metrics(summary: Summary) -> Dict[str, Dict[str, Any]]:
    """Every declared per-layer metric, ``{name: {"value", "unit"}}``."""
    return {
        name: {"value": float(value(summary)), "unit": unit}
        for name, unit, _, value, _ in LAYER_METRICS
    }


def silent_spans(summary: Summary, workload: str) -> List[str]:
    """Declared spans that should have fired on ``workload`` but did not."""
    return [
        name for name, active in ACTIVE.items()
        if workload in active and summary.calls(name) == 0
    ]


def write_trace(path: Path, tracer: Tracer, summary: Summary, meta: Dict[str, Any]) -> None:
    """Write the spans (with self time), per-name totals and run metadata."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "meta": meta,
        "layers": summary.rows,
        "counters": summary.counters,
        "spans": tracer.records(),
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))
