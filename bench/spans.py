"""Spans recorded from outside lowbit, by wrapping its functions and methods.

lowbit binds names at import (``cli`` imports ``run_engine``, ``engines``
imports ``quantize_values`` and ``inverse_cholesky``, ...), so a function
is replaced at every module of the package that holds it, not only where
it is defined. Methods and properties are replaced on their class. The
traced run then checks the recorded call counts against the counts the
workload's shapes imply (``Workload.coverage_problems``), so a site the
wrapping misses fails the run instead of reading as zero.

A span carries its name, start, end, parent span, pass id and a few
attributes (analytic flops or computed bytes, the engine, the tracemalloc
peak). Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

MB = 1e6


def _column_loop_flops(a: dict) -> int:
    """In-block work of ``_run_blocked``: for column j of a block ending at e,
    with k = e - j, error propagation costs 2*d_out*k; the first-order engines
    add T_s^T T_s (2*k^3) and drift @ M (2*d_out*k^2)."""
    d_out, d_in = a["bundle"].weights.shape
    B = a["config"].block_size
    first_order = a["config"].engine in ("foem", "foem_plus") and a["config"].beta != 0.0
    flops = 0
    for i in range(0, d_in, B):
        for k in range(1, min(B, d_in - i) + 1):
            flops += 2 * d_out * k
            if first_order:
                flops += 2 * k**3 + 2 * d_out * k**2
    return flops


def _boundary_flops(a: dict) -> int:
    d_out, d_in = a["bundle"].weights.shape
    b = a["block_end"] - a["block_start"]
    n_t = max(d_in - a["block_end"], 0)
    flops = 2 * d_out * b * n_t
    if a["beta"] != 0.0:
        flops += 4 * d_out * n_t**2
    return flops


def _proxy_loss_flops(a: dict) -> int:
    d_out, d_in = a["w_deq"].shape
    return 2 * d_out * d_in**2


def _accumulate_flops(a: dict) -> int:
    d, n = a["X"].shape
    return 2 * d * d * n


def _load_bytes(a: dict) -> int:
    entry = a["self"].entries[a["name"]]
    return entry.end - entry.begin


def _save_bytes(a: dict) -> int:
    return sum(arr.nbytes for arr in a["tensors"].values())


# (module, attribute, attributes from the bound call arguments, tracemalloc peak)
TARGETS = [
    ("cli", "cmd_calibrate", None, False),
    ("cli", "cmd_quantize", None, False),
    ("cli", "cmd_compare", None, False),
    ("tensorio", "TensorFile.open", None, False),
    ("tensorio", "TensorFile.load", lambda a: {"bytes": _load_bytes(a)}, False),
    ("tensorio", "save_tensors", lambda a: {"bytes": _save_bytes(a)}, False),
    ("tensorio", "save_quantized", None, False),
    ("calib", "activation_entries", None, False),
    ("linalg", "HessianState.accumulate", lambda a: {"flops": _accumulate_flops(a)}, False),
    ("linalg", "HessianState.matrix", lambda a: {"bytes": 24 * a["self"].dim ** 2}, False),
    ("linalg", "HessianState.dampen", None, False),
    ("linalg", "inverse_cholesky", lambda a: {"flops": 2 * a["state"].dim ** 3 / 3}, True),
    ("engines", "run_engine", lambda a: {"engine": a["config"].engine}, True),
    ("engines", "_run_blocked", lambda a: {"flops": _column_loop_flops(a)}, False),
    ("engines", "foem_block_boundary", lambda a: {"flops": _boundary_flops(a)}, False),
    ("quantizer", "quantize_values", None, False),
    ("quantizer", "rtn_quantize", lambda a: {"groups": a["grid"].n_groups(a["weights"].shape[1])}, False),
    ("quantizer", "QuantizedLayer.dequantize", None, False),
    ("quantizer", "fit_scales", None, False),
    ("report", "proxy_loss", lambda a: {"flops": _proxy_loss_flops(a)}, False),
    ("report", "compare_table", None, False),
]

FORMULAS = {
    "linalg.accumulate_gflops": "2*d^2*n per HessianState.accumulate of a (d x n) block (dense product count)",
    "linalg.matrix_mb": "24*d^2 bytes per HessianState.matrix read (three d x d float64 temporaries), computed",
    "linalg.inverse_cholesky_gflops": "(2/3)*d^3 per inverse_cholesky (potrf d^3/3 + trtri d^3/3)",
    "engines.column_loop_gflops": "sum over in-block columns, k = block_end - j: 2*d_out*k, "
    "plus 2*k^3 + 2*d_out*k^2 for foem",
    "engines.boundary_gflops": "2*d_out*b*n_t, plus 4*d_out*n_t^2 for foem (b block width, n_t trailing columns)",
    "report.proxy_loss_gflops": "2*d_out*d_in^2 per proxy_loss",
    "tensorio.load_mb": "payload bytes of each TensorFile.load, computed from the header",
    "tensorio.save_mb": "sum of array nbytes handed to save_tensors, computed",
    "*_gflops": "analytic flops / self time of the span; self time excludes wrapped children",
    "*_peak_mb": "tracemalloc peak above the allocation level at span entry",
}


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self):
        # [id, name, start, end, parent, pass_id, attrs]
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._peaks: list[list[int]] = []  # [base, highest peak seen before a child reset]
        self.pass_id: int | None = None

    def call(self, name, fn, args, kwargs, signature, attrs_fn, peak):
        if self.pass_id is None:
            return fn(*args, **kwargs)
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, 0.0, 0.0, parent, self.pass_id, {}]
        self.spans.append(span)
        self._stack.append(span)
        if attrs_fn is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span[6] = attrs_fn(bound.arguments)
        if peak:
            current, highest = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], highest)
            tracemalloc.reset_peak()
            self._peaks.append([current, current])
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            if peak:
                base, before = self._peaks.pop()
                highest = max(before, tracemalloc.get_traced_memory()[1])
                span[6]["peak_bytes"] = highest - base
                if self._peaks:
                    self._peaks[-1][1] = max(self._peaks[-1][1], highest)
            self._stack.pop()

    @contextlib.contextmanager
    def recording(self, pass_id: int):
        """Record spans, with tracemalloc on, for the duration of the block."""
        self.pass_id = pass_id
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()
            self.pass_id = None

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "pass", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class Instrumentation:
    """Installs the wrappers into the imported lowbit package and removes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs_fn, peak):
        rec, sig = self.recorder, inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(name, fn, args, kwargs, sig, attrs_fn, peak)

        return wrapper

    def install(self) -> None:
        package = [m for key, m in sys.modules.items() if key == "lowbit" or key.startswith("lowbit.")]
        for module_name, attr, attrs_fn, peak in TARGETS:
            module = importlib.import_module("lowbit." + module_name)
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, attrs_fn, peak))
                elif isinstance(raw, property):
                    new = property(self._wrap(name, raw.fget, attrs_fn, peak), raw.fset, raw.fdel, raw.__doc__)
                else:
                    new = self._wrap(name, raw, attrs_fn, peak)
                self._undo.append((cls, member, raw))
                setattr(cls, member, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, attrs_fn, peak)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def _self_times(spans: list[list]) -> list[float]:
    child = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - child[span[0]] for span in spans]


def call_counts(spans: list[list], pass_id: int) -> tuple[dict[str, int], int]:
    """Calls per span name in one pass, and the column groups its
    ``rtn_quantize`` calls covered."""
    counts: dict[str, int] = defaultdict(int)
    rtn_groups = 0
    for span in spans:
        if span[5] == pass_id:
            counts[span[1]] += 1
            rtn_groups += span[6].get("groups", 0)
    return counts, rtn_groups


def layer_metrics(spans: list[list], n_passes: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the recorded spans."""
    selfs = _self_times(spans)
    by_id = {span[0]: span for span in spans}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    flops: dict[str, float] = defaultdict(float)
    nbytes: dict[str, float] = defaultdict(float)
    peak: dict[str, float] = defaultdict(float)
    engine_s: dict[str, float] = defaultdict(float)
    column_steps = 0
    for span, own in zip(spans, selfs):
        name, attrs = span[1], span[6]
        self_s[name] += own
        calls[name] += 1
        flops[name] += attrs.get("flops", 0)
        nbytes[name] += attrs.get("bytes", 0)
        peak[name] = max(peak[name], attrs.get("peak_bytes", 0))
        if name == "engines.run_engine":
            engine_s[attrs["engine"]] += own
        if name == "quantizer.quantize_values" and span[4] is not None:
            column_steps += by_id[span[4]][1] == "engines._run_blocked"

    def per_pass(value):
        return value / n_passes

    def gflops(name):
        return flops[name] / self_s[name] / 1e9 if self_s[name] > 0 else 0.0

    return {
        "cli.calibrate_s": per_pass(self_s["cli.cmd_calibrate"]),
        "cli.quantize_s": per_pass(self_s["cli.cmd_quantize"]),
        "cli.compare_s": per_pass(self_s["cli.cmd_compare"]),
        "tensorio.load_s": per_pass(self_s["tensorio.open"] + self_s["tensorio.load"]),
        "tensorio.load_mb": per_pass(nbytes["tensorio.load"] / MB),
        "tensorio.save_s": per_pass(self_s["tensorio.save_tensors"] + self_s["tensorio.save_quantized"]),
        "tensorio.save_mb": per_pass(nbytes["tensorio.save_tensors"] / MB),
        "calib.activation_entries_calls": per_pass(calls["calib.activation_entries"]),
        "linalg.accumulate_s": per_pass(self_s["linalg.accumulate"]),
        "linalg.accumulate_gflops": gflops("linalg.accumulate"),
        "linalg.matrix_reads": per_pass(calls["linalg.matrix"]),
        "linalg.matrix_s": per_pass(self_s["linalg.matrix"]),
        "linalg.matrix_mb": per_pass(nbytes["linalg.matrix"] / MB),
        "linalg.dampen_calls": per_pass(calls["linalg.dampen"]),
        "linalg.inverse_cholesky_calls": per_pass(calls["linalg.inverse_cholesky"]),
        "linalg.inverse_cholesky_s": per_pass(self_s["linalg.inverse_cholesky"]),
        "linalg.inverse_cholesky_gflops": gflops("linalg.inverse_cholesky"),
        "linalg.inverse_cholesky_peak_mb": peak["linalg.inverse_cholesky"] / MB,
        "engines.column_loop_s": per_pass(self_s["engines._run_blocked"]),
        "engines.column_loop_gflops": gflops("engines._run_blocked"),
        "engines.column_steps": per_pass(column_steps),
        "engines.boundary_s": per_pass(self_s["engines.foem_block_boundary"]),
        "engines.boundary_calls": per_pass(calls["engines.foem_block_boundary"]),
        "engines.boundary_gflops": gflops("engines.foem_block_boundary"),
        "engines.run_engine_s.rtn": per_pass(engine_s["rtn"]),
        "engines.run_engine_s.gptq": per_pass(engine_s["gptq"]),
        "engines.run_engine_s.foem": per_pass(engine_s["foem"]),
        "engines.run_engine_calls": per_pass(calls["engines.run_engine"]),
        "engines.run_engine_peak_mb": peak["engines.run_engine"] / MB,
        "quantizer.quantize_values_s": per_pass(self_s["quantizer.quantize_values"]),
        "quantizer.quantize_values_calls": per_pass(calls["quantizer.quantize_values"]),
        "quantizer.rtn_quantize_s": per_pass(self_s["quantizer.rtn_quantize"]),
        "quantizer.rtn_quantize_calls": per_pass(calls["quantizer.rtn_quantize"]),
        "quantizer.dequantize_s": per_pass(self_s["quantizer.dequantize"]),
        "quantizer.fit_scales_s": per_pass(self_s["quantizer.fit_scales"]),
        "report.proxy_loss_s": per_pass(self_s["report.proxy_loss"]),
        "report.proxy_loss_calls": per_pass(calls["report.proxy_loss"]),
        "report.proxy_loss_gflops": gflops("report.proxy_loss"),
        "report.compare_table_s": per_pass(self_s["report.compare_table"]),
    }
