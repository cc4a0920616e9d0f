"""Workload definitions: shapes, seeded inputs, the timed pass and the output checks.

Every workload is a closed loop with one client: passes run back to back
in a single process. All use 3-bit codes, groups of 128, blocks of 128,
beta 3e-4 and damping 0.01.

* ``cli-block`` drives ``lowbit.cli.main`` through calibrate -> quantize
  (foem) -> compare (rtn, gptq, foem) on one transformer-like block. It is
  the only workload that reaches cli, tensorio, calib shard discovery and
  ``HessianState.accumulate``; the mixed shapes put d_out != d_in on both
  sides, and compare re-factors one Hessian per engine.
* ``layer-foem-square`` calls ``run_engine(foem)`` on one 2048 x 2048
  layer, where the first-order column loop and block boundary dominate.
* ``layer-gptq-wide`` calls ``run_engine(gptq)`` on one 512 x 4096 layer,
  where factorization, Hessian mirroring and the report dominate and the
  drift path is never taken (the bypass workload for foem-only changes).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

CONFIG = {"bits": 3, "group_size": 128, "block_size": 128, "beta": 3e-4, "damp_ratio": 0.01}
COMPENSATING = ("gptq", "foem")

# input generator: rank of the correlated part, its gain, lognormal channel spread
RANK, RANK_GAIN, CHANNEL_SIGMA = 32, 4.0, 0.5


def activations(rng: np.random.Generator, d: int, n_tokens: int) -> np.ndarray:
    """(d x n_tokens) correlated activations, made the cheap way.

    A low-rank-plus-identity mixing (I + U U^T) is applied to Gaussian
    tokens, times lognormal per-channel scales that make a few channels
    dominate, as in real layer inputs. That costs O(d * rank * tokens)
    instead of the two d x d QR factorizations of
    ``lowbit.calib.generate_synthetic``.
    """
    u = rng.standard_normal((d, RANK)) * np.sqrt(RANK_GAIN / d)
    scale = rng.lognormal(0.0, CHANNEL_SIGMA, size=d)
    g = rng.standard_normal((d, n_tokens))
    return scale[:, None] * (g + u @ (u.T @ g))


def weight(rng: np.random.Generator, d_out: int, d_in: int) -> np.ndarray:
    return (rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)).astype(np.float32)


@dataclass(frozen=True)
class Layer:
    name: str
    d_out: int
    d_in: int


@dataclass
class PassResult:
    """What one pass did: its wall time, operations, failures and outputs.

    An operation is one CLI command or one ``run_engine`` call; ``failures``
    maps each failed operation to what went wrong with it.
    """

    wall_s: float = 0.0
    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)
    fingerprint: dict[tuple[str, str], str] = field(default_factory=dict)  # (op, file) -> sha256
    rtn_relative: list[float] = field(default_factory=list)

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_report(res: PassResult, op: str, rep: dict) -> None:
    where = f"{rep['layer']} [{rep['engine']}]"
    if not math.isfinite(rep["proxy_loss"]):
        res.fail(op, f"{where}: proxy loss {rep['proxy_loss']} is not finite")
    if rep["engine"] in COMPENSATING and not rep["rtn_relative"] < 1.0:
        res.fail(op, f"{where}: rtn_relative {rep['rtn_relative']} is not below 1")


class Workload:
    name: str
    layers: tuple[Layer, ...]
    engine_runs: tuple[tuple[str, Layer], ...]

    def weights_per_pass(self) -> int:
        """Sum of d_out * d_in over every engine run in one pass."""
        return sum(layer.d_out * layer.d_in for _, layer in self.engine_runs)

    def coverage_problems(self, counts: dict[str, int], rtn_groups: int) -> list[str]:
        """Wrapper-coverage check of one traced pass against its shapes.

        ``counts`` are the calls recorded per span name and ``rtn_groups``
        the column groups of the ``rtn_quantize`` calls recorded. Counts the
        algorithm fixes are exact: one ``quantize_values`` per column of each
        gptq/foem run plus one per group of each RTN call, and one block
        boundary per block of each gptq/foem run. How often the program
        computes a factor, an RTN baseline or calls ``run_engine`` is its own
        choice (a factor may be shared across engines, a baseline computed
        once per layer), so those get only a lower bound.
        """
        B = CONFIG["block_size"]
        comp = [layer for engine, layer in self.engine_runs if engine in COMPENSATING]
        exact = {
            "quantizer.quantize_values": sum(layer.d_in for layer in comp) + rtn_groups,
            "engines.foem_block_boundary": sum(-(-layer.d_in // B) for layer in comp),
        }
        at_least = {
            "linalg.inverse_cholesky": len(set(comp)),  # one per compensated layer
            "quantizer.rtn_quantize": 1,
            "engines.run_engine": 1,
        }
        problems = [f"saw {counts[name]} calls of {name}, the workload's shapes imply {want}"
                    for name, want in exact.items() if counts[name] != want]
        problems += [f"saw {counts[name]} calls of {name}, the workload's shapes imply at least {want}"
                     for name, want in at_least.items() if counts[name] < want]
        return problems

    def streams(self, seed: int) -> list[np.random.Generator]:
        """One independent random stream per layer, fixed by the seed."""
        return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(self.layers))]

    def generate(self, seed: int, inputs: str, save_tensors) -> None:
        """Write the workload's input files into ``inputs``."""
        raise NotImplementedError

    def prepare(self, lowbit, inputs: str, work: str) -> None:
        raise NotImplementedError

    def run_pass(self, region=contextlib.nullcontext) -> PassResult:
        """Run and check one pass; ``region()`` is entered around the timed
        calls only, so that tracing never sees the output checks."""
        raise NotImplementedError


BLOCK_LAYERS = (  # d_model 512, d_ff 1408
    Layer("blk0.attn.k", 512, 512),
    Layer("blk0.attn.o", 512, 512),
    Layer("blk0.attn.q", 512, 512),
    Layer("blk0.attn.v", 512, 512),
    Layer("blk0.mlp.down", 512, 1408),
    Layer("blk0.mlp.up", 1408, 512),
)
COMPARE_ENGINES = ("rtn", "gptq", "foem")


class CliBlock(Workload):
    name = "cli-block"
    shards, tokens_per_shard = 2, 1024
    layers = BLOCK_LAYERS
    # quantize --engine foem, then compare over every engine
    engine_runs = tuple(("foem", layer) for layer in BLOCK_LAYERS) + tuple(
        (engine, layer) for layer in BLOCK_LAYERS for engine in COMPARE_ENGINES
    )

    def generate(self, seed: int, inputs: str, save_tensors) -> None:
        weights, shards = {}, [{} for _ in range(self.shards)]
        for rng, layer in zip(self.streams(seed), self.layers):
            weights[layer.name + ".weight"] = weight(rng, layer.d_out, layer.d_in)
            for k, shard in enumerate(shards):
                x = activations(rng, layer.d_in, self.tokens_per_shard)
                shard[f"{layer.name}.input.{k}"] = x.astype(np.float32)
        save_tensors(os.path.join(inputs, "model.safetensors"), weights)
        for k, shard in enumerate(shards):
            save_tensors(os.path.join(inputs, f"acts{k}.safetensors"), shard)

    def prepare(self, lowbit, inputs: str, work: str) -> None:
        self.cli = lowbit.cli
        self.load_quantized = lowbit.tensorio.load_quantized
        self.TensorFile = lowbit.tensorio.TensorFile
        self.weights = os.path.join(inputs, "model.safetensors")
        self.acts = [os.path.join(inputs, f"acts{k}.safetensors") for k in range(self.shards)]
        # the same output paths every pass: artifacts embed the config,
        # which names the Hessian directory
        self.out = os.path.join(work, "out")
        self.hess, self.quant, self.cmp = (
            os.path.join(self.out, sub) for sub in ("hessians", "quantized", "compare")
        )
        flags = [
            "--bits", str(CONFIG["bits"]),
            "--group-size", str(CONFIG["group_size"]),
            "--block-size", str(CONFIG["block_size"]),
            "--beta", repr(CONFIG["beta"]),
            "--damp-ratio", repr(CONFIG["damp_ratio"]),
        ]
        self.commands = [  # (operation, argv, output check)
            ("calibrate", ["calibrate", "--weights", self.weights, "--activations", *self.acts,
                           "--out", self.hess, "--damp-ratio", repr(CONFIG["damp_ratio"])],
             self._check_calibrate),
            ("quantize", ["quantize", "--weights", self.weights, "--hessians", self.hess,
                          "--out", self.quant, "--engine", "foem", *flags],
             self._check_quantize),
            ("compare", ["compare", "--weights", self.weights, "--hessians", self.hess,
                         "--out", self.cmp, "--engines", *COMPARE_ENGINES, *flags],
             self._check_compare),
        ]

    def run_pass(self, region=contextlib.nullcontext) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        res = PassResult()
        exit_codes, errors = {}, {}
        sink = io.StringIO()
        with region(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            for label, argv, _ in self.commands:
                try:
                    exit_codes[label] = self.cli.main(argv)
                except Exception as exc:  # a crash is a failed operation, not a benchmark crash
                    exit_codes[label], errors[label] = None, exc
            res.wall_s = time.perf_counter() - t0
        res.attempted = len(self.commands)
        for label, _, check in self.commands:
            if exit_codes[label] != 0:
                res.fail(label, f"exit code {exit_codes[label]} {errors.get(label, '')}".rstrip())
                continue
            try:
                check(res)
            except Exception as exc:  # unreadable or malformed output
                res.fail(label, f"output check raised {type(exc).__name__}: {exc}")
        return res

    def _check_calibrate(self, res: PassResult) -> None:
        for layer in self.layers:
            path = os.path.join(self.hess, layer.name + ".hessian.safetensors")
            H = self.TensorFile.open(path).load("hessian")
            if H.shape != (layer.d_in, layer.d_in) or not np.isfinite(H).all():
                res.fail("calibrate", f"{layer.name}: Hessian has shape {H.shape} or non-finite entries")
            res.fingerprint["calibrate", path] = _sha256(path)

    def _check_quantize(self, res: PassResult) -> None:
        for layer in self.layers:
            path = os.path.join(self.quant, layer.name + ".quantized.safetensors")
            q = self.load_quantized(path)
            if q.codes.shape != (layer.d_out, layer.d_in):
                res.fail("quantize", f"{layer.name}: codes have shape {q.codes.shape}")
            res.fingerprint["quantize", path] = _sha256(path)
            with open(os.path.join(self.quant, layer.name + ".report.json"), encoding="utf-8") as fh:
                _check_report(res, "quantize", json.load(fh))

    def _check_compare(self, res: PassResult) -> None:
        with open(os.path.join(self.cmp, "compare_reports.json"), encoding="utf-8") as fh:
            reports = json.load(fh)
        seen = [(rep["layer"], rep["engine"]) for rep in reports]
        wanted = {(layer.name, engine) for layer in self.layers for engine in COMPARE_ENGINES}
        if set(seen) != wanted or len(seen) != len(wanted):
            res.fail("compare", f"reports cover {sorted(seen)}, expected {sorted(wanted)}")
        for rep in reports:
            _check_report(res, "compare", rep)
            if rep["engine"] in COMPENSATING:
                res.rtn_relative.append(rep["rtn_relative"])


class SingleLayer(Workload):
    def __init__(self, name: str, engine: str, layer: Layer, n_tokens: int):
        self.name = name
        self.engine = engine
        self.layers = (layer,)
        self.engine_runs = ((engine, layer),)
        self.n_tokens = n_tokens

    def generate(self, seed: int, inputs: str, save_tensors) -> None:
        ((rng, layer),) = zip(self.streams(seed), self.layers)
        save_tensors(os.path.join(inputs, "weight.safetensors"), {"weight": weight(rng, layer.d_out, layer.d_in)})
        x = activations(rng, layer.d_in, self.n_tokens)
        save_tensors(
            os.path.join(inputs, "hessian.safetensors"),
            {"hessian": x @ x.T},
            metadata={"format": "lowbit-hessian-v1", "n_samples": json.dumps(self.n_tokens)},
        )

    def prepare(self, lowbit, inputs: str, work: str) -> None:
        tensorio = lowbit.tensorio
        self.lowbit = lowbit
        (layer,) = self.layers
        self.W = tensorio.TensorFile.open(os.path.join(inputs, "weight.safetensors")).load("weight")
        hf = tensorio.TensorFile.open(os.path.join(inputs, "hessian.safetensors"))
        self.hessian = lowbit.HessianState.from_matrix(
            hf.load("hessian"), int(json.loads(hf.metadata["n_samples"]))
        )
        self.config = lowbit.EngineConfig(engine=self.engine, **CONFIG)
        self.artifact = os.path.join(work, layer.name + ".quantized.safetensors")

    def run_pass(self, region=contextlib.nullcontext) -> PassResult:
        lb = self.lowbit
        res = PassResult(attempted=1)
        with region():
            t0 = time.perf_counter()
            try:
                quantized, report = lb.run_engine(lb.LayerBundle(self.W), self.hessian, self.config)
            except Exception as exc:  # a crash is a failed operation, not a benchmark crash
                res.fail("run_engine", f"{type(exc).__name__}: {exc}")
            res.wall_s = time.perf_counter() - t0
        if res.failures:
            return res
        _check_report(res, "run_engine", report.to_dict())
        res.rtn_relative.append(report.rtn_relative)
        try:
            lb.save_quantized(quantized, self.artifact)
            back = lb.load_quantized(self.artifact)
            if back.codes.shape != self.W.shape or not np.array_equal(back.codes, quantized.codes):
                res.fail("run_engine", "artifact does not reload to the same codes")
            res.fingerprint["run_engine", self.artifact] = _sha256(self.artifact)
        except Exception as exc:  # unwritable or unreadable artifact
            res.fail("run_engine", f"artifact round trip raised {type(exc).__name__}: {exc}")
        return res


WORKLOADS = {
    "cli-block": CliBlock,
    "layer-foem-square": lambda: SingleLayer(
        "layer-foem-square", "foem", Layer("layer", 2048, 2048), n_tokens=4096
    ),
    "layer-gptq-wide": lambda: SingleLayer(
        "layer-gptq-wide", "gptq", Layer("layer", 512, 4096), n_tokens=4096
    ),
}
