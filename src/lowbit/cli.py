"""Command-line surface: calibrate | quantize | compare | verify.

Configuration is a flags/JSON hybrid: built-in defaults are overlaid by an
optional ``--config`` JSON file, then by explicitly passed flags. The merged
effective configuration is written next to every output and embedded in
artifact metadata, so any artifact can be reproduced from its own header.

Exit codes: 0 success, 2 configuration, file or format error, 3 numerical
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
from collections.abc import Callable
from dataclasses import replace
from functools import partial

from .calib import SyntheticSpec, activation_entries, generate_synthetic
from .engines import LayerBundle, PreparedLayer, run_engine
from .errors import ConfigError, LowbitError, NumericalError, TensorFormatError
from .linalg import HessianState
from .quantizer import ENGINES, FIRST_ORDER_SIGNS, EngineConfig
from .report import compare_table
from .tensorio import TensorFile, save_quantized, save_tensors
from .verification import run_checks

__all__ = ["main", "build_parser"]

OUTDIR_ENV = "LOWBIT_OUTDIR"

HESSIAN_SUFFIX = ".hessian.safetensors"
QUANTIZED_SUFFIX = ".quantized.safetensors"

_ENGINE_DEFAULTS = EngineConfig(engine="foem").to_dict()
# an unset damp_ratio is read from the selected layers' Hessian headers
_RUN_DEFAULTS = {
    "weights": None, "hessians": None, "out": None, "layers": [], **_ENGINE_DEFAULTS, "damp_ratio": None
}

_DEFAULTS = {
    "calibrate": {
        "weights": None,
        "activations": None,
        "synthetic": None,
        "out": None,
        "layers": [],
        "damp_ratio": _ENGINE_DEFAULTS["damp_ratio"],
    },
    "quantize": _RUN_DEFAULTS,
    "compare": {**_RUN_DEFAULTS, "engines": None},
    "verify": {
        "out": None,
        "tol_scale": 1.0,
        "seed": 0,
    },
}


def _check_types(effective: dict) -> None:
    """Refuse a value outside the engine fields (``EngineConfig.from_dict``
    checks those) whose JSON type or range is wrong; a path or list may be None."""
    for key, value in effective.items():
        if key in ("weights", "hessians", "out", "synthetic"):
            ok, what = value is None or isinstance(value, str), "a string"
        elif key in ("activations", "layers", "engines"):
            ok = value is None or isinstance(value, list) and all(isinstance(v, str) for v in value)
            what = "a list of strings"
        elif key == "tol_scale":
            # written so that NaN fails too, and an int too large for a float
            ok = type(value) in (int, float) and 0 < value <= sys.float_info.max
            what = "a finite number > 0"
        elif key == "seed":
            ok, what = type(value) is int and value >= 0, "an integer >= 0"
        else:
            continue
        if not ok:
            raise ConfigError(f"{key} must be {what}, got {value!r}")


def _merged_config(args: argparse.Namespace, command: str) -> dict:
    """defaults < config file < explicit flags."""
    effective = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        unknown = set(loaded) - set(effective) - {"command"}
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
        effective.update({k: v for k, v in loaded.items() if k in effective})
    for key in effective:
        value = getattr(args, key, None)
        if value is not None:
            effective[key] = value
    if effective.get("out") is None:
        effective["out"] = os.environ.get(OUTDIR_ENV)
    _check_types(effective)
    return effective


def _require(effective: dict, *keys: str) -> None:
    for key in keys:
        if effective.get(key) in (None, []):
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_config(effective: dict) -> str:
    """Create the output directory; return the content-determining slice of
    the config (everything but the output location) that gets embedded in
    artifact metadata, so artifact bytes do not depend on where the run
    wrote."""
    os.makedirs(effective["out"], exist_ok=True)
    content = {k: v for k, v in effective.items() if k != "out"}
    return json.dumps(content, sort_keys=True)


def _write_effective_config(effective: dict, command: str) -> None:
    """Write the full effective config next to the outputs, after the last
    of them, so a run that fails part way leaves none behind."""
    _write_json(os.path.join(effective["out"], "effective_config.json"), dict(effective, command=command))


def _discover_layers(weights: TensorFile, patterns: list[str]) -> list[str]:
    """The selected layers, sorted; each one's weight entry must be 2-D."""
    layers = sorted(
        name[: -len(".weight")] for name in weights.names if name.endswith(".weight")
    )
    if patterns:
        layers = [
            layer
            for layer in layers
            if any(fnmatch.fnmatchcase(layer, pat) for pat in patterns)
        ]
    if not layers:
        raise ConfigError("no layers matched (weights entries must be named '<layer>.weight')")
    for layer in layers:
        shape = weights.shape(layer + ".weight")
        if len(shape) != 2:
            raise TensorFormatError(
                f"{weights.path}: {layer}.weight must be 2-D (d_out x d_in), got shape {shape}"
            )
    return layers


def _parse_synthetic(text: str) -> SyntheticSpec:
    """Parse a '--synthetic' spec into a one-channel template; the caller sets
    each layer's d_in and seed. A malformed or out-of-range value is a
    ConfigError."""
    types = {"n_tokens": int, "rho": float, "seed": int}
    spec = {"rho": 0.9, "seed": 0}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad synthetic spec fragment {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown synthetic spec key {key!r}")
        try:
            spec[key] = types[key](value)
        except ValueError:
            raise ConfigError(f"bad synthetic spec value {key}={value!r}") from None
    if "n_tokens" not in spec:
        raise ConfigError("synthetic spec needs n_tokens (e.g. 'n_tokens=512,rho=0.9,seed=0')")
    try:
        return SyntheticSpec(d_in=1, **spec)
    except ValueError as exc:
        raise ConfigError(f"bad synthetic spec: {exc}") from None


def _parse_engine_token(token: str, effective: dict) -> tuple[str, EngineConfig]:
    """'foem(plus)' -> label and config; bare names use the configured sign."""
    name, sign = token, effective["first_order_sign"]
    if token.endswith(")") and "(" in token:
        name, rest = token.split("(", 1)
        sign = rest[:-1]
    fields = {k: effective[k] for k in _ENGINE_DEFAULTS}
    return token, EngineConfig.from_dict(dict(fields, engine=name, first_order_sign=sign))


def _open_hessians(
    effective: dict, weights: TensorFile, layers: list[str]
) -> dict[str, Callable[[], HessianState]]:
    """Each layer's Hessian loader, its file's header checked: the file
    exists, its ``hessian`` entry is d_in x d_in and its metadata has
    ``n_samples``, a non-negative JSON integer. No payload is read; the
    loader reads the entry one band of rows at a time
    (``HessianState.from_rows``), so no dense d x d copy of it is made.

    An unset ``damp_ratio`` is set to the value the headers record, a
    header without one counting as the default. A recorded value the
    engines would refuse, or headers that disagree, are a ConfigError. A
    value already set is kept and the recorded ones are not read.
    """
    loaders, recorded = {}, set()
    for layer in layers:
        d_in = weights.shape(layer + ".weight")[1]
        path = os.path.join(effective["hessians"], layer + HESSIAN_SUFFIX)
        if not os.path.exists(path):
            raise ConfigError(f"missing Hessian file {path}")
        tf = TensorFile.open(path)
        if tf.shape("hessian") != (d_in, d_in):
            raise TensorFormatError(f"{path}: hessian must be {d_in} x {d_in}, got {tf.shape('hessian')}")
        raw = tf.metadata.get("n_samples")
        if raw is None:
            raise TensorFormatError(f"{path}: metadata has no n_samples")
        try:
            n_samples = json.loads(raw)
        except json.JSONDecodeError:
            n_samples = None
        # bool is an int subclass, so the type is compared exactly
        if type(n_samples) is not int or n_samples < 0:
            raise TensorFormatError(
                f"{path}: n_samples must be a non-negative JSON integer, got {raw!r}"
            )
        if effective["damp_ratio"] is None:
            raw = tf.metadata.get("damp_ratio")
            try:
                value = _ENGINE_DEFAULTS["damp_ratio"] if raw is None else json.loads(raw)
                recorded.add(EngineConfig.from_dict({"damp_ratio": value}).damp_ratio)
            except (json.JSONDecodeError, ConfigError) as exc:
                raise ConfigError(f"{path}: recorded damp_ratio {raw!r} is invalid: {exc}") from None
        loaders[layer] = partial(HessianState.from_rows, d_in, n_samples, partial(tf.load_rows, "hessian"))
    if len(recorded) > 1:
        raise ConfigError(
            f"the Hessian headers record different damp_ratio values {sorted(recorded)}; "
            "pass --damp-ratio to choose one"
        )
    if recorded:
        (effective["damp_ratio"],) = recorded
    return loaders


def cmd_calibrate(args: argparse.Namespace) -> int:
    effective = _merged_config(args, "calibrate")
    _require(effective, "weights", "out")
    have_acts = bool(effective["activations"])
    have_synth = effective["synthetic"] is not None
    if have_acts == have_synth:
        raise ConfigError("supply exactly one of --activations and --synthetic")
    # the recorded damping must be one the engines accept
    EngineConfig.from_dict({"damp_ratio": effective["damp_ratio"]})
    weights = TensorFile.open(effective["weights"])
    layers = _discover_layers(weights, effective["layers"])
    d_ins = {layer: weights.shape(layer + ".weight")[1] for layer in layers}

    if have_acts:
        act_files = [TensorFile.open(p) for p in effective["activations"]]
        shards = {layer: activation_entries(act_files, layer) for layer in layers}
        for layer, entries in shards.items():
            if not entries:
                raise ConfigError(f"no activation shards found for layer {layer!r}")
            n_tokens = 0
            for tf, name in entries:
                shape = tf.shape(name)
                if len(shape) != 2 or shape[0] != d_ins[layer]:
                    raise TensorFormatError(
                        f"{tf.path}: {name} must be {d_ins[layer]} x n_tokens, got shape {shape}"
                    )
                n_tokens += shape[1]
            # a Hessian of no samples cannot be damped, so quantize would refuse it
            if n_tokens == 0:
                raise TensorFormatError(f"the activation shards of layer {layer!r} hold no tokens")
    else:
        synth = _parse_synthetic(effective["synthetic"])
        for layer, d_in in d_ins.items():
            if d_in < 1:
                raise ConfigError(f"layer {layer!r} has no input columns; --synthetic needs d_in >= 1")
    config_blob = _run_config(effective)

    for idx, layer in enumerate(layers):
        d_in = d_ins[layer]
        state = HessianState(d_in)
        if have_acts:
            for tf, name in shards[layer]:
                state.accumulate(tf.load(name))
        else:
            spec = replace(synth, d_in=d_in, seed=synth.seed + idx)
            state.accumulate(generate_synthetic(spec))
        path = os.path.join(effective["out"], layer + HESSIAN_SUFFIX)
        save_tensors(
            path,
            {"hessian": state.matrix},
            metadata={
                "format": "lowbit-hessian-v1",
                "layer": json.dumps(layer),
                "n_samples": json.dumps(state.n_samples),
                "damp_ratio": json.dumps(effective["damp_ratio"]),
                "run_config": config_blob,
            },
        )
        print(f"calibrated {layer}: d_in={d_in}, n_samples={state.n_samples} -> {path}")
    _write_effective_config(effective, "calibrate")
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    effective = _merged_config(args, "quantize")
    _require(effective, "weights", "hessians", "out")
    weights = TensorFile.open(effective["weights"])
    layers = _discover_layers(weights, effective["layers"])
    hessians = _open_hessians(effective, weights, layers)
    engine_cfg = EngineConfig.from_dict({k: effective[k] for k in _ENGINE_DEFAULTS})
    config_blob = _run_config(effective)

    # one call per layer, so a layer's arrays are freed before the next loads
    def one(layer: str):
        hessian = hessians[layer]()
        bundle = LayerBundle(weights.load(layer + ".weight"))
        quantized, rep = run_engine(bundle, hessian, engine_cfg, layer_name=layer)
        quantized.extra["run_config"] = json.loads(config_blob)
        save_quantized(quantized, os.path.join(effective["out"], layer + QUANTIZED_SUFFIX))
        _write_json(os.path.join(effective["out"], layer + ".report.json"), rep.to_dict())
        return rep

    for rep in map(one, layers):
        print(
            f"quantized {rep.layer} [{rep.engine}, {rep.bits}-bit]: "
            f"proxy_loss={rep.proxy_loss:.6g} rtn_relative={rep.rtn_relative:.4f} "
            f"({rep.wall_time_s:.2f}s)"
        )
    _write_effective_config(effective, "quantize")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    effective = _merged_config(args, "compare")
    _require(effective, "weights", "hessians", "out", "engines")
    tokens = effective["engines"]
    if len(tokens) < 2:
        raise ConfigError("compare needs at least two engines")
    repeated = sorted({tok for tok in tokens if tokens.count(tok) > 1})
    if repeated:
        raise ConfigError(f"repeated engine tokens: {repeated}")
    weights = TensorFile.open(effective["weights"])
    layers = _discover_layers(weights, effective["layers"])
    hessians = _open_hessians(effective, weights, layers)
    parsed = [_parse_engine_token(tok, effective) for tok in tokens]
    _run_config(effective)
    # tokens differ only in engine and sign, so they share grid and damping
    shared = parsed[0][1]

    def one(layer: str):
        hessian = hessians[layer]()
        prepared = PreparedLayer(
            weights.load(layer + ".weight"), hessian, shared.grid(), shared.damp_ratio
        )
        out = []
        for label, cfg in parsed:
            # only the report is kept, so no run's codes outlive it
            rep = prepared.run(cfg, layer_name=layer)[1]
            rep.engine = label
            out.append(rep)
        return out

    reports = [rep for layer in layers for rep in one(layer)]
    csv_path = os.path.join(effective["out"], "compare.csv")
    json_path = os.path.join(effective["out"], "compare_summary.json")
    _, summary = compare_table(reports, csv_path, json_path)
    _write_json(os.path.join(effective["out"], "compare_reports.json"), [rep.to_dict() for rep in reports])
    _write_effective_config(effective, "compare")
    for eng in sorted(summary["engines"]):
        stats = summary["engines"][eng]
        print(
            f"{eng}: mean_proxy_loss={stats['mean_proxy_loss']:.6g} "
            f"mean_rtn_relative={stats['mean_rtn_relative']:.4f} wins={stats['wins']}"
        )
    print(f"table -> {csv_path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    effective = _merged_config(args, "verify")
    results = run_checks(tol_scale=float(effective["tol_scale"]), seed=int(effective["seed"]))
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    if effective["out"]:
        os.makedirs(effective["out"], exist_ok=True)
        _write_json(
            os.path.join(effective["out"], "verify_report.json"),
            {
                "tol_scale": effective["tol_scale"],
                "seed": effective["seed"],
                "passed": not failed,
                "checks": [res.__dict__ for res in results],
            },
        )
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 4 if failed else 0


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=ENGINES, help="quantization engine")
    p.add_argument("--bits", type=int, help="code width in bits (2-8)")
    p.add_argument("--group-size", dest="group_size", type=int, help="input channels per scale group")
    p.add_argument(
        "--asymmetric",
        dest="symmetric",
        action="store_false",
        default=None,
        help="use an asymmetric grid with zero points",
    )
    p.add_argument("--block-size", dest="block_size", type=int, help="columns per lazy-update block, and the reach of foem's first-order term (foem at block size 1 is gptq)")
    p.add_argument("--beta", type=float, help="drift-to-gradient scale for the first-order engines")
    p.add_argument(
        "--damp-ratio",
        dest="damp_ratio",
        type=float,
        help="Hessian damping as a fraction of the mean diagonal (default: the value the "
        f"Hessian headers record, {_ENGINE_DEFAULTS['damp_ratio']} where they record none)",
    )
    p.add_argument(
        "--first-order-sign",
        dest="first_order_sign",
        choices=FIRST_ORDER_SIGNS,
        help="sign of the first-order correction",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowbit",
        description="Error-compensated low-bit weight quantization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="accumulate per-layer calibration Hessians")
    p_cal.add_argument("--weights", help="safetensors file with '<layer>.weight' entries")
    p_cal.add_argument("--activations", nargs="+", help="tensor files with '<layer>.input[.<shard>]' entries, each d_in x n_tokens")
    p_cal.add_argument(
        "--synthetic",
        help="synthetic activation spec, e.g. 'n_tokens=512,rho=0.9,seed=0' "
        "(per-layer seed = seed + index of the layer in sorted order)",
    )
    p_cal.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV})")
    p_cal.add_argument("--layers", nargs="*", help="glob patterns selecting layers")
    p_cal.add_argument("--damp-ratio", dest="damp_ratio", type=float, help=f"damping ratio recorded in each Hessian header and run_config (default {_ENGINE_DEFAULTS['damp_ratio']}); quantize and compare apply it unless given their own --damp-ratio")
    p_cal.add_argument("--config", help="JSON config file (flags override it)")
    p_cal.set_defaults(func=cmd_calibrate)

    p_q = sub.add_parser("quantize", help="quantize layers against calibrated Hessians")
    p_q.add_argument("--weights", help="safetensors file with '<layer>.weight' entries")
    p_q.add_argument("--hessians", help="directory holding '<layer>.hessian.safetensors'")
    p_q.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV})")
    p_q.add_argument("--layers", nargs="*", help="glob patterns selecting layers")
    p_q.add_argument("--config", help="JSON config file (flags override it)")
    _add_engine_flags(p_q)
    p_q.set_defaults(func=cmd_quantize)

    p_c = sub.add_parser("compare", help="run several engines from the same Hessians")
    p_c.add_argument("--weights", help="safetensors file with '<layer>.weight' entries")
    p_c.add_argument("--hessians", help="directory holding '<layer>.hessian.safetensors'")
    p_c.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV})")
    p_c.add_argument("--layers", nargs="*", help="glob patterns selecting layers")
    p_c.add_argument(
        "--engines",
        nargs="+",
        help="engine tokens, e.g. rtn gptq foem 'foem(plus)' 'foem(minus)'",
    )
    p_c.add_argument("--config", help="JSON config file (flags override it)")
    _add_engine_flags(p_c)
    p_c.set_defaults(func=cmd_compare)

    p_v = sub.add_parser("verify", help="run the numerical verification suite")
    p_v.add_argument("--tol-scale", dest="tol_scale", type=float, help="multiply all scalable thresholds")
    p_v.add_argument("--seed", type=int, help="base seed for generated instances")
    p_v.add_argument("--out", help="directory for verify_report.json")
    p_v.add_argument("--config", help="JSON config file (flags override it)")
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TensorFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except LowbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
