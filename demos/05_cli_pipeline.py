"""The full file-based pipeline, driven through the command-line surface.

Dumps a toy two-layer model to a weights container, calibrates synthetic
Hessians, quantizes with the first-order engine, runs a three-way engine
comparison, and finishes with the numerical verification suite. Everything
lands in a scratch directory that is printed at the end.

Run:  python demos/05_cli_pipeline.py
"""

import json
import os
import tempfile

import numpy as np

from lowbit.cli import main
from lowbit.tensorio import load_quantized, save_tensors

root = tempfile.mkdtemp(prefix="lowbit_demo_")
weights_path = os.path.join(root, "model.safetensors")
hessians = os.path.join(root, "hessians")
quantized = os.path.join(root, "quantized")
comparison = os.path.join(root, "comparison")

rng = np.random.default_rng(0)
save_tensors(
    weights_path,
    {
        "encoder.fc.weight": rng.standard_normal((96, 64)),
        "decoder.proj.weight": rng.standard_normal((64, 96)),
    },
)
print(f"wrote toy model -> {weights_path}\n")

print("--- lowbit calibrate ---")
rc = main([
    "calibrate", "--weights", weights_path,
    "--synthetic", "n_tokens=512,rho=0.9,seed=0",
    "--out", hessians,
])
assert rc == 0

print("\n--- lowbit quantize (foem, 3-bit, groups of 32) ---")
rc = main([
    "quantize", "--weights", weights_path, "--hessians", hessians,
    "--out", quantized, "--engine", "foem", "--bits", "3", "--group-size", "32",
])
assert rc == 0

layer = load_quantized(os.path.join(quantized, "encoder.fc.quantized.safetensors"))
print(
    f"\nreloaded encoder.fc: {layer.config.bits}-bit codes {layer.codes.shape}, "
    f"{layer.n_groups} groups/row, engine={layer.config.engine}"
)
report = json.loads(open(os.path.join(quantized, "encoder.fc.report.json")).read())
print(f"report: proxy_loss={report['proxy_loss']:.4f}, rtn_relative={report['rtn_relative']:.4f}")

print("\n--- lowbit compare (rtn vs gptq vs foem, both signs) ---")
rc = main([
    "compare", "--weights", weights_path, "--hessians", hessians,
    "--out", comparison, "--bits", "3", "--group-size", "32",
    "--engines", "rtn", "gptq", "foem(minus)", "foem(plus)",
])
assert rc == 0

print("\n--- lowbit verify ---")
rc = main(["verify", "--out", root])
print(f"verify exit code: {rc}")

print(f"\nall artifacts under {root}:")
for dirpath, _, files in sorted(os.walk(root)):
    for name in sorted(files):
        rel = os.path.relpath(os.path.join(dirpath, name), root)
        print(f"  {rel}")
