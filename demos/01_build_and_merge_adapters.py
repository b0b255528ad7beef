#!/usr/bin/env python3
"""Walkthrough: build synthetic per-language adapters, save them, and merge.

Five "languages" get their own low-rank adapter over the same two layers.
We save them in the container format, reload, form deltas, and run all four
merge pipelines side by side.
"""

import tempfile
from pathlib import Path

import numpy as np

from loramerge import (
    LoraAdapter,
    MergeConfig,
    TensorBlock,
    compute_delta,
    load_as_delta,
    merge,
    save_adapter,
)

LANGUAGES = ["en", "de", "fr", "ja", "zh"]
RANK = 8
LAYER_DIMS = {"attn.q_proj": (64, 48), "mlp.down_proj": (32, 64)}  # d_out, d_in


def synthetic_adapter(rng, label):
    layers = {}
    for name, (d_out, d_in) in LAYER_DIMS.items():
        a = rng.standard_normal((RANK, d_in)).astype(np.float32) * 0.05
        b = rng.standard_normal((d_out, RANK)).astype(np.float32) * 0.05
        layers[name] = (TensorBlock(f"{name}.lora_A", a), TensorBlock(f"{name}.lora_B", b))
    return LoraAdapter(layers, rank=RANK, alpha=float(RANK), label=label)


def walkthrough(workdir):
    rng = np.random.default_rng(7)
    print(f"writing adapters to {workdir}\n")

    paths = []
    for language in LANGUAGES:
        path = workdir / f"{language}.tnsr"
        save_adapter(synthetic_adapter(rng, language), str(path))
        paths.append(path)

    # load_as_delta accepts adapter files and forms (alpha/rank) * B @ A
    deltas = [load_as_delta(str(p)) for p in paths]
    print("per-language delta norms:")
    for delta in deltas:
        total = sum(float(np.linalg.norm(b.values)) for b in delta.layers.values())
        print(f"  {delta.label}: {total:.3f}")

    print("\nmerged delta norms by pipeline (density=0.5, seed=42):")
    for pipeline in [("TIES",), ("KNOTS", "TIES"), ("DARE", "TIES"), ("DARE", "KNOTS", "TIES")]:
        config = MergeConfig(pipeline, density=0.5, seed=42)
        merged = merge(deltas, config)
        total = sum(float(np.linalg.norm(b.values)) for b in merged.layers.values())
        print(f"  {config.summary():55s} -> {total:.3f}")

    # upweighting one language pulls the merge toward it
    config = MergeConfig(("TIES",), density=1.0, weights=(5.0, 1.0, 1.0, 1.0, 1.0))
    merged = merge(deltas, config)
    en = compute_delta(synthetic_adapter(np.random.default_rng(7), "en"))
    layer = "attn.q_proj"
    agreement = np.sign(merged.layers[layer].values) == np.sign(en.layers[layer].values)
    print(f"\nsign agreement with 'en' after 5x upweighting: {agreement.mean():.1%}")


def main():
    with tempfile.TemporaryDirectory(prefix="loramerge-demo-") as workdir:
        walkthrough(Path(workdir))


if __name__ == "__main__":
    main()
