import json
import math
import os
import struct
import threading
from pathlib import Path

import numpy as np

import loramerge
from loramerge import DeltaMap, LoraAdapter, TensorBlock


def pytest_configure(config):
    # `python -m loramerge` children must import the package under test, also
    # from a checkout that is not installed (see `pythonpath` in pyproject.toml)
    src = str(Path(loramerge.__file__).resolve().parent.parent)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def write_raw_container(path, header: dict, payload: bytes) -> None:
    """Low-level writer for crafting malformed container files in tests."""
    blob = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


def failing_on_call(inner, number, error):
    """Wrap ``inner`` so that its ``number``-th call, counted over all
    threads, raises ``error``; the other calls go through."""
    lock = threading.Lock()
    calls = [0]

    def wrapper(*args):
        with lock:
            calls[0] += 1
            count = calls[0]
        if count == number:
            raise error
        return inner(*args)

    return wrapper


def random_adapter(rng, layers=2, rank=2, max_dim=6, label="x", dims=None) -> LoraAdapter:
    """Random adapter; pass dims=[(d_in, d_out), ...] to pin layer geometry."""
    if dims is None:
        dims = [
            (int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1)))
            for _ in range(layers)
        ]
    built = {}
    for i, (d_in, d_out) in enumerate(dims):
        name = f"layer{i}"
        built[name] = (
            TensorBlock(f"{name}.lora_A", rng.standard_normal((rank, d_in)).astype(np.float32)),
            TensorBlock(f"{name}.lora_B", rng.standard_normal((d_out, rank)).astype(np.float32)),
        )
    alpha = float(rng.choice([rank, 2 * rank, 0.5 * rank]))
    return LoraAdapter(built, rank, alpha, label)


def random_delta(rng, shapes=None, label="x") -> DeltaMap:
    if shapes is None:
        shapes = {f"layer{i}": (int(rng.integers(1, 7)), int(rng.integers(1, 7))) for i in range(2)}
    return DeltaMap.from_arrays(
        {name: rng.standard_normal(shape).astype(np.float32) for name, shape in shapes.items()},
        label=label,
    )


def random_delta_set(rng, count, layers=2, max_dim=8, labels=None) -> list[DeltaMap]:
    shapes = {
        f"layer{i}": (int(rng.integers(1, max_dim + 1)), int(rng.integers(1, max_dim + 1)))
        for i in range(layers)
    }
    labels = labels or [f"m{i}" for i in range(count)]
    return [random_delta(rng, shapes=shapes, label=labels[i]) for i in range(count)]


def deltas_bitwise_equal(a: DeltaMap, b: DeltaMap) -> bool:
    if sorted(a.layers) != sorted(b.layers):
        return False
    return all(
        a.layers[k].shape == b.layers[k].shape
        and a.layers[k].values.tobytes() == b.layers[k].values.tobytes()
        for k in a.layers
    )


def ties_reference(model_values, weights, density):
    """Entrywise brute-force TIES oracle: sort-trim, weighted sign election,
    same-sign weighted mean.  Pure Python, independent of the engine.

    Densities passed here must be binary-exact (0.25, 0.5, ...) so the
    naive ceil agrees with the engine's decimal-exact trim count.
    """
    n = len(model_values[0])
    keep = math.ceil(density * n)
    trimmed = []
    for values in model_values:
        order = sorted(range(n), key=lambda i: (-abs(values[i]), i))
        kept = set(order[:keep])
        trimmed.append([v if i in kept else 0.0 for i, v in enumerate(values)])
    out = []
    for i in range(n):
        total = sum(w * m[i] for w, m in zip(weights, trimmed))
        sign = (total > 0) - (total < 0)
        if sign == 0:
            out.append(0.0)
            continue
        numer = denom = 0.0
        for w, m in zip(weights, trimmed):
            if ((m[i] > 0) - (m[i] < 0)) == sign:
                numer += w * m[i]
                denom += w
        out.append(numer / denom if denom else 0.0)
    return out


def adapters_equal(a: LoraAdapter, b: LoraAdapter) -> bool:
    if (a.rank, a.alpha, a.label) != (b.rank, b.alpha, b.label):
        return False
    if sorted(a.layers) != sorted(b.layers):
        return False
    for k in a.layers:
        for x, y in zip(a.layers[k], b.layers[k]):
            if x.shape != y.shape or x.values.tobytes() != y.values.tobytes():
                return False
    return True
