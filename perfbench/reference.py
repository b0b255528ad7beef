"""Reference merges and output checks, written independently of the program.

The references follow the merge semantics the README states:

* TIES: keep the ``ceil(density * n)`` largest magnitudes per tensor (equal
  magnitudes keep the lower flat index), elect the sign of the weighted sum,
  average the values that carry the elected sign.  The trim uses a partition
  and a tie fill instead of the program's full sort.
* DARE: drop masks come from ``loramerge.rng.uniform_stream`` keyed by
  (seed, model label, layer name), survivors scaled by ``1 / (1 - p)``.
* KnOTS: float64 thin SVD of the layerwise concatenation ``[D_1 | ... | D_M]``.
  For adapter inputs the concatenation is ``[B_1 ... B_M] blockdiag(A_m)``;
  a QR of the stacked ``B`` gives the same singular triplets as the dense SVD
  for every nonzero singular value, and the rest are zero in exact
  arithmetic.  The trim counts against the dense component size
  ``min(d_out, M * d_in) * d_in``, as the dense path does.
* ``--refactor-rank R``: the rank-R output is judged by its reconstruction
  error against the Eckart-Young optimum of the reference merge, not by its
  factors.  The excess over the optimum grows with the square of the
  output's deviation, so its bound is tight: float32 rounding of a correct
  merge moves it by about 1e-15 (dense path) to 1e-7 (a float32 factored
  path, whose rounding flips a few TIES signs), against 1e-6 allowed.

Tolerances live in ``tolerances.json`` beside this file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gen import Inputs, Workload, read_container

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "tolerances.json")) as _fh:
    TOLERANCES = json.load(_fh)


def keep_count(density: float, size: int) -> int:
    """ceil(density * size) over the decimal value of ``density``."""
    return int(math.ceil(Fraction(repr(float(density))) * size))


def trim_ref(values: np.ndarray, keep: int) -> np.ndarray:
    """Keep the ``keep`` largest magnitudes; ties keep the lower flat index."""
    flat = values.ravel()
    if keep >= flat.size:
        return values.copy()
    mag = np.abs(flat)
    threshold = np.partition(mag, flat.size - keep)[flat.size - keep]
    mask = mag > threshold
    ties = np.flatnonzero(mag == threshold)[: keep - int(mask.sum())]
    mask[ties] = True
    return np.where(mask, flat, 0).reshape(values.shape)


def ties_ref(values: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Elect the weighted-sum sign and take the sign-consistent weighted mean."""
    weighted = [w * v.astype(np.float64) for w, v in zip(weights, values)]
    total = np.zeros(values[0].shape, dtype=np.float64)
    for x in weighted:
        total += x
    signs = np.sign(total)
    numer = np.zeros_like(total)
    denom = np.zeros_like(total)
    for w, x in zip(weights, weighted):
        match = (np.sign(x) == signs) & (signs != 0)  # weights are positive
        np.add(numer, x, out=numer, where=match)
        np.add(denom, w, out=denom, where=match)
    return np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0)


@dataclass
class Reference:
    """What a correct output of one workload must match."""

    # delta outputs: layer -> expected float32 delta
    delta: dict[str, np.ndarray] | None = None
    # adapter outputs: layer -> (expected float64 merge, Eckart-Young optimum error)
    lowrank: dict[str, tuple[np.ndarray, float]] | None = None


def build(workload: Workload, inputs: Inputs, seed: int) -> Reference:
    weights = np.ones(workload.models, dtype=np.float64)
    if "KNOTS" in workload.pipeline:
        return Reference(lowrank=_knots_ref(workload, inputs, weights))
    out = {}
    for layer, _, _ in workload.layers:
        if workload.kind == "adapter":
            scale = 1.0  # alpha == rank
            values = [
                (scale * (b.astype(np.float64) @ a.astype(np.float64))).astype(np.float32)
                for a, b in (m[layer] for m in inputs.models)
            ]
        else:
            values = [m[layer] for m in inputs.models]
        if "DARE" in workload.pipeline:
            values = [
                _dare_ref(v, seed, label, layer, workload.drop_rate)
                for v, label in zip(values, inputs.labels)
            ]
        keep = keep_count(workload.density, values[0].size)
        values = [trim_ref(v, keep) for v in values]
        out[layer] = ties_ref(values, weights).astype(np.float32)
    return Reference(delta=out)


def _dare_ref(values: np.ndarray, seed: int, label: str, layer: str, p: float) -> np.ndarray:
    from loramerge.rng import uniform_stream

    u = uniform_stream(seed, label, layer, values.size).reshape(values.shape)
    return np.where(u >= p, values.astype(np.float64) * (1.0 / (1.0 - p)), 0.0).astype(
        np.float32
    )


def _knots_ref(workload: Workload, inputs: Inputs, weights: np.ndarray) -> dict:
    rank = workload.refactor_rank
    out = {}
    for layer, d_out, d_in in workload.layers:
        pairs = [m[layer] for m in inputs.models]
        q, r = np.linalg.qr(np.hstack([b.astype(np.float64) for _, b in pairs]))
        k = workload.rank
        small = np.hstack(
            [r[:, m * k : (m + 1) * k] @ a.astype(np.float64) for m, (a, _) in enumerate(pairs)]
        )
        us, s, vt = np.linalg.svd(small, full_matrices=False)
        parts = np.hsplit(s[:, None] * vt, workload.models)
        keep = keep_count(workload.density, min(d_out, workload.models * d_in) * d_in)
        merged = ties_ref([trim_ref(p, keep) for p in parts], weights)
        expected = (q @ us) @ merged
        sigma = np.linalg.svd(merged, compute_uv=False)
        out[layer] = (expected, float(np.sqrt(np.sum(sigma[rank:] ** 2))))
    return out


def check(workload: Workload, ref: Reference, out_path: str) -> str | None:
    """Return None when ``out_path`` is a correct output, else the reason."""
    try:
        tensors, metadata = read_container(out_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    tol = TOLERANCES[workload.name]
    if ref.delta is not None:
        if sorted(tensors) != sorted(layer + ".delta" for layer in ref.delta):
            return f"unexpected tensors {sorted(tensors)}"
        for layer, expected in ref.delta.items():
            got = tensors[layer + ".delta"]
            if got.shape != expected.shape:
                return f"{layer}: shape {got.shape} != {expected.shape}"
            scale = float(np.sqrt(np.mean(expected.astype(np.float64) ** 2))) or 1.0
            close = np.isclose(got, expected, rtol=tol["rtol"], atol=tol["atol_rms"] * scale)
            bad = close.size - int(np.count_nonzero(close))
            if bad > tol["max_bad_fraction"] * close.size:
                return f"{layer}: {bad} of {close.size} entries outside tolerance"
        return None
    rank = workload.refactor_rank
    if metadata.get("rank") != str(rank):
        return f"adapter rank {metadata.get('rank')!r} != {rank}"
    scale = float(metadata["alpha"]) / rank
    for layer, (expected, optimum) in ref.lowrank.items():
        a, b = tensors.get(layer + ".lora_A"), tensors.get(layer + ".lora_B")
        if a is None or b is None or a.shape != (rank, expected.shape[1]) or b.shape != (
            expected.shape[0],
            rank,
        ):
            return f"{layer}: missing or misshapen factors"
        error = float(np.linalg.norm(scale * (b.astype(np.float64) @ a.astype(np.float64)) - expected))
        limit = optimum * (1 + tol["optimum_rtol"])
        if error > limit:
            return f"{layer}: rank-{rank} error {error:.6g} exceeds {limit:.6g} (optimum {optimum:.6g})"
    return None
