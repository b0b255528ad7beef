"""Traced merge: ``loramerge merge`` run in-process with its layers timed.

Run as a child process by ``run.py --trace 1``:

    python3 perfbench/trace_child.py job.json

The job holds a run id, the ``loramerge`` command line of one merge and the
trace file.  Before calling ``loramerge.cli.run`` on that command line, the
module attributes the program looks up are replaced by wrappers that time
each call as a span (name, start, end, parent, run id) and take counts after
it: container reads and writes, adapter load/densify/refactor/save, the DARE
draws, and the merge steps (``dare_prune``, ``_trim_values``, ``_elect``,
``_disjoint``, ``knots_transform``, ``knots_merge`` and ``merge`` itself).
The spans and ``merging.peak_alloc_mb`` are therefore the program's own.
Counts run outside the spans, and their temporaries are kept out of the
tracemalloc peaks.  Spans and counts stay in memory and are written to the
trace file at exit.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._held = 0  # traced peak before the last ``aside``

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def start_peak(self) -> int:
        """Start a tracemalloc peak window; returns the current traced size."""
        self._held = 0
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def window_peak(self) -> int:
        return max(self._held, tracemalloc.get_traced_memory()[1])

    def aside(self, count, *args) -> None:
        """Run ``count(*args)`` without its temporaries entering the peak."""
        self._held = self.window_peak()
        count(*args)
        tracemalloc.reset_peak()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` with a version that runs inside a span."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if count is not None:
                self.aside(count, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)


def _nonzero(delta) -> int:
    return sum(int(np.count_nonzero(b.values)) for b in delta.layers.values())


def _svd_flops(rows: int, cols: int) -> float:
    """Thin SVD (U1, S, V) flop count, R-SVD column of Golub & Van Loan."""
    m, n = max(rows, cols), min(rows, cols)
    return 6.0 * m * n * n + 20.0 * n**3


def install(tracer: Tracer) -> None:
    """Wrap every boundary the traced merge reports."""
    from loramerge import adapters, cli, container, merging

    def read_bytes(result, path):
        tracer.add("read_bytes", sum(a.nbytes for a in result[0].values()))

    def write_bytes(result, path, tensors, metadata=None):
        tracer.add("write_bytes", sum(np.asarray(t).size * 4 for t in tensors.values()))

    def densify_flops(result, adapter):
        tracer.add(
            "densify_flop",
            sum(2 * b.shape[0] * adapter.rank * a.shape[1] for a, b in adapter.layers.values()),
        )

    def draws(result, *args):
        tracer.add("draws", result.size)

    def dare_counts(result, delta, *args):
        tracer.add("dare_in", _nonzero(delta))
        tracer.add("dare_kept", _nonzero(result))

    def trim_counts(result, values, density):
        tracer.add("trim_in", np.count_nonzero(values))
        tracer.add("trim_kept", np.count_nonzero(result))

    def elect_counts(signs, values, weights):
        pos = np.zeros(signs.shape, dtype=bool)
        neg = np.zeros(signs.shape, dtype=bool)
        for v in values:
            pos |= v > 0
            neg |= v < 0
        tracer.add("sign_conflicts", np.count_nonzero(pos & neg))
        tracer.add("sign_touched", np.count_nonzero(pos | neg))

    def disjoint_counts(result, values, signs, weights):
        for v in values:
            tracer.add("disjoint_used", np.count_nonzero((np.sign(v) == signs) & (signs != 0)))
            tracer.add("disjoint_nonzero", np.count_nonzero(v))

    def knots_flops(result, deltas):
        tracer.add(
            "knots_svd_flop",
            sum(_svd_flops(b.shape[0], b.shape[1] * len(deltas)) for b in deltas[0].layers.values()),
        )

    read = container.read_tensors

    def read_with_peak(path):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = read(path)
        tracer.peak("read_peak_bytes", tracemalloc.get_traced_memory()[1] - base)
        return result

    whole = merging.merge

    def merge_with_peak(deltas, config):
        base = tracer.start_peak()
        result = whole(deltas, config)
        tracer.peak("merge_peak_bytes", tracer.window_peak() - base)
        return result

    container.read_tensors = read_with_peak
    merging.merge = merge_with_peak
    tracer.wrap(container, "read_tensors", "container.read", read_bytes)
    tracer.wrap(container, "write_tensors", "container.write", write_bytes)
    tracer.wrap(cli, "load_as_delta", "adapters.load")
    tracer.wrap(adapters, "compute_delta", "adapters.densify", densify_flops)
    tracer.wrap(cli, "refactor_to_adapter", "adapters.refactor")
    tracer.wrap(cli, "save_adapter", "adapters.save")
    tracer.wrap(cli, "save_delta", "adapters.save")
    tracer.wrap(merging, "merge", "merging.merge")
    tracer.wrap(merging, "dare_prune", "merging.dare", dare_counts)
    tracer.wrap(merging, "uniform_stream", "rng.draw", draws)
    tracer.wrap(merging, "_trim_values", "merging.trim", trim_counts)
    tracer.wrap(merging, "_elect", "merging.elect", elect_counts)
    tracer.wrap(merging, "_disjoint", "merging.disjoint", disjoint_counts)
    tracer.wrap(merging, "knots_transform", "merging.knots_transform", knots_flops)
    tracer.wrap(merging, "knots_merge", "merging.knots_merge")


def run(job: dict) -> tuple[int, dict]:
    tracer = Tracer(job["run_id"])
    tracemalloc.start()
    from loramerge import cli

    install(tracer)
    with tracer.span("run"):
        code = cli.run(job["argv"])
    tracemalloc.stop()
    return code, {"run": tracer.run_id, "spans": tracer.spans, "counts": tracer.counts}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    code, trace = run(job)
    with open(job["trace"], "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
