"""Outside-in benchmark of ``loramerge merge``.

    python3 perfbench/run.py --workload ties-adapters --seed 1 --seconds 25 --trace 0

Set-up writes the workload's seeded inputs (``gen.py``), builds the
reference output (``reference.py``) and warms the interpreter's bytecode
cache; it is repeated ``SETUP_REPEATS`` times and its median reported as
``setup_s``.  The timed part is a closed loop of one client: each
``python3 -m loramerge merge`` child is spawned after the previous one exits,
until ``--seconds`` have passed.  Every output is checked against the
reference, and repeats must be byte-identical; a failed or wrong merge is
counted, not fatal.  BLAS threading is left as the environment sets it
(OpenBLAS defaults to one thread per core) and recorded with the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates one
untraced merge with one traced merge (``trace_child.py``) and prints the
per-layer metrics from the traced spans; the span log goes to
``.perfbench_work/trace-<workload>-s<seed>.json``.  The last stdout line is
the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import struct
import sys
import time
from dataclasses import dataclass


class Spawner:
    """A small process that starts the program's children and reaps them.

    It is forked when this module is imported, before numpy or any input
    exists, and ``spawn`` sends it its requests over a pipe.  The reason is
    ``ru_maxrss``: glibc's ``posix_spawn`` runs the child on its parent's
    address space until exec, and Linux carries that address space's peak
    RSS into the child's at exec.  A child started from the runner itself
    would report at least the runner's own peak (inputs and reference in
    memory); one started from here reports at least a bare interpreter's.
    """

    def __init__(self) -> None:
        req_r, self._req = os.pipe()
        self._rep, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._req)
            os.close(self._rep)
            code = 0
            try:
                self._serve(req_r, rep_w)
            except BaseException:
                code = 1
            os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        atexit.register(self.stop)

    @staticmethod
    def _send(fd: int, doc: object) -> None:
        blob = json.dumps(doc).encode()
        data = memoryview(struct.pack("<I", len(blob)) + blob)
        while data:
            data = data[os.write(fd, data) :]

    @staticmethod
    def _read(fd: int, size: int) -> bytes | None:
        data = b""
        while len(data) < size:
            chunk = os.read(fd, size - len(data))
            if not chunk:
                return None
            data += chunk
        return data

    @classmethod
    def _recv(cls, fd: int) -> object | None:
        head = cls._read(fd, 4)
        blob = head and cls._read(fd, struct.unpack("<I", head)[0])
        return None if blob is None else json.loads(blob)

    @classmethod
    def _serve(cls, req: int, rep: int) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the runner decides when to stop
        while (job := cls._recv(req)) is not None:
            fd = os.open(job["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                start = time.perf_counter()
                pid = os.posix_spawn(
                    job["argv"][0],
                    job["argv"],
                    job["env"],
                    file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)],
                    setsigdef=(signal.SIGINT,),
                )
            finally:
                os.close(fd)
            cls._send(rep, {"pid": pid})
            _, status, usage = os.wait4(pid, 0)
            seconds = time.perf_counter() - start
            cls._send(rep, {"seconds": seconds, "status": status, "maxrss": usage.ru_maxrss * 1024})

    def run(self, argv: list[str], env: dict, log: str) -> dict:
        self._send(self._req, {"argv": argv, "env": env, "log": log})
        started = self._recv(self._rep)
        if started is None:
            raise ChildProcessError("the spawner process has stopped")
        try:
            done = self._recv(self._rep)
        except BaseException:
            os.kill(started["pid"], signal.SIGKILL)
            self._recv(self._rep)
            raise
        if done is None:
            raise ChildProcessError("the spawner process has stopped")
        return done

    def stop(self) -> None:
        if self.pid:
            os.close(self._req)  # end of requests: the spawner exits
            os.close(self._rep)
            os.waitpid(self.pid, 0)
            self.pid = 0


SPAWNER = Spawner()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import reference  # noqa: E402
from gen import WORKLOADS, Inputs, Workload, generate  # noqa: E402

SETUP_REPEATS = 3
STARTUP_SAMPLES = 5
MB = 1e6
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OPENBLAS_CORETYPE",
)


class ProgramMissing(Exception):
    """The program under test cannot be found or started."""


@dataclass
class Child:
    seconds: float
    exit_code: int
    max_rss: int  # bytes
    log: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], log_path: str) -> Child:
    """Run ``python3 *args`` to completion from the spawner, timed from spawn to exit."""
    done = SPAWNER.run([sys.executable, *args], _child_env(), log_path)
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        log = fh.read().strip()
    return Child(done["seconds"], os.waitstatus_to_exitcode(done["status"]), done["maxrss"], log)


def environment() -> dict:
    blas = getattr(getattr(np, "__config__", None), "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "machine": platform.machine(),
    }


def setup(workload: Workload, seed: int, work: str) -> tuple[Inputs, reference.Reference, list[float]]:
    """Generate inputs, build the reference and warm up; repeated, timed each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        inputs = ref = None  # free the previous repeat's arrays before making new ones
        start = time.perf_counter()
        inputs = generate(workload, seed, os.path.join(work, "in"))
        ref = reference.build(workload, inputs, seed)
        warm = spawn(["-m", "loramerge", "inspect", inputs.paths[0]], os.path.join(work, "warm.log"))
        if warm.exit_code != 0:
            raise ProgramMissing(f"loramerge does not start: {warm.log[-500:]}")
        times.append(time.perf_counter() - start)
    inputs.models = []  # the reference holds what the checks need
    return inputs, ref, times


@dataclass
class Merge:
    seconds: float
    max_rss: int
    digest: str | None
    error: str | None


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


class Checker:
    """Checks outputs against the reference; repeats must be byte-identical."""

    def __init__(self, workload: Workload, ref: reference.Reference) -> None:
        self.workload = workload
        self.ref = ref
        self.verdicts: dict[str, str | None] = {}

    def __call__(self, path: str) -> tuple[str | None, str | None]:
        digest = _digest(path)
        if digest is None:
            return None, "no output file"
        if digest not in self.verdicts:
            self.verdicts[digest] = (
                reference.check(self.workload, self.ref, path)
                if not self.verdicts
                else "output bytes differ from an earlier repeat"
            )
        return digest, self.verdicts[digest]


def merge_once(workload: Workload, inputs: Inputs, work: str, check: Checker) -> Merge:
    out = os.path.join(work, "out.tnsr")
    if os.path.exists(out):
        os.remove(out)
    child = spawn(
        ["-m", "loramerge", *workload.merge_args(inputs.config_path, out, inputs.paths)],
        os.path.join(work, "merge.log"),
    )
    if child.exit_code != 0:
        return Merge(child.seconds, child.max_rss, None, f"exit {child.exit_code}: {child.log[-300:]}")
    digest, error = check(out)
    return Merge(child.seconds, child.max_rss, digest, error)


def timed_merges(workload: Workload, inputs: Inputs, work: str, check: Checker, seconds: float) -> list[Merge]:
    """Closed loop, one client: start the next merge until ``seconds`` have passed."""
    merges = []
    start = time.perf_counter()
    while not merges or time.perf_counter() - start < seconds:
        merges.append(merge_once(workload, inputs, work, check))
    return merges


def end_to_end(workload: Workload, merges: list[Merge], setup_times: list[float]) -> tuple[dict, list[str]]:
    total = sum(m.seconds for m in merges)
    failed = sum(m.error is not None for m in merges)
    metrics = {
        "merge_s": (statistics.median(m.seconds for m in merges), "s"),
        "throughput_mentries_s": (workload.entries * len(merges) / total / 1e6, "Mentries/s"),
        "peak_rss_mb": (max(m.max_rss for m in merges) / MB, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    lines = [
        f"merge_s {metrics['merge_s'][0]:.4f} s (median of {len(merges)} merges)",
        f"throughput_mentries_s {metrics['throughput_mentries_s'][0]:.4f} Mentries/s "
        f"({workload.entries} entries per merge, {len(merges)} merges in {total:.3f} s)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB (largest of {len(merges)} children)",
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup_times)} set-ups)",
        f"failed_ratio {failed / len(merges):.4f} ({failed} of {len(merges)} merges)",
    ]
    return metrics, lines


def _times(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Summed durations by span name: the whole spans, and each minus the
    time its child spans cover."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for span in spans:
        took = span["end"] - span["start"]
        total[span["name"]] = total.get(span["name"], 0.0) + took
        own[span["name"]] = own.get(span["name"], 0.0) + took
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            own[parent] = own.get(parent, 0.0) - took
    return total, own


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced merge."""
    total, own = _times(trace["spans"])
    c = trace["counts"]

    def s(name: str) -> float:
        return own.get(name, 0.0)

    return {
        "container.read_s": (s("container.read"), "s"),
        "container.read_mb": (c.get("read_bytes", 0.0) / MB, "MB"),
        "container.read_peak_mb": (c.get("read_peak_bytes", 0.0) / MB, "MB"),
        "container.write_s": (s("container.write"), "s"),
        "container.write_mb": (c.get("write_bytes", 0.0) / MB, "MB"),
        "adapters.densify_s": (s("adapters.densify"), "s"),
        "adapters.densify_gflop": (c.get("densify_flop", 0.0) / 1e9, "GFLOP"),
        "adapters.refactor_s": (s("adapters.refactor"), "s"),
        "rng.draw_s": (s("rng.draw"), "s"),
        "rng.draws_m": (c.get("draws", 0.0) / 1e6, "million"),
        "merging.dare_s": (s("merging.dare"), "s"),
        "merging.dare_kept_ratio": (_ratio(c, "dare_kept", "dare_in"), "ratio"),
        "merging.trim_s": (s("merging.trim"), "s"),
        "merging.trim_kept_ratio": (_ratio(c, "trim_kept", "trim_in"), "ratio"),
        "merging.elect_s": (s("merging.elect"), "s"),
        "merging.sign_conflict_ratio": (_ratio(c, "sign_conflicts", "sign_touched"), "ratio"),
        "merging.disjoint_s": (s("merging.disjoint"), "s"),
        "merging.disjoint_used_ratio": (_ratio(c, "disjoint_used", "disjoint_nonzero"), "ratio"),
        "merging.knots_svd_s": (s("merging.knots_transform"), "s"),
        "merging.knots_svd_gflop": (c.get("knots_svd_flop", 0.0) / 1e9, "GFLOP"),
        "merging.knots_inner_s": (
            total.get("merging.knots_merge", 0.0) - total.get("merging.knots_transform", 0.0),
            "s",
        ),
        "merging.peak_alloc_mb": (c.get("merge_peak_bytes", 0.0) / MB, "MB"),
    }


def traced_merges(
    workload: Workload, inputs: Inputs, seed: int, work: str, check: Checker, seconds: float
) -> tuple[list[Merge], list[Merge], list[dict], list[float]]:
    """Startup samples, then alternate untraced and traced merges until ``seconds`` pass."""
    log = os.path.join(work, "trace.log")
    startup = [spawn(["-c", "import loramerge.cli"], log) for _ in range(STARTUP_SAMPLES)]
    if any(c.exit_code != 0 for c in startup):
        raise ProgramMissing(f"cannot import loramerge.cli: {startup[0].log[-500:]}")
    plain, traced, traces = [], [], []
    out = os.path.join(work, "traced.tnsr")
    job_path = os.path.join(work, "job.json")
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(merge_once(workload, inputs, work, check))
        job = {
            "run_id": f"{workload.name}-s{seed}-{len(traced)}",
            "argv": workload.merge_args(inputs.config_path, out, inputs.paths),
            "trace": os.path.join(work, "trace.json"),
        }
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        if os.path.exists(out):
            os.remove(out)
        child = spawn([os.path.join(HERE, "trace_child.py"), job_path], log)
        digest = error = None
        if child.exit_code != 0:
            error = f"traced run exit {child.exit_code}: {child.log[-300:]}"
        else:
            digest, error = check(out)
            if error is None and digest != plain[-1].digest:
                error = "traced output differs from the untraced output"
            with open(job["trace"], encoding="utf-8") as fh:
                traces.append(json.load(fh))
        traced.append(Merge(child.seconds, child.max_rss, digest, error))
    return plain, traced, traces, [c.seconds for c in startup]


NOTES = {
    "adapters.densify_gflop": " (computed: 2*d_out*r*d_in summed over layers and models)",
    "merging.knots_svd_gflop": " (computed: R-SVD count 6*m*n^2 + 20*n^3, m >= n, summed over layers)",
    "merging.dare_kept_ratio": " (realized kept fraction; DARE expects 1 - p)",
    "merging.knots_inner_s": " (knots_merge minus knots_transform)",
}


def per_layer(plain: list[Merge], traced: list[Merge], traces: list[dict], startup: list[float]) -> tuple[dict, list[str]]:
    samples = [layer_metrics(t) for t in traces] or [layer_metrics({"spans": [], "counts": {}})]
    metrics = {"cli.startup_s": (statistics.median(startup), "s")}
    for name, (_, unit) in samples[0].items():
        metrics[name] = (statistics.median(s[name][0] for s in samples), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(m.seconds for m in traced) / statistics.median(m.seconds for m in plain),
        "ratio",
    )
    lines = [f"{name} {value:.6g} {unit}{NOTES.get(name, '')}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"# {len(traces)} traced and {len(plain)} untraced merges; cli.startup_s over {len(startup)} imports"
    )
    return metrics, lines


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]

    if not os.path.isfile(os.path.join(SRC, "loramerge", "__init__.py")):
        print(f"error: no loramerge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{workload.name}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        inputs, ref, setup_times = setup(workload, args.seed, work)
        # what any child's ru_maxrss includes before it does any work
        floor = spawn(["-c", "pass"], os.path.join(work, "floor.log")).max_rss
        check = Checker(workload, ref)
        if args.trace:
            plain, traced, traces, startup = traced_merges(
                workload, inputs, args.seed, work, check, args.seconds
            )
            merges = plain + traced
            metrics, lines = per_layer(plain, traced, traces, startup)
            with open(os.path.join(WORK, f"trace-{workload.name}-s{args.seed}.json"), "w") as fh:
                json.dump({"runs": traces}, fh)
        else:
            merges = timed_merges(workload, inputs, work, check, args.seconds)
            metrics, lines = end_to_end(workload, merges, setup_times)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [m.error for m in merges if m.error is not None]
    for error in failed[:5]:
        print(f"failed: {error}", file=sys.stderr)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "input_files": len(inputs.paths),
        "input_bytes": inputs.bytes,
        "input_entries": workload.entries,
        "env": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "merge_seconds": [m.seconds for m in merges],
        "setup_seconds": setup_times,
        "spawn_floor_mb": floor / MB,
    }
    with open(os.path.join(WORK, f"result-{workload.name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    print(f"# workload {workload.name}: {workload.why}")
    print(
        f"# input {len(inputs.paths)} files, {inputs.bytes} bytes, {workload.entries} delta entries "
        f"(M x sum d_out*d_in)"
    )
    print(f"# spawn floor: python3 -c pass peaks at {floor / MB:.1f} MB through the same spawner")
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(merges),
                "failed": len(failed),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
