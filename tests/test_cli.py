import errno
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import types
from pathlib import Path

try:
    import resource
except ImportError:  # not POSIX
    resource = None

import numpy as np
import pytest

from loramerge import (
    DeltaMap,
    LoraAdapter,
    MergeConfig,
    NumericalError,
    TensorBlock,
    compute_delta,
    load_adapter,
    load_delta,
    merge,
    read_header,
    refactor_to_adapter,
    save_adapter,
    save_delta,
    write_tensors,
)
from loramerge import container, merging
from loramerge.cli import run
from conftest import (
    deltas_bitwise_equal,
    failing_on_call,
    random_adapter,
    threads_started,
    write_raw_container,
)


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(80)
    adapters = {}
    dims = [(5, 4), (3, 6)]
    for label in ("en", "de", "fr"):
        adapter = random_adapter(rng, rank=2, label=label, dims=dims)
        path = str(tmp_path / f"{label}.tnsr")
        save_adapter(adapter, path)
        adapters[label] = (adapter, path)
    config_path = str(tmp_path / "cfg.json")
    with open(config_path, "w") as fh:
        json.dump({"pipeline": ["TIES"], "density": 0.5}, fh)
    return tmp_path, adapters, config_path


class TestMergeCommand:
    def test_happy_path(self, workspace):
        tmp_path, adapters, config_path = workspace
        out = str(tmp_path / "merged.tnsr")
        paths = [path for _, path in adapters.values()]
        assert run(["merge", "--config", config_path, "--out", out, *paths]) == 0
        merged = load_delta(out)
        expected = merge(
            [compute_delta(a) for a, _ in adapters.values()],
            MergeConfig(("TIES",), density=0.5),
        )
        assert deltas_bitwise_equal(merged, expected)
        assert merged.label == "TIES(density=0.5)"

    def test_flag_overrides_config(self, workspace):
        tmp_path, adapters, config_path = workspace
        out = str(tmp_path / "merged.tnsr")
        paths = [path for _, path in adapters.values()]
        assert run(
            ["merge", "--config", config_path, "--density", "1.0", "--out", out, *paths]
        ) == 0
        assert load_delta(out).label == "TIES(density=1)"

    def test_accepts_precomputed_deltas(self, workspace):
        tmp_path, adapters, config_path = workspace
        delta_paths = []
        for label, (adapter, _) in adapters.items():
            path = str(tmp_path / f"{label}.delta.tnsr")
            save_delta(compute_delta(adapter), path)
            delta_paths.append(path)
        out_a = str(tmp_path / "from_adapters.tnsr")
        out_d = str(tmp_path / "from_deltas.tnsr")
        paths = [path for _, path in adapters.values()]
        assert run(["merge", "--config", config_path, "--out", out_a, *paths]) == 0
        assert run(["merge", "--config", config_path, "--out", out_d, *delta_paths]) == 0
        assert Path(out_a).read_bytes() == Path(out_d).read_bytes()

    def test_repeat_runs_byte_identical(self, workspace):
        tmp_path, adapters, config_path = workspace
        with open(config_path, "w") as fh:
            json.dump({"pipeline": ["DARE", "KNOTS", "TIES"], "density": 0.5, "seed": 9}, fh)
        paths = [path for _, path in adapters.values()]
        out1 = str(tmp_path / "m1.tnsr")
        out2 = str(tmp_path / "m2.tnsr")
        assert run(["merge", "--config", config_path, "--out", out1, *paths]) == 0
        assert run(["merge", "--config", config_path, "--out", out2, *paths]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_knots_needs_two_inputs(self, workspace, capsys):
        tmp_path, adapters, config_path = workspace
        with open(config_path, "w") as fh:
            json.dump({"pipeline": ["KNOTS", "TIES"]}, fh)
        out = str(tmp_path / "m.tnsr")
        (first_path,) = [path for _, path in list(adapters.values())[:1]]
        assert run(["merge", "--config", config_path, "--out", out, first_path]) == 1
        assert "error[parameter]:" in capsys.readouterr().err

    def test_missing_input_file_is_exit_2(self, workspace, capsys):
        tmp_path, _, config_path = workspace
        out = str(tmp_path / "m.tnsr")
        code = run(["merge", "--config", config_path, "--out", out, str(tmp_path / "nope.tnsr")])
        assert code == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_weights_flag(self, workspace):
        tmp_path, adapters, config_path = workspace
        out = str(tmp_path / "m.tnsr")
        paths = [path for _, path in adapters.values()]
        assert run(
            ["merge", "--config", config_path, "--weights", "1,2,3", "--out", out, *paths]
        ) == 0
        assert "weights=1,2,3" in load_delta(out).label

    def test_bad_weights_flag(self, workspace, capsys):
        tmp_path, adapters, config_path = workspace
        out = str(tmp_path / "m.tnsr")
        paths = [path for _, path in adapters.values()]
        assert run(
            ["merge", "--config", config_path, "--weights", "1,x", "--out", out, *paths]
        ) == 1
        assert "error[parameter]:" in capsys.readouterr().err

    def test_seed_flag_gives_the_bytes_of_the_config_seed(self, tmp_path):
        paths = _delta_files(tmp_path, 2, (6, 5))
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], seed=3)
        seeded = _write_config(tmp_path / "seeded.json", ["DARE", "TIES"], seed=1234)
        outs = {name: str(tmp_path / f"{name}.tnsr") for name in ("flag", "seeded", "config")}
        flagged = ["merge", "--config", config, "--seed", "1234", "--out", outs["flag"]]
        assert run([*flagged, *paths]) == 0
        assert run(["merge", "--config", seeded, "--out", outs["seeded"], *paths]) == 0
        assert run(["merge", "--config", config, "--out", outs["config"], *paths]) == 0
        flag, by_config, unseeded = (Path(out).read_bytes() for out in outs.values())
        assert flag == by_config
        assert flag != unseeded

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_flag_out_of_range(self, tmp_path, capsys, seed):
        paths = _delta_files(tmp_path, 1, (6, 5))
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"])
        out = str(tmp_path / "out.tnsr")
        assert run(["merge", "--config", config, "--seed", seed, "--out", out, *paths]) == 1
        assert capsys.readouterr().err == (
            f"error[parameter]: seed must be an unsigned 64-bit integer, got {seed}\n"
        )
        assert not os.path.exists(out)

    def test_refactor_rank_writes_adapter(self, workspace):
        tmp_path, adapters, config_path = workspace
        out = str(tmp_path / "refactored.tnsr")
        paths = [path for _, path in adapters.values()]
        assert run(
            ["merge", "--config", config_path, "--refactor-rank", "1", "--out", out, *paths]
        ) == 0
        adapter = load_adapter(out)
        assert adapter.rank == 1 and adapter.alpha == 1.0

    def test_numerical_error_maps_to_exit_3(self, workspace, capsys, monkeypatch):
        tmp_path, adapters, config_path = workspace
        import loramerge.cli as cli_module

        def boom(path):
            raise NumericalError("SVD did not converge")

        monkeypatch.setattr(cli_module, "load_as_delta", boom)
        paths = [path for _, path in adapters.values()]
        code = run(["merge", "--config", config_path, "--out", str(tmp_path / "m.tnsr"), *paths])
        assert code == 3
        assert "error[numerical]:" in capsys.readouterr().err


    def test_svd_not_converging_is_exit_3(self, workspace, capsys, monkeypatch):
        tmp_path, adapters, config_path = workspace

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        out = str(tmp_path / "m.tnsr")
        paths = [path for _, path in adapters.values()]
        argv = ["merge", "--config", config_path, "--refactor-rank", "1", "--out", out, *paths]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[numerical]: SVD did not converge on layer ")
        assert not os.path.exists(out)


def _write_config(path, pipeline, **extra):
    with open(path, "w") as fh:
        json.dump({"pipeline": pipeline, "density": 0.5, **extra}, fh)
    return str(path)


def _delta_files(tmp_path, layers, shape, seed=88, labels=("en", "de", "fr")):
    """Delta files, en, de and fr by default, each with random layers
    ``l0, l1, ...``."""
    rng = np.random.default_rng(seed)
    paths = []
    for label in labels:
        delta = DeltaMap.from_arrays(
            {f"l{i}": rng.standard_normal(shape).astype(np.float32) for i in range(layers)},
            label=label,
        )
        paths.append(str(tmp_path / f"{label}.tnsr"))
        save_delta(delta, paths[-1])
    return paths


def _huge_delta_files(tmp_path):
    """Delta files en and de whose one layer ``l`` is all 3e38."""
    paths = []
    for label in ("en", "de"):
        delta = DeltaMap.from_arrays({"l": np.full((4, 4), 3e38, np.float32)}, label=label)
        paths.append(str(tmp_path / f"{label}.tnsr"))
        save_delta(delta, paths[-1])
    return paths


def _run_child(argv, slab=None, **kwargs):
    """``python -m loramerge *argv``; with ``slab``, ``container._SLAB`` is
    set to it first."""
    command = ["-m", "loramerge"]
    if slab is not None:
        command = [
            "-c",
            f"from loramerge import cli, container; container._SLAB = {slab}; cli.main()",
        ]
    return subprocess.run(
        [sys.executable, *command, *argv], capture_output=True, text=True, **kwargs
    )


class TestMergeChildFootprint:
    """A merge child loads only what its pipeline runs: hashlib, and with it
    OpenSSL, only for DARE's stream keys, and none of the cost, metrics or
    similarity modules, which ``loramerge`` imports on first use."""

    SIDE = ["hashlib", "_hashlib", "loramerge.costing", "loramerge.metrics", "loramerge.similarity"]

    def _child(self, code, *argv):
        """Run ``code`` in a fresh interpreter; it prints one JSON document."""
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code), json.dumps(self.SIDE), *argv],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    @pytest.mark.parametrize(
        "pipeline", [["TIES"], ["KNOTS", "TIES"], ["DARE", "TIES"]], ids=["ties", "knots", "dare"]
    )
    def test_a_merge_loads_hashlib_only_for_dare(self, workspace, pipeline):
        tmp_path, adapters, _ = workspace
        config = _write_config(tmp_path / "cfg.json", pipeline, seed=3)
        out = str(tmp_path / "out.tnsr")
        code = """
            import json, sys
            from loramerge import cli
            side, argv = json.loads(sys.argv[1]), sys.argv[2:]
            code = cli.run(argv)
            print(json.dumps({"code": code, "loaded": [m for m in side if m in sys.modules]}))
        """
        paths = [path for _, path in adapters.values()]
        result = self._child(code, "merge", "--config", config, "--out", out, *paths)
        assert result["code"] == 0
        assert load_delta(out).layers
        loaded = set(result["loaded"])
        if "DARE" in pipeline:  # a Python built without OpenSSL has no _hashlib
            assert "hashlib" in loaded and loaded <= {"hashlib", "_hashlib"}
        else:
            assert not loaded

    def test_every_public_name_resolves(self):
        code = """
            import json, sys
            import loramerge
            side = json.loads(sys.argv[1])
            loaded = [m for m in side if m in sys.modules]
            missing = [n for n in loramerge.__all__ if not hasattr(loramerge, n)]
            modules = {m: getattr(loramerge, m) for m in ("costing", "metrics", "similarity")}
            print(json.dumps({
                "loaded_by_import": loaded,
                "missing": missing,
                "modules": all(sys.modules[f"loramerge.{m}"] is v for m, v in modules.items()),
                "same": all(
                    getattr(loramerge, n) is getattr(v, n)
                    for v in modules.values() for n in loramerge.__all__ if hasattr(v, n)
                ),
                "dir": sorted(set(loramerge.__all__) - set(dir(loramerge))),
            }))
        """
        assert self._child(code) == {
            "loaded_by_import": [], "missing": [], "modules": True, "same": True, "dir": [],
        }

    def test_star_import_binds_every_public_name(self):
        code = """
            import json
            namespace = {}
            exec("from loramerge import *", namespace)
            import loramerge
            print(json.dumps(sorted(set(loramerge.__all__) - set(namespace))))
        """
        assert self._child(code) == []

    def test_bare_import_loads_no_numpy_and_no_submodule(self):
        code = """
            import json, sys
            import loramerge
            print(json.dumps(sorted(
                m for m in sys.modules if m == "numpy" or m.startswith("loramerge.")
            )))
        """
        assert self._child(code) == []

    @pytest.mark.parametrize(
        "name",
        ["adapters", "blas", "container", "errors", "merging", "rng"]
        + ["costing", "metrics", "similarity"],
    )
    def test_submodule_resolves_as_the_first_attribute_touched(self, name):
        code = """
            import json, sys, types
            import loramerge
            name = sys.argv[2]
            module = getattr(loramerge, name)
            print(json.dumps([
                isinstance(module, types.ModuleType),
                module is sys.modules.get(f"loramerge.{name}"),
                name in dir(loramerge),
            ]))
        """
        assert self._child(code, name) == [True, True, True]

    def test_each_table_module_defines_its_names(self):
        code = """
            import importlib, json
            import loramerge
            strays = [
                (module, name)
                for module, names in loramerge._MODULES.items()
                for name in names
                if getattr(importlib.import_module(f"loramerge.{module}"), name).__module__
                != f"loramerge.{module}"
            ]
            listed = sorted(n for names in loramerge._MODULES.values() for n in names)
            print(json.dumps({"strays": strays, "once": listed == loramerge.__all__}))
        """
        assert self._child(code) == {"strays": [], "once": True}

    def test_unknown_name_is_an_attribute_error(self):
        import loramerge

        with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
            getattr(loramerge, "nonesuch")


class TestNonFiniteProduct:
    """Finite factors whose product overflows float32 fail at load on every path."""

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(81)
        factors = {
            "bad": (np.full((1, 4), 1e19), np.full((4, 1), 2e19)),  # 2 * B @ A = 4e38
            "ok": (rng.standard_normal((1, 4)), rng.standard_normal((4, 1))),
        }
        paths = []
        for label, (a, b) in factors.items():
            adapter = LoraAdapter(
                {"l": (TensorBlock("l.lora_A", a), TensorBlock("l.lora_B", b))}, 1, 2.0, label
            )
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_adapter(adapter, paths[-1])
        ties = _write_config(tmp_path / "ties.json", ["TIES"])
        knots = _write_config(tmp_path / "knots.json", ["KNOTS", "TIES"])
        return tmp_path, paths, {"ties": ties, "knots": knots}

    @pytest.mark.parametrize(
        "command",
        [
            ["merge", "--config", "{ties}", "--out", "{out}", "{bad}", "{ok}"],
            ["merge", "--config", "{knots}", "--out", "{out}", "{bad}", "{ok}"],
            ["merge", "--config", "{knots}", "--refactor-rank", "1", "--out", "{out}"]
            + ["{bad}", "{ok}"],
            ["delta", "--out", "{out}", "{bad}"],
        ],
        ids=["ties", "knots-ties", "knots-ties-refactor", "delta"],
    )
    def test_rejected_naming_the_layer(self, inputs, capsys, command):
        tmp_path, (bad, ok), configs = inputs
        out = str(tmp_path / "out.tnsr")
        argv = [arg.format(out=out, bad=bad, ok=ok, **configs) for arg in command]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error[data]: tensor 'l' contains non-finite values\n"
        assert not os.path.exists(out)

    def test_delta_child_prints_one_line(self, inputs):
        """In a child process a numpy warning would reach stderr, too."""
        tmp_path, (bad, _), _ = inputs
        out = str(tmp_path / "out.tnsr")
        result = _run_child(["delta", "--out", out, bad])
        assert result.returncode == 1
        assert result.stderr == "error[data]: tensor 'l' contains non-finite values\n"
        assert not os.path.exists(out)


class TestDareOverflow:
    """Values scaled past float32 range inside a merge (DARE survivors, KnOTS
    task parts) are reported by the single ``error[data]`` line, with no
    numpy warning before it."""

    @pytest.mark.parametrize(
        "pipeline",
        [["DARE", "TIES"], ["DARE", "KNOTS", "TIES"]],
        ids=["dare-ties", "dare-knots-ties"],
    )
    def test_child_prints_one_line(self, tmp_path, pipeline):
        paths = _huge_delta_files(tmp_path)
        config = _write_config(tmp_path / "cfg.json", pipeline, drop_rate=0.9, seed=1)
        out = str(tmp_path / "out.tnsr")
        result = _run_child(["merge", "--config", config, "--out", out, *paths])
        assert result.returncode == 1
        assert result.stderr == "error[data]: tensor 'l' contains non-finite values\n"
        assert not os.path.exists(out)

    def test_knots_task_part_past_float32_range(self, tmp_path):
        """Without DARE the inputs pass, but a KnOTS task part (a singular
        value times a unit-norm row) can still leave float32 range."""
        paths = _huge_delta_files(tmp_path)
        config = _write_config(tmp_path / "cfg.json", ["KNOTS", "TIES"])
        out = str(tmp_path / "out.tnsr")
        result = _run_child(["merge", "--config", config, "--out", out, *paths])
        assert result.returncode == 1
        assert result.stderr == "error[data]: tensor 'l.task0' contains non-finite values\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "pipeline, extra",
        [(["KNOTS", "TIES"], {}), (["DARE", "KNOTS", "TIES"], {"drop_rate": 0.05, "seed": 1})],
        ids=["knots-ties", "dare-knots-ties"],
    )
    def test_knots_task_part_past_float32_range_in_process(
        self, tmp_path, capsys, pipeline, extra
    ):
        """DARE's rescale by 1 / 0.95 keeps every survivor finite; the first
        task part of the concatenation is not."""
        paths = _huge_delta_files(tmp_path)
        config = _write_config(tmp_path / "cfg.json", pipeline, **extra)
        out = str(tmp_path / "out.tnsr")
        assert run(["merge", "--config", config, "--out", out, *paths]) == 1
        err = capsys.readouterr().err
        assert err == "error[data]: tensor 'l.task0' contains non-finite values\n"
        assert not os.path.exists(out)


class TestHugeWeights:
    """Weights whose sum would let a weighted float32 sum overflow float64
    are a parameter error, found before the merge runs: one line, no numpy
    warning, no ``--out``."""

    @pytest.mark.parametrize(
        "pipeline",
        [["TIES"], ["DARE", "TIES"], ["KNOTS", "TIES"]],
        ids=["ties", "dare-ties", "knots-ties"],
    )
    def test_child_prints_one_line(self, tmp_path, pipeline):
        rng = np.random.default_rng(86)
        paths = []
        for label in ("en", "de"):
            values = (rng.standard_normal((8, 8)) * 1e10).astype(np.float32)
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_delta(DeltaMap.from_arrays({"l": values}, label=label), paths[-1])
        config = _write_config(tmp_path / "cfg.json", pipeline, weights=[1e300, 1], seed=1)
        out = str(tmp_path / "out.tnsr")
        result = _run_child(["merge", "--config", config, "--out", out, *paths])
        assert result.returncode == 1
        assert result.stderr == (
            "error[parameter]: weights must sum to below about 5.28e269, got 1e+300\n"
        )
        assert not os.path.exists(out)


class TestStepErrorInMerge:
    """A merge step failing on one chunk past the first gives the one-line
    error, joins every helper thread and leaves no ``--out`` file."""

    @staticmethod
    def _merge_fails(tmp_path, capfd, monkeypatch, target, shape):
        """Merge three delta files of ``shape`` layers on up to three threads
        with the second call of ``target`` failing; the threads started."""
        rng = np.random.default_rng(84)
        paths = []
        for label in ("en", "de", "fr"):
            delta = DeltaMap.from_arrays(
                {"w": rng.standard_normal(shape).astype(np.float32)}, label=label
            )
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_delta(delta, paths[-1])
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], seed=1)
        failing = failing_on_call(getattr(merging, target), 2, NumericalError("injected failure"))
        monkeypatch.setattr(container, "_WORKERS", 3)
        monkeypatch.setattr(merging, target, failing)
        before = threading.active_count()
        started = threads_started(monkeypatch)
        out = str(tmp_path / "merged.tnsr")
        assert run(["merge", "--config", config, "--out", out, *paths]) == 3
        assert capfd.readouterr() == ("", "error[numerical]: injected failure\n")
        assert threading.active_count() == before
        assert not os.path.exists(out)
        return started

    @pytest.mark.parametrize("target", ["_disjoint", "uniform_stream"])
    def test_no_out_file(self, tmp_path, capfd, monkeypatch, target):
        self._merge_fails(tmp_path, capfd, monkeypatch, target, (300, 500))

    @pytest.mark.parametrize("target", ["_disjoint", "uniform_stream"])
    def test_no_out_file_with_helpers_running(self, tmp_path, capfd, monkeypatch, target):
        # five chunks a layer: two threads take them
        assert self._merge_fails(tmp_path, capfd, monkeypatch, target, (300, 1000))


class TestLowestChunkError:
    """A streamed layer is read a chunk at a time, on two threads; with bad
    entries in two input files, the one ``error[data]`` line names the file
    whose bad entry lies in the lowest chunk, on every run.  A layer filled
    one model at a time names the first bad input in input order."""

    @staticmethod
    def _paths(tmp_path, huge_first_row=False):
        rng = np.random.default_rng(83)
        shape = (515, 600)  # five chunks, the last one ragged
        paths = []
        for label in ("en", "de", "fr"):
            values = rng.standard_normal(shape).astype("<f4")
            if label == "en":
                values[-1, -1] = np.nan  # the last chunk of the first file
                if huge_first_row:
                    values[0] = 3e38  # past float32 range once DARE rescales it
            if label == "fr":
                values[0, 7] = np.inf  # the first chunk of the third file
            entry = {"dtype": "F32", "shape": list(shape), "data_offsets": [0, values.nbytes]}
            paths.append(str(tmp_path / f"{label}.tnsr"))
            write_raw_container(
                paths[-1], {"__metadata__": {"label": label}, "w.delta": entry}, values.tobytes()
            )
        return paths

    @staticmethod
    def _check(tmp_path, capsys, paths, config, named, repeats):
        """Every run fails with the one line ``error[data]: <named> contains
        non-finite values`` and leaves no ``--out``."""
        out = tmp_path / "merged.tnsr"
        argv = ["merge", "--config", config, "--out", str(out), *paths]
        for _ in range(repeats):
            assert run(argv) == 1
            assert capsys.readouterr().err == f"error[data]: {named} contains non-finite values\n"
            assert not out.exists()

    def test_names_the_lowest_chunk_input(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(container, "_WORKERS", 2)
        paths = self._paths(tmp_path)
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], density=1.0, drop_rate=0.5)
        self._check(tmp_path, capsys, paths, config, f"{paths[2]}: tensor 'w.delta'", 20)

    @pytest.mark.parametrize(
        "pipeline",
        [["TIES"], ["DARE", "TIES"], ["DARE", "KNOTS", "TIES"]],
        ids=["ties", "dare-ties", "dare-knots-ties"],
    )
    def test_layer_filled_one_model_at_a_time_names_the_first_bad_input(
        self, tmp_path, capsys, monkeypatch, pipeline
    ):
        monkeypatch.setattr(container, "_WORKERS", 2)
        paths = self._paths(tmp_path)
        config = _write_config(tmp_path / "cfg.json", pipeline, density=0.5)
        self._check(tmp_path, capsys, paths, config, f"{paths[0]}: tensor 'w.delta'", 10)

    def test_dare_overflow_in_a_lower_chunk_is_named_before_a_later_read_fault(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(container, "_WORKERS", 2)
        paths = self._paths(tmp_path, huge_first_row=True)
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], density=0.5)
        # en's first chunk overflows when pruned, before its last chunk is read
        self._check(tmp_path, capsys, paths, config, "tensor 'w'", 10)


class TestThreadCountDeterminism:
    """Merges at a shape above OpenBLAS's threading threshold, 1 vs 2 BLAS
    threads, and on one CPU vs all allowed CPUs."""

    @pytest.fixture(scope="class")
    def adapters(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("threads")
        rng = np.random.default_rng(82)
        paths = []
        for label in ("en", "de", "fr"):
            adapter = random_adapter(rng, rank=16, label=label, dims=[(768, 768)] * 2)
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_adapter(adapter, paths[-1])
        return tmp_path, paths

    @staticmethod
    def _outputs(tmp_path, paths, pipeline, thread_counts=("1", "2"), extra=()):
        """The bytes of one merge, with the options ``extra``, at each BLAS
        thread count, 1 and 2 by default."""
        name = "-".join(pipeline)
        config = _write_config(tmp_path / f"{name}.json", pipeline, seed=42)
        outputs = []
        for threads in thread_counts:
            out = str(tmp_path / f"{name}-t{threads}.tnsr")
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            argv = ["merge", "--config", config, *extra, "--out", out, *paths]
            result = subprocess.run(
                [sys.executable, "-m", "loramerge", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            with open(out, "rb") as fh:
                outputs.append(fh.read())
        return outputs

    @pytest.mark.parametrize(
        "pipeline",
        [["KNOTS", "TIES"], ["DARE", "KNOTS", "TIES"]],
        ids=["knots-ties", "dare-knots-ties"],
    )
    def test_byte_identical(self, adapters, pipeline):
        tmp_path, paths = adapters
        outputs = self._outputs(tmp_path, paths, pipeline)
        assert outputs[0] == outputs[1]

    def test_byte_identical_factored_at_summed_rank_512(self, tmp_path):
        """8 rank-64 adapters: the factored route's QR (1024 x 512) and SVD
        (512 x 8192) pass the threading threshold too."""
        rng = np.random.default_rng(85)
        paths = []
        for m in range(8):
            adapter = random_adapter(rng, rank=64, label=f"m{m}", dims=[(1024, 1024)] * 2)
            paths.append(str(tmp_path / f"m{m}.tnsr"))
            save_adapter(adapter, paths[-1])
        outputs = self._outputs(tmp_path, paths, ["KNOTS", "TIES"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "shape, rank", [((515, 300), 7), ((1024, 1024), 16)], ids=["515x300-r7", "1024x1024-r16"]
    )
    def test_ties_on_adapters_byte_identical_at_1_2_and_8_threads(self, tmp_path, shape, rank):
        """The densify ``B @ A`` of a layer above the threading threshold runs
        on one BLAS thread, so the merged bytes do not follow the count."""
        rng = np.random.default_rng(87)
        d_out, d_in = shape
        paths = []
        for label in ("en", "de", "fr"):
            adapter = random_adapter(rng, rank=rank, label=label, dims=[(d_in, d_out)])
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_adapter(adapter, paths[-1])
        outputs = self._outputs(tmp_path, paths, ["TIES"], thread_counts=("1", "2", "8"))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "shape, rank",
        [((515, 300), 7), ((2048, 1024), 16), ((4096, 1024), 32)],
        ids=["515x300-r7", "2048x1024-r16", "4096x1024-r32"],
    )
    def test_refactored_merge_byte_identical(self, tmp_path, shape, rank):
        """A KNOTS+TIES merge written as a rank-``rank`` adapter: the
        refactor's QR, SVD and products run on one BLAS thread too."""
        rng = np.random.default_rng(88)
        d_out, d_in = shape
        paths = []
        for label in ("en", "de", "fr"):
            adapter = random_adapter(rng, rank=rank, label=label, dims=[(d_in, d_out)])
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_adapter(adapter, paths[-1])
        extra = ("--refactor-rank", str(rank))
        outputs = self._outputs(tmp_path, paths, ["KNOTS", "TIES"], extra=extra)
        assert outputs[0] == outputs[1]

    def test_byte_identical_dense_route_on_delta_files(self, tmp_path):
        paths = _delta_files(tmp_path, layers=2, shape=(768, 768), seed=86)
        outputs = self._outputs(tmp_path, paths, ["KNOTS", "TIES"])
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs at least two CPUs this process may run on",
    )
    @pytest.mark.parametrize("pipeline", [["TIES"], ["DARE", "TIES"]], ids=["ties", "dare-ties"])
    def test_byte_identical_across_core_counts(self, adapters, pipeline):
        """The chunked steps use one thread per allowed CPU: pinned to one
        CPU and with all of them, a merge writes the same bytes."""
        tmp_path, paths = adapters
        name = "-".join(pipeline)
        config = _write_config(tmp_path / f"{name}-cores.json", pipeline, seed=42)
        allowed = os.sched_getaffinity(0)
        outputs = []
        for cpus in ({min(allowed)}, allowed):
            out = str(tmp_path / f"{name}-c{len(cpus)}.tnsr")
            result = _run_child(
                ["merge", "--config", config, "--out", out, *paths],
                preexec_fn=lambda: os.sched_setaffinity(0, cpus),
            )
            assert result.returncode == 0, result.stderr
            with open(out, "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]


class TestStreamedMergeMemory:
    """``loramerge merge`` streams from the input files to ``--out`` one layer
    at a time, so its peak memory does not grow with the layer count; nor
    does that of ``similarity``, with or without ``--per-layer``, which holds
    one layer per model.  Where neither the trim nor KnOTS needs a whole
    layer, ``merge`` reads delta files a chunk at a time, so its peak does
    not grow with the model count either."""

    SHAPE = (64, 4096)  # 1 MB, four chunks; KnOTS concatenates 64 x 12288
    WIDE = (256, 1024)  # 1 MB, four chunks
    LABELS = ("en", "de", "fr", "es", "it", "ja")

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("memory")
        sets = {}
        for layers in (2, 8):
            (tmp_path / str(layers)).mkdir()
            sets[layers] = _delta_files(tmp_path / str(layers), layers, self.SHAPE)
        return tmp_path, sets

    @staticmethod
    def _peak(argv):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "pipeline",
        [["TIES"], ["DARE", "TIES"], ["KNOTS", "TIES"], ["DARE", "KNOTS", "TIES"]],
        ids=["ties", "dare-ties", "knots-ties", "dare-knots-ties"],
    )
    def test_peak_does_not_grow_with_layer_count(self, inputs, monkeypatch, pipeline):
        # one chunk worker: with two, the peak of one run swings by a chunk's
        # scratch with the thread schedule, more than the bound below; the
        # per-worker scratch is bounded by the DARE+TIES tracemalloc test
        monkeypatch.setattr(container, "_WORKERS", 1)
        tmp_path, sets = inputs
        name = "-".join(pipeline)
        config = _write_config(tmp_path / f"{name}.json", pipeline, seed=3)
        peaks = {
            layers: self._peak(
                ["merge", "--config", config, "--out", str(tmp_path / f"{name}-{layers}.out")]
                + paths
            )
            for layers, paths in sets.items()
        }
        # 8 layers against 2: six more layers per model in the files, and six
        # more in the output, none of them held at once
        assert peaks[8] - peaks[2] < 4 * math.prod(self.SHAPE), peaks

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("models")
        return tmp_path, _delta_files(tmp_path, 2, self.WIDE, labels=self.LABELS)

    @pytest.mark.parametrize("pipeline", [["TIES"], ["DARE", "TIES"]], ids=["ties", "dare-ties"])
    def test_untrimmed_peak_does_not_grow_with_model_count(self, models, monkeypatch, pipeline):
        monkeypatch.setattr(container, "_WORKERS", 1)  # see the layer-count test
        tmp_path, paths = models
        name = "-".join(pipeline)
        extra = {"drop_rate": 0.5} if "DARE" in pipeline else {}
        config = _write_config(tmp_path / f"{name}.json", pipeline, density=1.0, seed=3, **extra)
        peaks = {
            count: self._peak(
                ["merge", "--config", config, "--out", str(tmp_path / f"{name}-{count}.out")]
                + paths[:count]
            )
            for count in (2, 6)
        }
        # 6 models against 2: holding each model's layer would add four layers
        assert peaks[6] - peaks[2] < 2 * 4 * math.prod(self.WIDE), peaks

    def test_untrimmed_peak_does_not_grow_with_layer_size(self, tmp_path, monkeypatch):
        """An untrimmed DARE+TIES layer read from delta files is merged and
        written a slab at a time, so a layer four times larger adds less
        than one slab to the peak, where holding it would add three layers."""
        monkeypatch.setattr(container, "_WORKERS", 1)  # see the layer-count test
        monkeypatch.setattr(container, "_SLAB", 2 * merging._CHUNK)
        config = _write_config(
            tmp_path / "cfg.json", ["DARE", "TIES"], density=1.0, drop_rate=0.5, seed=3
        )
        peaks = {}
        for rows in (64, 256):  # 1 and 4 MB layers, of 2 and 8 slabs
            (tmp_path / str(rows)).mkdir()
            paths = _delta_files(tmp_path / str(rows), 1, (rows, 4096))
            out = str(tmp_path / f"{rows}.out")
            peaks[rows] = self._peak(["merge", "--config", config, "--out", out, *paths])
        assert peaks[256] - peaks[64] < 4 * container._SLAB, peaks

    @pytest.mark.parametrize("flag", [[], ["--per-layer"]], ids=["flat", "per-layer"])
    def test_per_layer_similarity_peak_does_not_grow_with_layer_count(self, inputs, flag):
        tmp_path, sets = inputs
        peaks = {
            layers: self._peak(
                ["similarity", "--csv", str(tmp_path / f"sim-{layers}.csv"), *flag] + paths
            )
            for layers, paths in sets.items()
        }
        # holding every layer of the three models would add 18 layers
        assert peaks[8] - peaks[2] < 4 * math.prod(self.SHAPE), peaks

    def test_dare_holds_no_pruned_layer_through_the_knots_svd(self, tmp_path, monkeypatch):
        """Each model's DARE-pruned layer is formed when the KnOTS
        concatenation takes it and let go once copied in, as a layer read
        from a file is, so DARE adds less than half a layer to the peak."""
        monkeypatch.setattr(container, "_WORKERS", 1)
        shape = (256, 384)
        paths = _delta_files(tmp_path, 2, shape)
        peaks = {}
        for _ in range(2):  # the first round warms up numpy and LAPACK
            for pipeline in (["KNOTS", "TIES"], ["DARE", "KNOTS", "TIES"]):
                config = _write_config(tmp_path / "cfg.json", pipeline, seed=3)
                out = str(tmp_path / "out.tnsr")
                peaks[pipeline[0]] = self._peak(["merge", "--config", config, "--out", out, *paths])
        assert peaks["DARE"] <= peaks["KNOTS"] + 2 * math.prod(shape), peaks


@pytest.mark.parametrize("refactor", [[], ["--refactor-rank", "2"]], ids=["delta", "adapter"])
def test_each_layer_is_merged_once(tmp_path, monkeypatch, refactor):
    """Writing a pending layer (or its two factors) forms it once."""
    paths = _delta_files(tmp_path, layers=3, shape=(8, 8))
    config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], seed=1)
    calls = []
    inner = merging._ties_layer
    monkeypatch.setattr(merging, "_ties_layer", lambda *args: calls.append(1) or inner(*args))
    out = str(tmp_path / "merged.tnsr")
    assert run(["merge", "--config", config, *refactor, "--out", out, *paths]) == 0
    assert len(calls) == 3


@pytest.mark.parametrize(
    "refactor, density",
    [
        ([], 0.5),
        (["--refactor-rank", "2"], 0.5),
        ([], 1.0),
        (["--refactor-rank", "2"], 1.0),
    ],
    ids=["delta", "adapter", "delta-untrimmed", "adapter-untrimmed"],
)
def test_streamed_output_is_canonical_when_write_order_differs(tmp_path, refactor, density):
    """Layers ``a`` < ``a.b`` are merged and written in that order, although
    ``a.b.delta`` sorts before ``a.delta`` (and ``a.b.lora_A`` before
    ``a.lora_A``): each tensor goes to its own offset, so the file equals
    the one written from the whole merged map.  Untrimmed, a delta output's
    layers are written a slab at a time."""
    rng = np.random.default_rng(89)
    deltas = [
        DeltaMap.from_arrays(
            {name: rng.standard_normal((6, 5)).astype(np.float32) for name in ("a", "a.b")},
            label=label,
        )
        for label in ("en", "de", "fr")
    ]
    paths = []
    for delta in deltas:
        paths.append(str(tmp_path / f"{delta.label}.tnsr"))
        save_delta(delta, paths[-1])
    config = _write_config(
        tmp_path / "cfg.json", ["DARE", "TIES"], density=density, drop_rate=0.5, seed=1
    )
    out = str(tmp_path / "merged.tnsr")
    assert run(["merge", "--config", config, *refactor, "--out", out, *paths]) == 0
    merged = merge(deltas, MergeConfig(("DARE", "TIES"), density, drop_rate=0.5, seed=1))
    expected = str(tmp_path / "expected.tnsr")
    if refactor:
        save_adapter(refactor_to_adapter(merged, 2), expected)
    else:
        save_delta(merged, expected)
    with open(out, "rb") as got, open(expected, "rb") as want:
        assert got.read() == want.read()


def _merge_in_slabs(tmp_path, monkeypatch, workers, slab_chunks, shape, writers=None):
    """Merge DARE+TIES, untrimmed, from delta files of ``shape`` layers to
    ``--out`` in slabs of ``slab_chunks`` chunks on up to ``workers``
    threads, check its bytes against the library merge's and return the
    threads the CLI merge started; ``writers``, if given, gets the ident of
    the thread of each range write the CLI merge made."""
    monkeypatch.setattr(container, "_SLAB", slab_chunks * merging._CHUNK)
    monkeypatch.setattr(container, "_WORKERS", workers)
    paths = _delta_files(tmp_path, layers=2, shape=shape)
    config = _write_config(
        tmp_path / "cfg.json", ["DARE", "TIES"], density=1.0, drop_rate=0.5, seed=7
    )
    out = str(tmp_path / "merged.tnsr")
    started = threads_started(monkeypatch)
    if writers is not None:
        write_at = container._write_at

        def recorded(*args):
            writers.append(threading.get_ident())
            write_at(*args)

        monkeypatch.setattr(container, "_write_at", recorded)
    assert run(["merge", "--config", config, "--out", out, *paths]) == 0
    started = list(started)  # the library merge below starts its own
    if writers is not None:
        monkeypatch.setattr(container, "_write_at", write_at)
    merged = merge(
        [load_delta(path) for path in paths],
        MergeConfig(("DARE", "TIES"), 1.0, drop_rate=0.5, seed=7),
    )
    expected = str(tmp_path / "expected.tnsr")
    save_delta(merged, expected)
    with open(out, "rb") as got, open(expected, "rb") as want:
        assert got.read() == want.read()
    return started


@pytest.mark.parametrize("workers", [1, 2])
def test_layer_written_in_slabs_equals_the_library_merge(tmp_path, monkeypatch, workers):
    """An untrimmed DARE+TIES layer of two slabs and a ragged tail, written
    a slab at a time from the delta files, has the bytes of the whole
    merged layer; with two workers, a helper thread writes slabs of it."""
    # 309000 entries: slabs of 131072 and a tail of 46856, taken by the workers
    writers = []
    started = _merge_in_slabs(tmp_path, monkeypatch, workers, 2, (515, 600), writers)
    assert len(writers) == 2 * 3  # two layers
    assert bool(started) == (workers > 1)
    assert (set(writers) != {threading.get_ident()}) == (workers > 1)


def test_layer_written_in_slabs_on_two_threads_equals_the_library_merge(tmp_path, monkeypatch):
    """The same, in slabs that two threads share."""
    # 618000 entries: slabs of 262144 and a tail of 93712
    assert _merge_in_slabs(tmp_path, monkeypatch, 2, 4, (515, 1200))


class TestStreamedWriters:
    """An untrimmed DARE+TIES merge of delta files is written by the chunk
    workers: each merges the ranges it takes from the inputs and writes them
    at their offsets, with as many threads as any merge step would use."""

    CONFIG = {"density": 1.0, "drop_rate": 0.5, "seed": 7}

    def _merge(self, tmp_path, paths, name="merged.tnsr"):
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], **self.CONFIG)
        out = tmp_path / name
        return run(["merge", "--config", config, "--out", str(out), *paths]), out

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "shape", [(515, 600), (7, 300)], ids=["ragged-tail", "below-a-chunk"]
    )
    def test_bytes_equal_the_library_merge(self, tmp_path, monkeypatch, workers, shape):
        paths = _delta_files(tmp_path, layers=2, shape=shape)
        monkeypatch.setattr(container, "_WORKERS", 1)
        expected = tmp_path / "expected.tnsr"
        config = MergeConfig(("DARE", "TIES"), **self.CONFIG)
        save_delta(merge([load_delta(path) for path in paths], config), str(expected))
        monkeypatch.setattr(container, "_WORKERS", workers)
        before = threading.active_count()
        started = threads_started(monkeypatch)
        code, out = self._merge(tmp_path, paths)
        assert code == 0
        assert threading.active_count() == before
        # 309000 entries: five chunks, two threads; 2100 entries: one
        assert bool(started) == (workers > 1 and shape == (515, 600))
        assert out.read_bytes() == expected.read_bytes()

    def test_no_thread_outlives_a_failed_merge(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(container, "_WORKERS", 3)
        paths = _delta_files(tmp_path, layers=2, shape=(515, 600))
        header = read_header(paths[1])
        with open(paths[1], "r+b") as fh:  # the last entry of de's first layer
            (header_len,) = struct.unpack("<Q", fh.read(8))
            fh.seek(8 + header_len + header["l0.delta"]["data_offsets"][1] - 4)
            fh.write(np.float32(np.nan).tobytes())
        before = threading.active_count()
        started = threads_started(monkeypatch)
        assert self._merge(tmp_path, paths)[0] == 1
        assert capsys.readouterr().err == (
            f"error[data]: {paths[1]}: tensor 'l0.delta' contains non-finite values\n"
        )
        assert started and threading.active_count() == before
        assert not (tmp_path / "merged.tnsr").exists()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_threads_run_steps(self, tmp_path, monkeypatch, workers):
        """With ranges of four chunks, each range's merge runs on the thread
        that writes it: no more than ``_WORKERS`` threads run chunk steps."""
        monkeypatch.setattr(container, "_WORKERS", workers)
        monkeypatch.setattr(container, "_SLAB", 4 * merging._CHUNK)
        lock = threading.Lock()
        running, counts = set(), []
        disjoint = merging._disjoint

        def counted(*args):
            with lock:
                running.add(threading.get_ident())
                counts.append(len(running))
            try:
                time.sleep(0.002)  # so that the threads' steps overlap
                return disjoint(*args)
            finally:
                with lock:
                    running.discard(threading.get_ident())

        monkeypatch.setattr(merging, "_disjoint", counted)
        # 618000 entries a layer: ten chunks, three ranges
        paths = _delta_files(tmp_path, layers=2, shape=(515, 1200))
        before = threading.active_count()
        assert self._merge(tmp_path, paths)[0] == 0
        assert threading.active_count() == before
        assert 1 < max(counts) <= workers

    def test_streamed_layer_peak_holds_no_slab(self, tmp_path, monkeypatch):
        """One 1024x4096 layer (16 MiB) of three delta files, on one worker:
        the writer holds one merged chunk and the chunk step's scratch, less
        than a quarter of the layer, which a 4 MiB slab alone would fill."""
        monkeypatch.setattr(container, "_WORKERS", 1)
        paths = _delta_files(tmp_path, layers=1, shape=(1024, 4096))
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], **self.CONFIG)
        argv = ["merge", "--config", config, "--out", str(tmp_path / "merged.tnsr"), *paths]
        peak = TestStreamedMergeMemory._peak(argv)
        assert peak < 1024 * 4096, peak


class TestAtomicOut:
    """``--out`` is written to a temporary file and renamed over the target."""

    def test_out_may_name_an_input(self, workspace):
        tmp_path, adapters, config_path = workspace
        paths = [path for _, path in adapters.values()]
        expected = merge(
            [compute_delta(a) for a, _ in adapters.values()],
            MergeConfig(("TIES",), density=0.5),
        )
        assert run(["merge", "--config", config_path, "--out", paths[0], *paths]) == 0
        assert deltas_bitwise_equal(load_delta(paths[0]), expected)
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "de.tnsr", "en.tnsr", "fr.tnsr"]

    def test_out_may_name_a_delta_input(self, tmp_path):
        """A delta input is read layer by layer while the output is written;
        the reads use the descriptor opened at load and the rename comes last."""
        paths = _delta_files(tmp_path, layers=3, shape=(300, 500))
        config = MergeConfig(("DARE", "TIES"), density=0.5, seed=1)
        expected = merge([load_delta(path) for path in paths], config)
        config_path = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], seed=1)
        assert run(["merge", "--config", config_path, "--out", paths[0], *paths]) == 0
        merged = load_delta(paths[0])
        assert merged.label == config.summary()
        assert deltas_bitwise_equal(merged, expected)
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "de.tnsr", "en.tnsr", "fr.tnsr"]

    @pytest.mark.parametrize(
        "pipeline, density",
        [
            (["TIES"], 0.5),
            (["DARE", "TIES"], 0.5),
            (["KNOTS", "TIES"], 0.5),
            (["DARE", "KNOTS", "TIES"], 0.5),
            (["TIES"], 1.0),
            (["DARE", "TIES"], 1.0),
            (["KNOTS", "TIES"], 1.0),
            (["DARE", "KNOTS", "TIES"], 1.0),
        ],
        ids=[
            "ties",
            "dare-ties",
            "knots-ties",
            "dare-knots-ties",
            "ties-untrimmed",
            "dare-ties-untrimmed",
            "knots-ties-untrimmed",
            "dare-knots-ties-untrimmed",
        ],
    )
    def test_non_finite_last_layer_fails_after_earlier_layers(self, tmp_path, pipeline, density):
        """A delta file's layer is checked when it is read, after the earlier
        layers have been merged and written to the temporary file: the run
        still prints one line and leaves no file, and an existing ``--out``
        keeps its bytes.  The bad entry is in the last slab of its layer, so
        an untrimmed merge without KnOTS has written that layer's first slab
        too."""
        shape = (300, 500)  # 150000 entries: a slab and a tail of 18928
        paths = _delta_files(tmp_path, layers=4, shape=shape)
        header = read_header(paths[-1])
        with open(paths[-1], "r+b") as fh:
            (header_len,) = struct.unpack("<Q", fh.read(8))
            fh.seek(8 + header_len + header["l3.delta"]["data_offsets"][1] - 4)
            fh.write(np.float32(np.nan).tobytes())
        extra = {"drop_rate": 0.5} if "DARE" in pipeline else {}
        config = _write_config(tmp_path / "cfg.json", pipeline, density=density, seed=1, **extra)
        out = str(tmp_path / "merged.tnsr")
        line = f"error[data]: {paths[-1]}: tensor 'l3.delta' contains non-finite values\n"
        for old in (None, b"old bytes"):
            if old is not None:
                with open(out, "wb") as fh:
                    fh.write(old)
            before = sorted(os.listdir(tmp_path))
            result = _run_child(
                ["merge", "--config", config, "--out", out, *paths], slab=2 * merging._CHUNK
            )
            assert (result.returncode, result.stderr) == (1, line)
            assert sorted(os.listdir(tmp_path)) == before
            if old is not None:
                with open(out, "rb") as fh:
                    assert fh.read() == old

    @pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
    @pytest.mark.parametrize("density", [0.5, 1.0], ids=["trimmed", "untrimmed"])
    def test_write_failing_midway_leaves_no_file(self, tmp_path, density):
        """The 1.2 MB output fails at 768 KB with EFBIG (Python ignores
        SIGXFSZ): untrimmed, after its first 512 KB slab has been written."""
        rng = np.random.default_rng(83)
        paths = []
        for label in ("en", "de", "fr"):
            delta = DeltaMap.from_arrays(
                {"w": rng.standard_normal((512, 600)).astype(np.float32)}, label=label
            )
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_delta(delta, paths[-1])
        config = _write_config(
            tmp_path / "cfg.json", ["DARE", "TIES"], density=density, drop_rate=0.5, seed=1
        )
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "merged.tnsr")

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (3 << 18, 3 << 18))

        result = _run_child(
            ["merge", "--config", config, "--out", out, *paths],
            slab=2 * merging._CHUNK,
            preexec_fn=limit_file_size,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error[io]: cannot write {out}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
        ]
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
    def test_write_failing_while_a_helper_writes_leaves_no_file(self, tmp_path):
        """The same merge, untrimmed, in ranges of one chunk on two workers:
        the helper writes some of them, and the write past 768 KB fails
        with the one ``error[io]`` line and leaves no file."""
        rng = np.random.default_rng(83)
        paths = []
        for label in ("en", "de", "fr"):
            delta = DeltaMap.from_arrays(
                {"w": rng.standard_normal((512, 600)).astype(np.float32)}, label=label
            )
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_delta(delta, paths[-1])
        config = _write_config(
            tmp_path / "cfg.json", ["DARE", "TIES"], density=1.0, drop_rate=0.5, seed=1
        )
        (tmp_path / "side").mkdir()
        count = tmp_path / "side" / "helper-writes"
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "merged.tnsr")
        child = textwrap.dedent(
            """
            import atexit, sys, threading
            from loramerge import cli, container
            container._WORKERS = 2
            helper_writes = []
            write_at = container._write_at

            def recorded(*args):
                if threading.current_thread() is not threading.main_thread():
                    helper_writes.append(args[2])
                write_at(*args)

            container._write_at = recorded
            count = sys.argv.pop(1)
            atexit.register(lambda: open(count, "w").write(str(len(helper_writes))))
            cli.main()
            """
        )

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (3 << 18, 3 << 18))

        result = subprocess.run(
            [sys.executable, "-c", child, str(count), "merge", "--config", config, "--out", out]
            + paths,
            capture_output=True,
            text=True,
            preexec_fn=limit_file_size,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error[io]: cannot write {out}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
        ]
        assert sorted(os.listdir(tmp_path)) == before
        assert int(count.read_text()) > 0

    @pytest.mark.parametrize("command", ["similarity", "cost", "metrics"])
    def test_failed_report_write_leaves_target_and_no_temp_file(
        self, workspace, monkeypatch, capsys, command
    ):
        """The CSV and JSON reports are written as ``--out`` is: a rename that
        fails leaves an existing report byte-identical and no temporary file."""
        tmp_path, adapters, _ = workspace
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"per_language_hours": {"en": 1.0}, "combined_hours": 2.0}))
        records = tmp_path / "in.jsonl"
        records.write_text(json.dumps({"gold": "a", "pred": "a"}) + "\n")
        out = tmp_path / "report"
        out.write_bytes(b"old report\n")
        argv = {
            "similarity": ["similarity", "--csv", str(out), *(p for _, p in adapters.values())],
            "cost": ["cost", "--scenario", str(scenario), "--json", str(out)],
            "metrics": ["metrics", "--task", "sentiment", "--in", str(records), "--json", str(out)],
        }[command]
        before = sorted(os.listdir(tmp_path))

        def fail(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

        monkeypatch.setattr(os, "replace", fail)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error[io]: cannot write {out}: [Errno {errno.ENOSPC}] "
            f"{os.strerror(errno.ENOSPC)}: {str(out)!r}\n"
        )
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == before
        assert out.read_bytes() == b"old report\n"


_SURROGATE = "header text is not valid Unicode (surrogates not allowed)"


class TestInputFileChecks:
    """A malformed input file gives one ``error[<code>]`` line and no output."""

    @pytest.mark.parametrize(
        "tensors, metadata, line",
        [
            (
                {"l.delta": np.ones((2, 2, 2))},
                {"label": "en"},
                "error[validation]: layer 'l': delta must be 2-D, got (2, 2, 2)",
            ),
            (
                {"l.delta": np.ones((2, 2))},
                {},
                "error[format]: {path}: delta metadata is missing 'label'",
            ),
            (
                {"l.lora_B": np.ones((2, 1))},
                {"rank": "1", "alpha": "1.0", "label": "en"},
                "error[pairing]: {path}: missing lora_A for layer 'l'",
            ),
            (
                {"l.lora_A": np.ones((1, 2)), "l.lora_B": np.ones((2, 1))},
                {"rank": "one", "alpha": "1.0", "label": "en"},
                "error[format]: {path}: malformed rank/alpha metadata (",
            ),
        ],
        ids=["3-d-delta", "delta-without-label", "b-without-a", "rank-not-a-number"],
    )
    def test_merge_input(self, tmp_path, capsys, tensors, metadata, line):
        path = str(tmp_path / "in.tnsr")
        write_tensors(path, tensors, metadata)
        config = _write_config(tmp_path / "cfg.json", ["TIES"])
        out = str(tmp_path / "out.tnsr")
        assert run(["merge", "--config", config, "--out", out, path]) == 1
        (got,) = capsys.readouterr().err.splitlines()
        assert got.startswith(line.format(path=path))
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "command, header, line",
        [
            ("inspect", [], "header must be a JSON object"),
            ("merge", [], "header must be a JSON object"),
            (
                "merge",
                {"__metadata__": {"label": "en"}, "w.delta": 5},
                "entry for 'w.delta' must be an object",
            ),
            # an escaped lone surrogate parses, but no UTF-8 writer can write it back
            ("inspect", {"__metadata__": {"label": "en\ud800"}}, _SURROGATE),
            ("merge", {"__metadata__": {"label": "en"}, "w\ud800.delta": 5}, _SURROGATE),
            ("similarity", {"__metadata__": {"label": "en\ud800"}}, _SURROGATE),
        ],
        ids=[
            "inspect-header-list",
            "merge-header-list",
            "merge-entry-not-object",
            "inspect-surrogate-label",
            "merge-surrogate-name",
            "similarity-surrogate-label",
        ],
    )
    def test_malformed_header(self, tmp_path, capsys, command, header, line):
        path = str(tmp_path / "in.tnsr")
        write_raw_container(path, header, b"")
        out = str(tmp_path / "out.tnsr")
        config = _write_config(tmp_path / "cfg.json", ["TIES"])
        argv = {
            "inspect": ["inspect", path],
            "merge": ["merge", "--config", config, "--out", out, path],
            "similarity": ["similarity", "--csv", out, path, path],
        }[command]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[format]: {path}: {line}\n"
        assert captured.out == ""
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "text, code, line",
        [
            ("[]", 1, "error[parameter]: merge config must be a JSON object"),
            (
                '{"pipeline": "TIES"}',
                1,
                "error[parameter]: config 'pipeline' must be a list of method names",
            ),
            (
                None,
                2,
                f"error[io]: cannot read {{path}}: [Errno {errno.ENOENT}] "
                f"{os.strerror(errno.ENOENT)}: '{{path}}'",
            ),
        ],
        ids=["list", "pipeline-not-a-list", "missing-file"],
    )
    def test_merge_config(self, workspace, capsys, text, code, line):
        tmp_path, adapters, _ = workspace
        path = str(tmp_path / "config.json")
        if text is not None:
            Path(path).write_text(text)
        out = str(tmp_path / "out.tnsr")
        argv = ["merge", "--config", path, "--out", out] + [p for _, p in adapters.values()]
        assert run(argv) == code
        assert capsys.readouterr().err == line.format(path=path) + "\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["merge", "cost", "metrics"])
    def test_json_input_not_utf8(self, workspace, capsys, command):
        tmp_path, adapters, _ = workspace
        path = str(tmp_path / "latin1.json")
        Path(path).write_bytes('{"pipeline": ["TIES"], "name": "caf\u00e9"}\n'.encode("latin-1"))
        out = str(tmp_path / "out")
        argv = {
            "merge": ["merge", "--config", path, "--out", out]
            + [p for _, p in adapters.values()],
            "cost": ["cost", "--scenario", path, "--json", out],
            "metrics": ["metrics", "--task", "sentiment", "--in", path, "--json", out],
        }[command]
        assert run(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error[format]: {path}: not UTF-8 text (")
        assert not os.path.exists(out)


class TestDeltaCommand:
    def test_delta_equals_compute_delta(self, workspace):
        tmp_path, adapters, _ = workspace
        adapter, path = adapters["en"]
        out = str(tmp_path / "en.delta.tnsr")
        assert run(["delta", "--out", out, path]) == 0
        assert deltas_bitwise_equal(load_delta(out), compute_delta(adapter))

    def test_delta_of_delta_file_fails(self, workspace, capsys):
        tmp_path, adapters, _ = workspace
        adapter, _ = adapters["en"]
        delta_path = str(tmp_path / "d.tnsr")
        save_delta(compute_delta(adapter), delta_path)
        out = tmp_path / "x.tnsr"
        assert run(["delta", "--out", str(out), delta_path]) == 1
        # the file is the wrong kind, which its tensor names show before any metadata is read
        assert capsys.readouterr().err == (
            f"error[format]: {delta_path}: tensor 'layer0.delta' "
            "does not follow the <layer>.lora_A/.lora_B convention\n"
        )
        assert not out.exists()


class TestSimilarityCommand:
    def test_csv_written(self, workspace):
        tmp_path, adapters, _ = workspace
        out = str(tmp_path / "sim.csv")
        paths = [path for _, path in adapters.values()]
        assert run(["similarity", "--csv", out, *paths]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == ",en,de,fr"
        assert lines[1].startswith("en,1.000000,")

    def test_per_layer_flag(self, workspace):
        tmp_path, adapters, _ = workspace
        flat_csv = str(tmp_path / "flat.csv")
        layered_csv = str(tmp_path / "layered.csv")
        paths = [path for _, path in adapters.values()]
        assert run(["similarity", "--csv", flat_csv, *paths]) == 0
        assert run(["similarity", "--csv", layered_csv, "--per-layer", *paths]) == 0
        assert Path(flat_csv).read_text() != Path(layered_csv).read_text()

    def test_single_input_rejected(self, workspace, capsys):
        tmp_path, adapters, _ = workspace
        _, path = adapters["en"]
        assert run(["similarity", "--csv", str(tmp_path / "s.csv"), path]) == 1
        assert "error[parameter]:" in capsys.readouterr().err


class TestJsonBooleansAreNotNumbers:
    """A JSON ``true`` parses to a Python bool, which is an int; every number
    read from outside input rejects it, with one error line and exit 1.  So
    does every finite number read from it reject an integer too large for a
    float, and a NaN."""

    @pytest.mark.parametrize(
        "config, err",
        [
            (
                {"pipeline": ["DARE", "TIES"], "density": True, "seed": True},
                "error[parameter]: config 'seed' must be an integer\n",
            ),
            ({"density": True}, "error[parameter]: density must be in (0, 1], got True\n"),
            (
                {"pipeline": ["DARE", "TIES"], "drop_rate": True},
                "error[parameter]: drop_rate must be in [0, 1), got True\n",
            ),
            (
                {"weights": [True, 1.0, 1.0]},
                "error[parameter]: weights must be numbers, got (True, 1.0, 1.0)\n",
            ),
            (
                {"weights": ["1", "2", "1"]},
                "error[parameter]: weights must be numbers, got ('1', '2', '1')\n",
            ),
            (
                {"weights": [10**400, 1, 1]},
                "error[parameter]: weights must be positive finite numbers\n",
            ),
        ],
        ids=[
            "density-and-seed",
            "density",
            "drop-rate",
            "weights",
            "string-weights",
            "huge-int-weights",
        ],
    )
    def test_merge_config(self, tmp_path, capsys, config, err):
        paths = _delta_files(tmp_path, layers=1, shape=(8, 8))
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "merged.tnsr"
        assert run(["merge", "--config", str(config_path), "--out", str(out), *paths]) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, err",
        [
            ({"parallel_slots": True}, "parallel_slots must be a positive integer, got True"),
            ({"combined_hours": True}, "combined_hours must be a number, got True"),
            ({"per_language_hours": {"en": True}}, "hours for 'en' must be a number, got True"),
            (
                {"measured": {"initial_merged_cost": True}},
                "measured initial_merged_cost must be a number, got True",
            ),
            ({"combined_hours": "3.4"}, "combined_hours must be a number, got '3.4'"),
            ({"per_language_hours": {"en": "2.2"}}, "hours for 'en' must be a number, got '2.2'"),
            ({"combined_hours": 10**400}, f"combined_hours must be finite, got {10**400}"),
            (
                {"per_language_hours": {"en": 10**400}},
                f"hours for 'en' must be finite, got {10**400}",
            ),
        ],
        ids=[
            "slots",
            "combined-hours",
            "language-hours",
            "measured",
            "string-combined-hours",
            "string-language-hours",
            "huge-int-combined-hours",
            "huge-int-language-hours",
        ],
    )
    def test_cost_scenario(self, tmp_path, capsys, extra, err):
        path = tmp_path / "scenario.json"
        scenario = {"per_language_hours": {"en": 1.0}, "combined_hours": 2.0, **extra}
        path.write_text(json.dumps(scenario))
        assert run(["cost", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[validation]: {err}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["merge", "similarity"])
    @pytest.mark.parametrize(
        "field, value",
        [("shape", [True, 4]), ("data_offsets", [False, 16])],
        ids=["shape", "data-offsets"],
    )
    def test_container_header(self, tmp_path, capsys, command, field, value):
        paths = _delta_files(tmp_path, layers=1, shape=(1, 4))
        entry = {"dtype": "F32", "shape": [1, 4], "data_offsets": [0, 16], field: value}
        header = {"__metadata__": {"label": "fr"}, "l0.delta": entry}
        write_raw_container(paths[-1], header, np.ones(4, dtype="<f4").tobytes())
        out = tmp_path / "out"
        if command == "merge":
            config = _write_config(tmp_path / "cfg.json", ["TIES"])
            argv = ["merge", "--config", config, "--out", str(out), *paths]
        else:
            argv = ["similarity", "--csv", str(out), *paths]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error[format]: {paths[-1]}: tensor 'l0.delta' has invalid {field} {value!r}\n"
        )
        assert not out.exists()

    def test_metrics_bertscore(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        record = {"reference": "the cat sat", "candidate": "the cat", "bertscore": True}
        path.write_text(json.dumps(record) + "\n")
        assert run(["metrics", "--task", "summarization", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error[format]: record 0: bertscore must be a number\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "score, shown", [(10**400, str(10**400)), (float("nan"), "nan")], ids=["huge-int", "nan"]
    )
    def test_metrics_bertscore_not_finite(self, tmp_path, capsys, score, shown):
        path = tmp_path / "records.jsonl"
        record = {"reference": "the cat sat", "candidate": "the cat", "bertscore": score}
        path.write_text(json.dumps(record) + "\n")
        out = tmp_path / "report.json"
        argv = ["metrics", "--task", "summarization", "--in", str(path), "--json", str(out)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error[format]: record 0: bertscore must be finite, got {shown}\n"
        assert captured.out == ""
        assert not out.exists()


class TestCostCommand:
    def _scenario_path(self, tmp_path):
        scenario = {
            "per_language_hours": {"en": 2.2, "de": 2.2, "fr": 2.2, "ja": 2.2, "zh": 2.2},
            "combined_hours": 3.4,
            "parallel_slots": 5,
            "update": {"label": "en", "retrain_hours": 1.0, "combined_retrain_hours": 3.8},
            "measured": {
                "initial_combined_cost": 113.4,
                "initial_merged_cost": 107.1,
                "update_combined_cost": 119.7,
                "update_merged_cost": 31.5,
            },
        }
        path = str(tmp_path / "scenario.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        return path

    def test_renders_both_rows(self, tmp_path, capsys):
        assert run(["cost", "--scenario", self._scenario_path(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "35.3" in out and "73.7" in out

    def test_mode_initial_only(self, tmp_path, capsys):
        assert run(["cost", "--scenario", self._scenario_path(tmp_path), "--mode", "initial"]) == 0
        out = capsys.readouterr().out
        assert "35.3" in out and "Update/Add Language" not in out

    def test_json_report_written(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code = run(["cost", "--scenario", self._scenario_path(tmp_path), "--json", report_path])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(Path(report_path).read_text())
        assert f"{doc['initial']['time_reduction_pct']:.1f}" == "35.3"
        assert f"{doc['update']['cost_reduction_pct']:.1f}" == "73.7"

    def test_negative_measured_cost_is_named(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        measured = {"initial_combined_cost": -5.0, "initial_merged_cost": 3.0}
        scenario = {"per_language_hours": {"en": 1.0}, "combined_hours": 2.0, "measured": measured}
        path.write_text(json.dumps(scenario))
        assert run(["cost", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error[validation]: measured initial_combined_cost must be >= 0, got -5.0\n"
        )

    @pytest.mark.parametrize(
        "scenario, line",
        [
            ([1, 2], "error[parameter]: scenario must be a JSON object"),
            (
                {"per_language_hours": [1.0], "combined_hours": 1.0},
                "error[parameter]: per_language_hours must be an object of label -> hours",
            ),
            (
                {"per_language_hours": {"en": 1.0}, "combined_hours": 1.0, "combined_gpus": 0},
                "error[validation]: combined_gpus must be > 0, got 0",
            ),
            (
                {
                    "per_language_hours": {"en": 1.0},
                    "combined_hours": 1.0,
                    "update": {"label": "", "retrain_hours": 1.0, "combined_retrain_hours": 2.0},
                },
                "error[validation]: update label must be a non-empty string",
            ),
            (
                {"per_language_hours": {"en": 1.0}, "combined_hours": 1.0, "update": {"label": "en"}},
                "error[parameter]: update must carry exactly "
                "['combined_retrain_hours', 'label', 'retrain_hours']",
            ),
            (
                {"per_language_hours": {"en": 1.0}, "combined_hours": 1.0, "measured": {"x": 1.0}},
                "error[parameter]: measured keys must be among ['initial_combined_cost', "
                "'initial_merged_cost', 'update_combined_cost', 'update_merged_cost']",
            ),
            (
                {"per_language_hours": {"en": 1e307}, "combined_hours": 1.0},
                "error[parameter]: reduction from baseline 1.0 to 1e+307 is past float range",
            ),
        ],
        ids=[
            "not-an-object",
            "language-hours-list",
            "zero-gpus",
            "empty-update-label",
            "update-missing-keys",
            "unknown-measured-key",
            "reduction-past-float-range",
        ],
    )
    def test_rejected_scenario(self, tmp_path, capsys, scenario, line):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        report = tmp_path / "report.json"
        assert run(["cost", "--scenario", str(path), "--json", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""
        assert not report.exists()

    def test_product_past_float_range_gives_a_finite_reduction(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"per_language_hours": {"en": 1.0}, "combined_hours": 1e307}))
        assert run(["cost", "--scenario", str(path)]) == 0
        assert "1h (100.0% ↓)" in capsys.readouterr().out

    def test_unwritable_json_out_is_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "absent" / "report.json")
        assert run(["cost", "--scenario", self._scenario_path(tmp_path), "--json", out]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error[io]: cannot write {out}: ")
        assert captured.out == ""

    def test_invalid_scenario_json_is_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("{nope")
        assert run(["cost", "--scenario", path]) == 1
        assert "error[format]:" in capsys.readouterr().err


class TestMetricsCommand:
    def _jsonl(self, tmp_path, records):
        path = str(tmp_path / "in.jsonl")
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return path

    def test_sentiment_stdout(self, tmp_path, capsys):
        path = self._jsonl(
            tmp_path,
            [
                {"gold": "pos", "pred": "pos"},
                {"gold": "pos", "pred": "neg"},
                {"gold": "neg", "pred": "neg"},
                {"gold": "neg", "pred": "neg"},
            ],
        )
        assert run(["metrics", "--task", "sentiment", "--in", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["macro_precision"] == 0.8333
        assert report["macro_f1"] == 0.7333

    def test_extraction_with_json_out(self, tmp_path, capsys):
        path = self._jsonl(tmp_path, [{"source": "a b c", "examples": ["a b", "z"]}])
        out = str(tmp_path / "report.json")
        assert run(["metrics", "--task", "extraction", "--in", path, "--json", out]) == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(Path(out).read_text())
        assert stdout_doc == file_doc
        assert file_doc["hallucination_rate"] == 0.5

    def test_malformed_jsonl_is_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "in.jsonl")
        with open(path, "w") as fh:
            fh.write('{"gold": "a"\n')
        assert run(["metrics", "--task", "sentiment", "--in", path]) == 1
        assert "error[format]:" in capsys.readouterr().err

    def test_record_not_an_object_is_named_by_line(self, tmp_path, capsys):
        path = self._jsonl(tmp_path, [[1]])
        assert run(["metrics", "--task", "sentiment", "--in", path]) == 1
        assert capsys.readouterr().err == f"error[format]: {path}:1: record must be a JSON object\n"

    def test_extraction_examples_not_a_list(self, tmp_path, capsys):
        path = self._jsonl(tmp_path, [{"source": "a b", "examples": "a"}])
        assert run(["metrics", "--task", "extraction", "--in", path]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error[format]: ")

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "absent.jsonl")
        assert run(["metrics", "--task", "sentiment", "--in", path]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error[io]: cannot read {path}: ")

    def test_unwritable_json_out_is_exit_2(self, tmp_path, capsys):
        path = self._jsonl(tmp_path, [{"gold": "a", "pred": "a"}])
        out = str(tmp_path / "absent" / "report.json")
        assert run(["metrics", "--task", "sentiment", "--in", path, "--json", out]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error[io]: cannot write {out}: ")
        assert captured.out == ""

    def test_unknown_task_flag_rejected(self, tmp_path, capsys):
        path = self._jsonl(tmp_path, [{"gold": "a", "pred": "a"}])
        assert run(["metrics", "--task", "translation", "--in", path]) == 1
        assert "error[usage]:" in capsys.readouterr().err


class TestInspectCommand:
    def test_prints_header_json(self, workspace, capsys):
        _, adapters, _ = workspace
        _, path = adapters["en"]
        assert run(["inspect", path]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["__metadata__"]["label"] == "en"
        assert any(name.endswith(".lora_A") for name in header)
        assert all(
            entry["dtype"] == "F32" for name, entry in header.items() if name != "__metadata__"
        )

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert run(["inspect", str(tmp_path / "absent.tnsr")]) == 2
        assert "error[io]:" in capsys.readouterr().err

    def test_closed_stdout_is_exit_2(self, workspace, capsys, monkeypatch):
        _, adapters, _ = workspace
        _, path = adapters["en"]

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run(["inspect", path]) == 2
        assert capsys.readouterr().err == f"error[io]: [Errno 32] {os.strerror(errno.EPIPE)}\n"


class TestParsing:
    def test_unknown_flag_is_exit_1(self, capsys):
        assert run(["inspect", "--frobnicate", "x"]) == 1
        assert "error[usage]:" in capsys.readouterr().err

    def test_missing_subcommand_is_exit_1(self, capsys):
        assert run([]) == 1
        assert "error[usage]:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "loramerge" in capsys.readouterr().out


class TestSteadyHeap:
    """``cli.main`` fixes glibc's mmap and trim thresholds before it runs a
    command, so a chunk step's freed scratch stays in the heap."""

    def test_both_thresholds_are_set(self, monkeypatch):
        from loramerge import cli

        calls = []

        def mallopt(option, value):
            calls.append((option, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._steady_heap()
        assert calls == [(-3, 16 << 20), (-1, 8 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    def test_a_c_library_without_mallopt_is_left_as_it_is(self, monkeypatch):
        from loramerge import cli

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        cli._steady_heap()
