import errno
import json
import os
import subprocess
import sys

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
    save_adapter,
    save_delta,
)
from loramerge.cli import run
from conftest import deltas_bitwise_equal, random_adapter


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
        assert open(out_a, "rb").read() == open(out_d, "rb").read()

    def test_repeat_runs_byte_identical(self, workspace):
        tmp_path, adapters, config_path = workspace
        with open(config_path, "w") as fh:
            json.dump({"pipeline": ["DARE", "KNOTS", "TIES"], "density": 0.5, "seed": 9}, fh)
        paths = [path for _, path in adapters.values()]
        out1 = str(tmp_path / "m1.tnsr")
        out2 = str(tmp_path / "m2.tnsr")
        assert run(["merge", "--config", config_path, "--out", out1, *paths]) == 0
        assert run(["merge", "--config", config_path, "--out", out2, *paths]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

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


def _write_config(path, pipeline, **extra):
    with open(path, "w") as fh:
        json.dump({"pipeline": pipeline, "density": 0.5, **extra}, fh)
    return str(path)


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


class TestThreadCountDeterminism:
    """Merges at a shape above OpenBLAS's threading threshold, 1 vs 2 threads."""

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

    @pytest.mark.parametrize(
        "pipeline",
        [
            ["KNOTS", "TIES"],
            pytest.param(
                ["DARE", "KNOTS", "TIES"],
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 5: DARE densifies, so KnOTS runs its dense SVD",
                ),
            ),
        ],
        ids=["knots-ties", "dare-knots-ties"],
    )
    def test_byte_identical(self, adapters, pipeline):
        tmp_path, paths = adapters
        name = "-".join(pipeline)
        config = _write_config(tmp_path / f"{name}.json", pipeline, seed=42)
        outputs = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"{name}-t{threads}.tnsr")
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            argv = ["merge", "--config", config, "--out", out, *paths]
            result = subprocess.run(
                [sys.executable, "-m", "loramerge", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(open(out, "rb").read())
        assert outputs[0] == outputs[1]


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

    @pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
    def test_write_failing_midway_leaves_no_file(self, tmp_path):
        rng = np.random.default_rng(83)
        paths = []
        for label in ("en", "de", "fr"):
            delta = DeltaMap.from_arrays(
                {"w": rng.standard_normal((256, 256)).astype(np.float32)}, label=label
            )
            paths.append(str(tmp_path / f"{label}.tnsr"))
            save_delta(delta, paths[-1])
        config = _write_config(tmp_path / "cfg.json", ["DARE", "TIES"], seed=1)
        before = sorted(os.listdir(tmp_path))
        out = str(tmp_path / "merged.tnsr")

        def limit_file_size():
            # the 256 KB output fails at 64 KB with EFBIG (Python ignores SIGXFSZ)
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, 1 << 16))

        result = subprocess.run(
            [sys.executable, "-m", "loramerge", "merge", "--config", config, "--out", out, *paths],
            preexec_fn=limit_file_size,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error[io]: cannot write {out}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
        ]
        assert sorted(os.listdir(tmp_path)) == before


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
        assert run(["delta", "--out", str(tmp_path / "x.tnsr"), delta_path]) == 1
        assert "error[format]:" in capsys.readouterr().err


class TestSimilarityCommand:
    def test_csv_written(self, workspace):
        tmp_path, adapters, _ = workspace
        out = str(tmp_path / "sim.csv")
        paths = [path for _, path in adapters.values()]
        assert run(["similarity", "--csv", out, *paths]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == ",en,de,fr"
        assert lines[1].startswith("en,1.000000,")

    def test_per_layer_flag(self, workspace):
        tmp_path, adapters, _ = workspace
        flat_csv = str(tmp_path / "flat.csv")
        layered_csv = str(tmp_path / "layered.csv")
        paths = [path for _, path in adapters.values()]
        assert run(["similarity", "--csv", flat_csv, *paths]) == 0
        assert run(["similarity", "--csv", layered_csv, "--per-layer", *paths]) == 0
        assert open(flat_csv).read() != open(layered_csv).read()

    def test_single_input_rejected(self, workspace, capsys):
        tmp_path, adapters, _ = workspace
        _, path = adapters["en"]
        assert run(["similarity", "--csv", str(tmp_path / "s.csv"), path]) == 1
        assert "error[parameter]:" in capsys.readouterr().err


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
        doc = json.load(open(report_path))
        assert f"{doc['initial']['time_reduction_pct']:.1f}" == "35.3"
        assert f"{doc['update']['cost_reduction_pct']:.1f}" == "73.7"

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
        file_doc = json.load(open(out))
        assert stdout_doc == file_doc
        assert file_doc["hallucination_rate"] == 0.5

    def test_malformed_jsonl_is_exit_1(self, tmp_path, capsys):
        path = str(tmp_path / "in.jsonl")
        with open(path, "w") as fh:
            fh.write('{"gold": "a"\n')
        assert run(["metrics", "--task", "sentiment", "--in", path]) == 1
        assert "error[format]:" in capsys.readouterr().err

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
