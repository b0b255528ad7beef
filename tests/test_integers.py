"""One integer rule for outside input (``errors.is_integer``): a Python or
numpy integer is taken and goes on as a Python ``int``, with the bytes the
same ``int`` gives; a bool (Python or numpy), a float or a string is
rejected at every entry point with that entry point's own message."""

import json
import re

import numpy as np
import pytest

from loramerge import (
    CostScenario,
    DeltaMap,
    LoraAdapter,
    MergeConfig,
    ParameterError,
    TensorBlock,
    ValidationError,
    dare_prune,
    lpt_makespan,
    merge,
    refactor_to_adapter,
    rouge_n,
    save_adapter,
    save_delta,
)
from loramerge.costing import scenario_to_json_dict
from loramerge.rng import uniform_stream

NUMPY_INTS = [np.int64, np.int32]
SEED_INTS = [*NUMPY_INTS, np.uint64]
NOT_INTEGERS = [True, np.True_, 2.0, "3"]


def _delta(label="en", seed=0):
    values = np.random.default_rng(seed).standard_normal((6, 5)).astype(np.float32)
    return DeltaMap.from_arrays({"w": values}, label)


def _adapter(rank):
    a = TensorBlock("w.lora_A", np.ones((2, 3), np.float32))
    b = TensorBlock("w.lora_B", np.ones((4, 2), np.float32))
    return LoraAdapter({"w": (a, b)}, rank, 2.0)


def _scenario(slots):
    return CostScenario({"en": 1.0, "de": 2.0}, combined_hours=4.0, parallel_slots=slots)


# each entry point: (call with the value, error class, message format)
ENTRY_POINTS = {
    "merge-config-seed": (
        lambda v: MergeConfig(seed=v),
        ParameterError,
        "seed must be an unsigned 64-bit integer, got {!r}",
    ),
    "dare-prune-seed": (
        lambda v: dare_prune(_delta(), 0.5, seed=v),
        ParameterError,
        "seed must be an unsigned 64-bit integer, got {!r}",
    ),
    "refactor-rank": (
        lambda v: refactor_to_adapter(_delta(), v),
        ParameterError,
        "refactor rank must be a positive integer, got {!r}",
    ),
    "adapter-rank": (_adapter, ValidationError, "rank must be a positive integer, got {!r}"),
    "makespan-slots": (
        lambda v: lpt_makespan([1.0, 2.0], v),
        ParameterError,
        "parallel slots must be a positive integer, got {!r}",
    ),
    "scenario-slots": (
        _scenario,
        ValidationError,
        "parallel_slots must be a positive integer, got {!r}",
    ),
    "rouge-n": (lambda v: rouge_n("a b", "a b", v), ParameterError, "n must be 1 or 2, got {!r}"),
    "stream-start": (
        lambda v: uniform_stream(5, "en", "w", 8, start=v),
        ParameterError,
        "stream start must be a non-negative integer, got {!r}",
    ),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("value", NOT_INTEGERS, ids=["bool", "numpy-bool", "float", "string"])
def test_a_value_that_is_not_an_integer_is_rejected(entry, value):
    call, error, message = ENTRY_POINTS[entry]
    with pytest.raises(error, match=f"^{re.escape(message.format(value))}$"):
        call(value)


@pytest.mark.parametrize("kind", SEED_INTS)
def test_merge_config_seed(kind):
    config = MergeConfig(("DARE", "TIES"), seed=kind(3))
    assert type(config.seed) is int and config.seed == 3
    want = MergeConfig(("DARE", "TIES"), seed=3).to_json_dict()
    assert json.dumps(config.to_json_dict()) == json.dumps(want)
    assert MergeConfig(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


@pytest.mark.parametrize("kind", SEED_INTS)
def test_dare_ties_merge_seed(tmp_path, kind):
    deltas = [_delta("en", 1), _delta("de", 2)]
    for seed, name in ((kind(7), "numpy.tnsr"), (7, "int.tnsr")):
        config = MergeConfig(("DARE", "TIES"), density=0.5, seed=seed)
        save_delta(merge(deltas, config), str(tmp_path / name))
    assert (tmp_path / "numpy.tnsr").read_bytes() == (tmp_path / "int.tnsr").read_bytes()


@pytest.mark.parametrize("kind", SEED_INTS)
def test_dare_prune_seed(kind):
    got = dare_prune(_delta(), 0.5, seed=kind(3)).layers["w"].values
    assert got.tobytes() == dare_prune(_delta(), 0.5, seed=3).layers["w"].values.tobytes()


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_refactor_rank(tmp_path, kind):
    adapter = refactor_to_adapter(_delta(), kind(2))
    assert type(adapter.rank) is int and adapter.rank == 2
    save_adapter(adapter, str(tmp_path / "numpy.tnsr"))
    save_adapter(refactor_to_adapter(_delta(), 2), str(tmp_path / "int.tnsr"))
    assert (tmp_path / "numpy.tnsr").read_bytes() == (tmp_path / "int.tnsr").read_bytes()


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_adapter_rank(kind):
    adapter = _adapter(kind(2))
    assert type(adapter.rank) is int and adapter.rank == 2


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_makespan_slots(kind):
    hours = [3.0, 2.0, 2.0, 1.0]
    assert lpt_makespan(hours, kind(2)) == lpt_makespan(hours, 2) == 4.0


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_scenario_slots(kind):
    scenario = _scenario(kind(2))
    assert type(scenario.parallel_slots) is int and scenario == _scenario(2)
    doc = json.dumps(scenario_to_json_dict(scenario))
    assert doc == json.dumps(scenario_to_json_dict(_scenario(2)))


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_rouge_n(kind):
    for n in (1, 2):
        assert rouge_n("the cat sat", "the cat", kind(n)) == rouge_n("the cat sat", "the cat", n)


@pytest.mark.parametrize("kind", NUMPY_INTS)
@pytest.mark.parametrize("start", [0, 3, 4, 65537])
def test_stream_start(kind, start):
    got = uniform_stream(5, "en", "w", 100, start=kind(start))
    assert got.tobytes() == uniform_stream(5, "en", "w", 100, start=start).tobytes()
