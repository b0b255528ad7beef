import threading

import numpy as np
import pytest

from loramerge import DeltaMap, TensorBlock, blas, refactor_to_adapter
from loramerge.adapters import LowRankBlock
from loramerge.merging import knots_transform

_calls = blas._thread_calls()


@pytest.fixture
def get():
    """The BLAS thread-count getter, with the count set to 2 for the test
    and put back afterwards; the test is skipped without one."""
    if _calls is None:
        pytest.skip("the BLAS has no thread-count calls")
    get, set_ = _calls
    before = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("the BLAS cannot run two threads here")
        yield get
    finally:
        set_(before)


def test_section_runs_on_one_thread_and_restores_the_count(get):
    with blas.one_thread():
        assert get() == 1
    assert get() == 2


def test_count_is_restored_when_the_body_raises(get):
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            assert get() == 1
            raise RuntimeError("body failed")
    assert get() == 2


def test_nested_sections_restore_once(get):
    with blas.one_thread():
        with blas.one_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_overlapping_sections_on_two_threads(get):
    # the first section ends while the second is still open: the count must
    # stay 1 until the second ends, then return to 2, not to 1
    entered, first_left = threading.Event(), threading.Event()
    seen = []

    def second():
        with blas.one_thread():
            entered.set()
            first_left.wait(timeout=30)
            seen.append(get())

    thread = threading.Thread(target=second)
    with blas.one_thread():
        thread.start()
        assert entered.wait(timeout=30)
    first_left.set()
    thread.join(timeout=30)
    assert seen == [1]
    assert get() == 2


def test_densify_runs_on_one_thread(get):
    seen = []

    class Spy(np.ndarray):
        """Records the thread count when it is multiplied."""

        def __matmul__(self, other):
            seen.append(get())
            return np.asarray(self) @ other

    rng = np.random.default_rng(3)
    block = LowRankBlock(
        "l",
        rng.standard_normal((515, 7)).astype(np.float32),
        rng.standard_normal((7, 300)).astype(np.float32),
    )
    # astype keeps the subclass, so the float64 factor the densify multiplies is a Spy
    object.__setattr__(block, "left", block.left.view(Spy))
    assert block.values.shape == (515, 300)
    assert seen == [1]
    assert get() == 2


@pytest.mark.parametrize(
    "route, factored",
    [("knots", True), ("knots", False), ("refactor", True), ("refactor", False)],
    ids=["knots-factored", "knots-dense", "refactor-factored", "refactor-dense"],
)
def test_concat_svd_runs_on_one_thread(get, monkeypatch, route, factored):
    """Every QR, SVD and product of :func:`adapters.concat_svd` runs at BLAS
    thread count 1, the factored route's closing ``q @ u`` too: a two-thread
    product would leave OpenBLAS's idle worker spinning."""
    seen = []

    class Spy(np.ndarray):
        """Records the thread count when it is multiplied."""

        def __matmul__(self, other):
            seen.append(("@", get()))
            return np.asarray(self) @ np.asarray(other)

    def spy_on(name):
        inner = getattr(np.linalg, name)

        def call(*args, **kwargs):
            seen.append((name, get()))
            result = inner(*args, **kwargs)
            # the factors come back as Spies, so the products on them are seen
            return type(result)(*(x.view(Spy) for x in result))

        monkeypatch.setattr(np.linalg, name, call)

    rng = np.random.default_rng(4)

    def layer():
        left = rng.standard_normal((515, 7)).astype(np.float32)
        right = rng.standard_normal((7, 300)).astype(np.float32)
        if factored:
            return LowRankBlock("l", left, right, 0.5)
        return TensorBlock("l", left.astype(np.float64) @ right)

    deltas = [DeltaMap({"l": layer()}, label) for label in ("en", "de", "fr")]
    spy_on("qr")
    spy_on("svd")
    if route == "knots":
        knots_transform(deltas)
    else:
        # reading a pending factor runs the layer's SVD
        refactor_to_adapter(deltas[0], 4).layers["l"][0].values
    expected = ["qr", "@", "svd", "@"] if factored else ["svd"]
    assert seen == [(op, 1) for op in expected]
    assert get() == 2


def test_without_thread_calls_the_body_runs_and_nothing_is_set(monkeypatch):
    before = _calls[0]() if _calls is not None else None
    monkeypatch.setattr(blas, "_thread_calls", lambda: None)
    ran = []
    with blas.one_thread():
        ran.append(blas._depth)
        if _calls is not None:
            assert _calls[0]() == before
    assert ran == [0] and blas._depth == 0
