import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from moric import classifier, lanes
from moric.classifier import TrainConfig
from moric.core import FeatureSet

SRC = Path(__file__).resolve().parent.parent / "src"


def test_items_come_back_in_order_and_a_nested_fan_out_runs_inline(monkeypatch):
    monkeypatch.setattr(lanes, "POOL_SIZE", 1)  # two lanes, whatever the host
    nested_threads = []
    both_lanes = threading.Barrier(2, timeout=20)  # items 0 and 1 run on different lanes

    def inner(j):
        nested_threads.append(threading.get_ident())
        return j * j

    def outer(i):
        if i < 2:
            both_lanes.wait()
        nested = lanes.in_lanes(inner, 6)
        return i, nested, lanes.lane_count(6), threading.get_ident()

    # an item that fanned out again would wait on the one worker it occupies
    done = []
    caller = threading.Thread(target=lambda: done.append(lanes.in_lanes(outer, 5)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(done) == 1
    results = done[0]
    assert [r[0] for r in results] == [0, 1, 2, 3, 4]
    for _, nested, count, ident in results:
        assert nested == [0, 1, 4, 9, 16, 25] and count == 1
        assert nested_threads.count(ident) >= 6  # the nested items ran on the item's own thread
    assert caller.ident in {r[3] for r in results[:2]}  # the caller's thread runs items too
    assert lanes.lane_count(6) == 2  # and after the fan-out, it fans out again


def test_a_slow_first_item_does_not_hold_back_the_others(monkeypatch):
    monkeypatch.setattr(lanes, "POOL_SIZE", 1)
    rest_done = threading.Event()
    ran = []

    def fn(i):
        if i == 0:
            return rest_done.wait(timeout=20)  # True once the other lane ran 1..n-1
        ran.append(i)
        if len(ran) == 5:
            rest_done.set()
        return i

    assert lanes.in_lanes(fn, 6) == [True, 1, 2, 3, 4, 5]
    assert sorted(ran) == [1, 2, 3, 4, 5]


def test_lane_count_is_capped_by_items_cpus_and_the_request(monkeypatch):
    monkeypatch.setattr(lanes, "POOL_SIZE", 3)
    assert [lanes.lane_count(n) for n in (0, 1, 2, 4, 9)] == [1, 1, 2, 4, 4]
    assert [lanes.lane_count(9, k) for k in (1, 2, 64)] == [1, 2, 4]
    monkeypatch.setattr(lanes, "POOL_SIZE", 0)
    assert lanes.lane_count(9, 64) == 1


def test_a_failing_item_stops_the_hand_out_and_raises_once_started_items_end(monkeypatch):
    monkeypatch.setattr(lanes, "POOL_SIZE", 1)
    second_started = threading.Event()
    started, finished = [], []

    def fn(i):
        started.append(i)
        if i == 0:
            second_started.wait(timeout=20)
            raise ValueError("item 0")
        if i == 1:
            second_started.set()
            threading.Event().wait(0.2)  # still running when item 0 fails
            finished.append(i)
            raise ValueError("item 1")

    with pytest.raises(ValueError, match="item 0"):
        lanes.in_lanes(fn, 6)
    # item 1 started before item 0 failed and failed itself before the raise,
    # which is still item 0's; after the first failure no lane took item 2 or
    # any later one
    assert sorted(started) == [0, 1] and finished == [1]


@pytest.mark.skipif(not lanes.BLAS_PINNED, reason="numpy's BLAS exports no thread-count call")
def test_blas_calls_are_found_through_the_libraries_numpy_links(monkeypatch, tmp_path):
    # no wheel library directory beside numpy, as with conda, a macOS wheel or
    # a distro numpy: the calls resolve through numpy's extension module
    monkeypatch.setattr(np, "__file__", str(tmp_path / "site-packages" / "numpy" / "__init__.py"))
    calls = lanes._blas_thread_calls()
    assert calls is not None
    assert calls[1]() == lanes._blas[1]()


@pytest.mark.skipif(not lanes.BLAS_PINNED, reason="numpy's BLAS exports no thread-count call")
def test_train_holds_blas_at_one_thread_and_restores_the_callers_count(monkeypatch):
    set_threads, get_threads = lanes._blas
    inside = []
    pack = classifier._pack_sets
    monkeypatch.setattr(classifier, "_pack_sets", lambda m: inside.append(get_threads()) or pack(m))
    rng = np.random.default_rng(3)
    data = [(FeatureSet(rng.normal(size=(4, 12)), np.arange(4), np.zeros(4), np.zeros(4)), label) for label in "abab"]
    before = get_threads()
    set_threads(2)  # OpenBLAS may cap it at the CPU count
    try:
        callers = get_threads()
        classifier.train(data, [], TrainConfig(lr=1e-2, batch_size=4, max_epochs=2, patience=2))
        after = get_threads()
    finally:
        set_threads(before)
    assert inside and set(inside) == {1}
    assert after == callers


@pytest.mark.skipif(not lanes.BLAS_PINNED, reason="numpy's BLAS exports no thread-count call")
def test_concurrent_pins_hold_one_thread_until_the_last_exits():
    set_threads, get_threads = lanes._blas
    inside = []

    def worker():
        for _ in range(200):
            with lanes.one_blas_thread():
                inside.append(get_threads())

    workers = [threading.Thread(target=worker) for _ in range(8)]
    before, interval = get_threads(), sys.getswitchinterval()
    set_threads(2)
    sys.setswitchinterval(1e-6)
    try:
        callers = get_threads()
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        after = get_threads()
    finally:
        sys.setswitchinterval(interval)
        set_threads(before)
    assert not any(t.is_alive() for t in workers)
    assert len(inside) == 8 * 200 and set(inside) == {1}
    assert after == callers


CHILD = r"""
import sys
from pathlib import Path

import numpy as np

from moric import classifier, harness
from moric.core import FeatureSet

out = Path(sys.argv[1])
rng = np.random.default_rng(5)


def feature_set(n, label):
    rows = rng.normal(size=(n, 750)) + (label == "b")
    return FeatureSet(features=rows, delay_bins=np.arange(n), streams=np.zeros(n, int), gated=np.zeros(n, bool))


data = [(feature_set(int(rng.integers(100, 157)), label), label) for label in "ab" * 8]
model = classifier.train(data, data[:4], classifier.TrainConfig(lr=1e-2, batch_size=8, max_epochs=2, patience=2))
classifier.save_model(model, out / "model.morm")
samples = [harness.PipelineSample(fs, label, "s", str(i), {}) for i, (fs, label) in enumerate(data)]
(out / "logits.bin").write_bytes(harness.sample_logits(model, samples).tobytes())
"""


@pytest.mark.skipif(not lanes.BLAS_PINNED, reason="numpy's BLAS exports no thread-count call")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the thread count must be set before numpy loads, so each count runs in
    # its own process; sets of up to 156 rows of 750 features trained and
    # scored at BLAS 1 and 2 gave different bits before the pin
    outputs = []
    for count in ("1", "2"):
        out = tmp_path / count
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env, check=True)
        outputs.append([(out / name).read_bytes() for name in ("model.morm", "logits.bin")])
    assert outputs[0] == outputs[1]
