"""Artifact-store durability: torn writes, corruption, concurrency,
restart warm-up with zero recompute."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.campaign import CampaignEngine, GoldenCache
from repro.store import (
    STORE_ENV_VAR,
    ArtifactStore,
    atomic_write_bytes,
    default_store_root,
    key_id,
)
from repro.testing.faultinject import inject

pytestmark = pytest.mark.campaign

SAMPLES = 512


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def _engine(store, samples=SAMPLES):
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

    return CampaignEngine.from_parts(
        table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD,
        samples_per_period=samples, cache=GoldenCache(store=store))


# ----------------------------------------------------------------------
# Addressing and layout
# ----------------------------------------------------------------------
def test_default_root_honors_env(monkeypatch):
    monkeypatch.setenv(STORE_ENV_VAR, "/tmp/somewhere/else")
    assert default_store_root() == "/tmp/somewhere/else"
    monkeypatch.delenv(STORE_ENV_VAR)
    assert default_store_root().endswith(os.path.join(".repro", "store"))


def test_key_id_is_stable_and_distinct():
    key = ("golden", (1.0, 2.0), "abc", 512)
    assert key_id(key) == key_id(("golden", (1.0, 2.0), "abc", 512))
    assert key_id(key) != key_id(("golden", (1.0, 2.0), "abc", 1024))
    assert len(key_id(key)) == 64


def test_put_get_roundtrip(store):
    arrays = {"a": np.arange(5.0), "b": np.array([[1, 2], [3, 4]])}
    store.put(("raw", "demo"), arrays, {"note": "hello"})
    loaded, meta = store.get(("raw", "demo"))
    np.testing.assert_array_equal(loaded["a"], arrays["a"])
    np.testing.assert_array_equal(loaded["b"], arrays["b"])
    assert meta == {"note": "hello"}
    assert store.contains(("raw", "demo"))
    assert len(store) == 1
    info = store.info
    assert (info.writes, info.hits, info.misses) == (1, 1, 0)


def test_absent_key_is_a_miss(store):
    assert store.get(("raw", "nope")) is None
    assert store.info.misses == 1


# ----------------------------------------------------------------------
# Torn writes and corruption degrade, never crash
# ----------------------------------------------------------------------
def test_atomic_write_leaves_no_tmp_droppings(tmp_path):
    path = str(tmp_path / "x.bin")
    atomic_write_bytes(path, b"payload")
    assert open(path, "rb").read() == b"payload"
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_torn_payload_write_quarantines_on_read(store):
    with inject("store.write.tear", times=1) as fault:
        store.put(("raw", "torn"), {"a": np.arange(64.0)})
    assert fault.fired == 1
    # The index recorded the full-payload checksum but the file on
    # disk is truncated: the read must detect it, quarantine, miss.
    assert store.get(("raw", "torn")) is None
    info = store.info
    assert info.quarantined == 1
    assert not store.contains(("raw", "torn"))
    assert len(os.listdir(store.quarantine_dir)) == 1
    # Recompute-and-rewrite path: a fresh put fully recovers.
    store.put(("raw", "torn"), {"a": np.arange(64.0)})
    loaded, __ = store.get(("raw", "torn"))
    np.testing.assert_array_equal(loaded["a"], np.arange(64.0))


def test_bit_rot_quarantines_and_recovers(store):
    store.put(("raw", "rot"), {"a": np.arange(128.0)})
    with inject("store.read.corrupt", times=1):
        assert store.get(("raw", "rot")) is None
    assert store.info.quarantined == 1
    assert len(os.listdir(store.quarantine_dir)) == 1
    store.put(("raw", "rot"), {"a": np.arange(128.0)})
    loaded, __ = store.get(("raw", "rot"))
    np.testing.assert_array_equal(loaded["a"], np.arange(128.0))


def test_torn_index_degrades_to_empty_not_crash(store):
    store.put(("raw", "k1"), {"a": np.arange(3.0)})
    with inject("store.index.tear", times=1):
        store.put(("raw", "k2"), {"a": np.arange(4.0)})
    # The torn index reads as empty (recoverable state)...
    assert len(store) == 0
    assert store.info.errors >= 1
    # ...and the next write re-registers its entry atomically.
    store.put(("raw", "k3"), {"a": np.arange(5.0)})
    assert store.contains(("raw", "k3"))
    loaded, __ = store.get(("raw", "k3"))
    np.testing.assert_array_equal(loaded["a"], np.arange(5.0))


def test_garbage_index_file_degrades(store):
    store.put(("raw", "k"), {"a": np.arange(3.0)})
    with open(store.index_path, "w", encoding="utf-8") as handle:
        handle.write("{ not json")
    assert len(store) == 0
    assert store.get(("raw", "k")) is None  # miss, not crash
    store.put(("raw", "k"), {"a": np.arange(3.0)})
    assert store.get(("raw", "k")) is not None


def test_unknown_index_version_reads_empty(store):
    store.put(("raw", "k"), {"a": np.arange(3.0)})
    with open(store.index_path, "r", encoding="utf-8") as handle:
        index = json.load(handle)
    index["version"] = 999
    with open(store.index_path, "w", encoding="utf-8") as handle:
        json.dump(index, handle)
    assert len(store) == 0


# ----------------------------------------------------------------------
# Concurrency: two writers never lose each other's entries
# ----------------------------------------------------------------------
WRITER_SCRIPT = """
import sys
import numpy as np
from repro.store import ArtifactStore

root, tag = sys.argv[1], sys.argv[2]
store = ArtifactStore(root)
for i in range(8):
    store.put(("raw", tag, i), {"a": np.full(16, float(i))})
for i in range(8):
    loaded, __ = store.get(("raw", tag, i))
    assert loaded["a"][0] == float(i)
"""


def test_two_processes_interleaved_writes_all_survive(store):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [
        subprocess.Popen([sys.executable, "-c", WRITER_SCRIPT,
                          store.root, tag], env=env)
        for tag in ("left", "right")
    ]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    # Read-merge-replace under the flock: no writer lost the other's
    # index entries.
    assert len(store) == 16
    for tag in ("left", "right"):
        for i in range(8):
            loaded, __ = store.get(("raw", tag, i))
            np.testing.assert_array_equal(loaded["a"],
                                          np.full(16, float(i)))


# ----------------------------------------------------------------------
# The GoldenCache wiring: restart warm-up with zero recompute
# ----------------------------------------------------------------------
def test_restarted_engine_warms_from_store_without_recompute(store):
    first = _engine(store)
    golden = first.golden()
    band = first.band()
    info = store.info
    assert info.writes == 2  # golden + calibration
    assert info.hits == 0

    # "Restart": a fresh store handle and a fresh cache over the same
    # root -- nothing in memory survives.
    reopened = ArtifactStore(store.root)
    second = _engine(reopened)
    golden2 = second.golden()
    band2 = second.band()
    info2 = reopened.info
    assert (info2.hits, info2.misses, info2.writes) == (2, 0, 0)
    assert golden2.signature == golden.signature
    np.testing.assert_array_equal(golden2.y, golden.y)
    assert band2.threshold == band.threshold


def test_threshold_table_round_trips_through_the_store(store,
                                                      monkeypatch):
    """The golden's threshold table persists with it: a restarted
    engine gets the same table back without rebuilding it."""
    import repro.campaign.engine as engine_module

    golden = _engine(store).golden()
    assert golden.table is not None

    def no_rebuild(*args, **kwargs):
        raise AssertionError("threshold table rebuilt on warm restart")

    monkeypatch.setattr(engine_module, "threshold_table", no_rebuild)
    reopened = ArtifactStore(store.root)
    table = _engine(reopened).golden().table
    assert reopened.info.hits == 1
    for name in ("breakpoints", "lower", "upper", "base"):
        np.testing.assert_array_equal(getattr(table, name),
                                      getattr(golden.table, name))
    assert table.base.dtype == np.uint8
    assert table.y_range == golden.table.y_range
    assert table.guard == golden.table.guard


def test_golden_without_table_entry_is_recomputed(store):
    """A golden written before threshold tables existed decodes as a
    damaged artifact: the cache recomputes it (table included) and
    rewrites it."""
    from repro.store import _encode_golden

    engine = _engine(store)
    golden = engine.golden()
    arrays, meta = _encode_golden(golden)
    meta.pop("table")
    for name in [n for n in arrays if n.startswith("table_")]:
        del arrays[name]
    key = engine.config.golden_key()
    store.put(key, arrays, meta)
    reopened = ArtifactStore(store.root)
    again = _engine(reopened).golden()
    assert again.table is not None
    np.testing.assert_array_equal(again.table.lower, golden.table.lower)
    assert reopened.info.writes == 1


def test_fault_dictionary_persists_across_restart(store):
    from repro.diagnosis import compile_fault_dictionary

    first = _engine(store)
    dictionary = compile_fault_dictionary(first)
    writes = store.info.writes
    assert writes >= 3  # golden + calibration + dictionary

    reopened = ArtifactStore(store.root)
    second = _engine(reopened)
    dictionary2 = compile_fault_dictionary(second)
    assert reopened.info.writes == 0
    assert dictionary2.threshold == dictionary.threshold
    assert dictionary2.golden_signature == dictionary.golden_signature
    np.testing.assert_array_equal(dictionary2.ndfs, dictionary.ndfs)
    assert [f.label for f in dictionary2.faults] == \
        [f.label for f in dictionary.faults]


def test_corrupted_store_artifact_recomputes_bit_identical(store):
    first = _engine(store)
    golden = first.golden()

    reopened = ArtifactStore(store.root)
    with inject("store.read.corrupt", times=1):
        second = _engine(reopened)
        golden2 = second.golden()
    # The damaged payload was quarantined, the value recomputed and
    # written back -- and screening never noticed.
    info = reopened.info
    assert info.quarantined == 1
    assert info.writes == 1
    assert golden2.signature == golden.signature

    # Third restart hits the rewritten artifact cleanly.
    third = _engine(ArtifactStore(store.root))
    assert third.golden().signature == golden.signature


def test_broken_store_degrades_to_memory_only_caching():
    class ExplodingStore:
        def load_artifact(self, key):
            raise OSError("disk on fire")

        def save_artifact(self, key, value):
            raise OSError("disk on fire")

    engine = CampaignEngine.from_parts(
        *_bench_parts(), samples_per_period=SAMPLES,
        cache=GoldenCache(store=ExplodingStore()))
    golden = engine.golden()  # no exception despite the store
    assert engine.golden() is golden  # LRU still serves


def _bench_parts():
    from repro.monitor.configurations import table1_encoder
    from repro.paper import PAPER_BIQUAD, PAPER_STIMULUS

    return table1_encoder(), PAPER_STIMULUS, PAPER_BIQUAD
