"""The two-level memo: hit/miss discipline, isolation, and resilience."""

import pickle

import pytest

from repro import cache
from repro.experiments import PanelConfig, generate_panel


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cache.clear_memory()
    yield
    cache.clear_memory()


def test_memory_layer_computes_once():
    calls = []

    def compute():
        calls.append(1)
        return 42

    assert cache.get_or_compute("t", (1, 2), compute) == 42
    assert cache.get_or_compute("t", (1, 2), compute) == 42
    assert len(calls) == 1


def test_disk_layer_survives_process_memory_loss(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return {"curve": [1.0, 2.0]}

    first = cache.get_or_compute("t", ("a",), compute)
    cache.clear_memory()  # simulate a fresh process
    second = cache.get_or_compute("t", ("a",), compute)
    assert second == first
    assert len(calls) == 1
    assert list(tmp_path.glob("*.pkl"))


def test_namespaces_and_keys_do_not_collide():
    assert cache.get_or_compute("ns1", (1,), lambda: "a") == "a"
    assert cache.get_or_compute("ns2", (1,), lambda: "b") == "b"
    assert cache.get_or_compute("ns1", (2,), lambda: "c") == "c"


def test_no_cache_env_disables_memoisation(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    calls = []

    def compute():
        calls.append(1)
        return 7

    cache.get_or_compute("t", (1,), compute)
    cache.get_or_compute("t", (1,), compute)
    assert len(calls) == 2


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache.get_or_compute("t", (9,), lambda: "good")
    (entry,) = tmp_path.glob("*.pkl")
    entry.write_bytes(b"not a pickle")
    cache.clear_memory()
    assert cache.get_or_compute("t", (9,), lambda: "recomputed") == "recomputed"
    # The recomputed value was rewritten and is readable again.
    with open(entry, "rb") as handle:
        assert pickle.load(handle) == "recomputed"


def test_schema_version_partitions_the_disk_layer(monkeypatch):
    # Entries written under one schema must read as misses under another
    # — a layout change can degrade performance, never correctness.
    calls = []

    def compute():
        calls.append(1)
        return "value"

    cache.get_or_compute("t", (1,), compute)
    cache.clear_memory()
    monkeypatch.setattr(cache, "SCHEMA_VERSION", "repro-cache-v999")
    cache.get_or_compute("t", (1,), compute)
    assert len(calls) == 2


def test_cache_info_counts_entries(tmp_path):
    cache.get_or_compute("t", (1,), lambda: "a")
    cache.get_or_compute("t", (2,), lambda: list(range(100)))
    info = cache.cache_info()
    assert info["path"] == str(tmp_path)
    assert info["schema"] == cache.SCHEMA_VERSION
    assert info["entries"] == 2
    assert info["bytes"] > 0
    assert info["enabled"]


def test_clear_disk_removes_all_entries(tmp_path):
    cache.get_or_compute("t", (1,), lambda: "a")
    cache.get_or_compute("t", (2,), lambda: "b")
    assert cache.clear_disk() == 2
    assert cache.cache_info()["entries"] == 0
    assert not list(tmp_path.glob("*.pkl"))


def test_figure7_analytic_curve_served_from_memo():
    config = PanelConfig(rho_prime=0.5, message_length=25)
    deadlines = [25.0, 75.0]
    fresh = generate_panel(config, deadlines=deadlines)
    cache.clear_memory()  # force the disk layer on the second pass
    memoised = generate_panel(config, deadlines=deadlines)
    assert (
        memoised.series["controlled_analytic"].points
        == fresh.series["controlled_analytic"].points
    )


def test_figure7_baselines_served_from_memo(monkeypatch):
    """A warm second panel reads both baselines without an LCFS pass."""
    from repro.queueing.lcfs import LCFSQueue

    config = PanelConfig(rho_prime=0.5, message_length=25)
    deadlines = [25.0, 75.0]
    fresh = generate_panel(config, deadlines=deadlines)

    def no_lcfs_pass(self, deadlines):
        raise AssertionError("LCFS curve recomputed despite a warm memo")

    monkeypatch.setattr(LCFSQueue, "loss_curve", no_lcfs_pass)
    warm = generate_panel(config, deadlines=deadlines)
    cache.clear_memory()  # the disk layer must serve it too
    from_disk = generate_panel(config, deadlines=deadlines)
    for name in ("fcfs_analytic", "lcfs_analytic"):
        assert warm.series[name].points == fresh.series[name].points
        assert from_disk.series[name].points == fresh.series[name].points
