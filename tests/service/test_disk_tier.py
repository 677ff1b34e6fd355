"""The persistent tier's entry format (``ENTRY_VERSION`` 4): a JSON header
line carrying a digest of the graph payload that follows it.

The writer validates the graph; the reader checks the digest and rebuilds
without re-inferring a shape.  Whatever fails a check — a flipped byte, a
torn file, a header without a digest, an entry of another version — is a
miss that is counted and logged, never an exception and never silent.
"""

import json
import logging
import struct

import pytest

from repro.experiments import build_small_model
from repro.ir import GraphValidationError
from repro.service import CacheEntry, FingerprintCache, OptimisationService
from repro.service.cache import ENTRY_VERSION
from repro.service.worker import JobRequest, execute_request


@pytest.fixture(scope="module")
def searched():
    """``(fingerprint, SearchResult)`` of a search that applies rules."""
    request = JobRequest(graph=build_small_model("squeezenet"),
                         optimiser="taso", config={"max_iterations": 5},
                         model_name="squeezenet")
    return request.fingerprint(), execute_request(request).search


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _split(path):
    head, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(head), payload


def _write(path, header, payload):
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def test_entry_round_trips_exactly(tmp_path, searched):
    fingerprint, result = searched
    entry = CacheEntry.from_result(fingerprint, result)
    # Floats a decimal rendering could lose: the round trip is by bits.
    entry.stats.update(third=1 / 3, tiny=5e-324, big=1.7976931348623157e308,
                       negative_zero=-0.0)
    assert entry.applied_rules
    FingerprintCache(cache_dir=tmp_path).put(entry)

    reader = FingerprintCache(cache_dir=tmp_path)
    loaded = reader.get(fingerprint)
    assert reader.stats.persistent_hits == 1
    graph, original = loaded.final_graph, entry.final_graph
    assert graph.structural_hash() == original.structural_hash()
    assert list(graph.nodes) == list(original.nodes)
    assert graph.id_bound == original.id_bound
    assert [(n.op_type, n.attrs, n.outputs, n.name)
            for n in graph.nodes.values()] \
        == [(n.op_type, n.attrs, n.outputs, n.name)
            for n in original.nodes.values()]
    graph.validate()  # not run by the reader; must hold all the same
    assert loaded.applied_rules == entry.applied_rules
    assert (loaded.fingerprint, loaded.optimiser, loaded.model) \
        == (entry.fingerprint, entry.optimiser, entry.model)
    for name in ("initial_latency_ms", "final_latency_ms", "initial_cost_ms",
                 "final_cost_ms", "search_time_s", "created_at"):
        assert _bits(getattr(loaded, name)) == _bits(getattr(entry, name))
    assert loaded.stats.keys() == entry.stats.keys()
    for key, value in entry.stats.items():
        assert _bits(loaded.stats[key]) == _bits(value), key


def test_two_services_write_byte_identical_files(tmp_path, searched):
    fingerprint, result = searched
    files = []
    for name in ("a", "b"):
        with OptimisationService(num_workers=1,
                                 cache_dir=tmp_path / name) as service:
            service.cache.put(CacheEntry.from_result(fingerprint, result))
        files.append(tmp_path / name / f"{fingerprint}.json")
    (head_a, payload_a), (head_b, payload_b) = map(_split, files)
    assert payload_a == payload_b
    assert head_a.pop("created_at") > 0 and head_b.pop("created_at") > 0
    assert head_a == head_b and list(head_a) == list(head_b)
    assert head_a["entry_version"] == ENTRY_VERSION == 4


def _flip_a_payload_byte(path):
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0x01
    path.write_bytes(bytes(blob))


def _truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) * 2 // 3])


def _truncate_inside_the_header(path):
    path.write_bytes(path.read_bytes()[:40])


def _drop_the_digest(path):
    header, payload = _split(path)
    del header["payload_blake2b"]
    _write(path, header, payload)


def _relabel_as_version_3(path):
    """A previous build's header over an intact payload: refused by its
    version before the payload is read."""
    header, payload = _split(path)
    header["entry_version"] = 3
    _write(path, header, payload)


def _rewrite_as_version_2(path):
    """What the previous build wrote: one JSON document, graph inside."""
    header, payload = _split(path)
    del header["payload_blake2b"]
    header.update(entry_version=2, final_graph=json.loads(payload))
    path.write_text(json.dumps(header))


@pytest.mark.parametrize("damage, counter", [
    (_flip_a_payload_byte, "corrupt_entries"),
    (_truncate, "corrupt_entries"),
    (_truncate_inside_the_header, "corrupt_entries"),
    (_drop_the_digest, "corrupt_entries"),
    (_relabel_as_version_3, "stale_version_entries"),
    (_rewrite_as_version_2, "stale_version_entries"),
])
def test_refused_entry_is_a_counted_logged_miss(tmp_path, searched, caplog,
                                                damage, counter):
    fingerprint, result = searched
    FingerprintCache(cache_dir=tmp_path).put(
        CacheEntry.from_result(fingerprint, result))
    path = tmp_path / f"{fingerprint}.json"
    damage(path)

    reader = FingerprintCache(cache_dir=tmp_path)
    with caplog.at_level(logging.WARNING, logger="repro.service.cache"):
        assert reader.get(fingerprint) is None
    counters = reader.stats.to_dict()
    assert counters["misses"] == 1 and counters["persistent_hits"] == 0
    other = ({"corrupt_entries", "stale_version_entries"} - {counter}).pop()
    assert counters[counter] == 1 and counters[other] == 0
    (record,) = caplog.records  # exactly one warning, naming the file
    assert record.levelno == logging.WARNING
    assert str(path) in record.getMessage()

    # The search that follows a refusal overwrites the file: it is warm again.
    reader.put(CacheEntry.from_result(fingerprint, result))
    assert FingerprintCache(cache_dir=tmp_path).get(fingerprint) is not None


def test_service_stats_report_refused_entries(tmp_path):
    graph = build_small_model("bert")
    config = {"max_iterations": 2}
    with OptimisationService(num_workers=1, cache_dir=tmp_path) as service:
        service.optimise(graph, "taso", config)
    (path,) = tmp_path.glob("*.json")
    _truncate(path)
    with OptimisationService(num_workers=1, cache_dir=tmp_path) as service:
        result = service.optimise(build_small_model("bert"), "taso", config)
        cache = service.stats()["cache"]
    assert not result.cache_hit  # searched again, once
    # A cold request reads the cache once: one refused read, one miss.
    assert cache["corrupt_entries"] == cache["misses"] == 1
    assert cache["stale_version_entries"] == 0
    CacheEntry.from_bytes(path.read_bytes())  # and republished whole


def test_writer_refuses_a_graph_that_fails_validation(tmp_path, searched):
    """The reader skips shape inference *because* the writer ran it."""
    fingerprint, result = searched
    entry = CacheEntry.from_result(fingerprint, result)
    entry.final_graph = broken = entry.final_graph.copy()
    sink = broken.sink_nodes()[0]
    node = broken.nodes[sink] = broken.nodes[sink].copy()
    node.outputs[0] = node.outputs[0].with_shape((3, 3))
    with pytest.raises(GraphValidationError):
        FingerprintCache(cache_dir=tmp_path).put(entry)
    assert list(tmp_path.glob("*.json")) == []
