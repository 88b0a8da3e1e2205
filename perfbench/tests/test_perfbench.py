"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402

tritcode = run.load_codec()
from tritcode import codec, container  # noqa: E402


@pytest.mark.parametrize("kind", corpus.KINDS)
def test_generator_is_deterministic_per_seed(kind):
    first = corpus.generate(7, kind, 0, 4096)
    assert len(first) == 4096
    assert corpus.generate(7, kind, 0, 4096) == first
    assert corpus.generate(8, kind, 0, 4096) != first
    assert corpus.generate(7, kind, 1, 4096) != first


@pytest.mark.parametrize("name", corpus.WORKLOADS)
def test_workloads_are_deterministic_per_seed(name):
    first = corpus.workload(name, 3)
    again = corpus.workload(name, 3)
    other = corpus.workload(name, 4)
    assert [i.data for i in first] == [i.data for i in again]
    assert [i.name for i in first] == [i.name for i in other]
    assert all(a.data != b.data for a, b in zip(first, other))


def test_tiny_files_are_8_kib():
    for inp in corpus.workload("small-files", 1):
        assert len(inp.data) == 8 * 1024
        assert inp.compress_alphabet
    assert {i.letter_bits for i in corpus.workload("small-files", 1)} == {1, 8, 16, 32}


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_declared_metrics_match_the_runner_tables():
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "narrow-l8",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == _declared(section)
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))


def _gate_inputs(data: bytes, letter_bits: int = 8):
    letters, _ = container.split_letters(data, letter_bits)
    model = codec.build_model(letters)
    payload, bits = codec.encode_packed(letters, model)
    return payload, bits, codec.payload_size(model)


def _decompressed(blob: bytes):
    try:
        return container.decompress(blob)
    except Exception as exc:
        return exc


def test_gate_passes_a_sound_operation():
    data = corpus.generate(1, "text", 0, 4096)
    blob = container.compress(data, 8)
    payload, bits, predicted = _gate_inputs(data)
    assert gate.problems(data, blob, _decompressed(blob), payload, bits, predicted) == []


def test_gate_fails_a_flipped_payload_bit():
    data = corpus.generate(1, "text", 0, 4096)
    blob = container.compress(data, 8)
    payload, bits, predicted = _gate_inputs(data)
    first_payload_byte = len(blob) - len(payload)
    corrupted = bytearray(blob)
    corrupted[first_payload_byte] ^= 0x80
    corrupted = bytes(corrupted)
    found = gate.problems(data, corrupted, _decompressed(corrupted), payload, bits, predicted)
    assert found


def test_gate_fails_a_wrong_predicted_size():
    data = corpus.generate(1, "runs", 0, 4096)
    blob = container.compress(data, 8)
    payload, bits, predicted = _gate_inputs(data)
    found = gate.problems(data, blob, _decompressed(blob), payload, bits, predicted + 1)
    assert any("payload_size" in p for p in found)


def test_gate_fails_a_wrong_container_length():
    data = corpus.generate(1, "runs", 0, 4096)
    blob = container.compress(data, 8) + b"\0"
    payload, bits, predicted = _gate_inputs(data)
    found = gate.problems(data, blob, data, payload, bits, predicted)
    assert any("layout" in p for p in found)


def test_worked_example_is_reproduced():
    assert gate.worked_example_problems(container.compress, container.decompress) == []
    assert len(gate.WORKED_CONTAINER) == 32


def _with(module, **overrides):
    return SimpleNamespace(**{**vars(module), **overrides})


def _codec_with(**overrides):
    return _with(tritcode, **overrides)


@pytest.mark.parametrize("traced", [False, True])
def test_bench_counts_a_corrupted_container_as_failed(traced):
    def flipping_compress(data, letter_bits=8, **kwargs):
        blob = bytearray(container.compress(data, letter_bits, **kwargs))
        blob[-1] ^= 0x01
        return bytes(blob)

    inputs = corpus.workload("narrow-l8", 2)[:2]
    bench = run.Bench(_codec_with(container=_with(container, compress=flipping_compress)),
                      inputs, traced)
    bench.run(0)
    # gate pass, one timed pass and the worked example all fail
    assert bench.failed >= 2 * len(inputs) + 1
    assert bench.attempted == 2 * len(inputs) + 1


@pytest.mark.parametrize("traced", [False, True])
def test_bench_counts_a_wrong_predicted_size_as_failed(traced):
    def wrong_size(model):
        return codec.payload_size(model) + 1

    inputs = corpus.workload("narrow-l8", 2)[:2]
    bench = run.Bench(_codec_with(codec=_with(codec, payload_size=wrong_size)), inputs, traced)
    bench.run(0)
    assert any("payload_size" in p for p in bench.problems)
    assert bench.failed >= len(inputs)


def test_bench_passes_the_real_codec_and_composes_identical_containers():
    inputs = corpus.workload("small-files", 2)[::5]
    bench = run.Bench(tritcode, inputs, traced=True)
    bench.run(0)
    assert bench.problems == []
    assert bench.counts["codec.payload_bits"] == bench.counts["codec.predicted_bits"]
    assert bench.counts["container.packed_alphabet_taken"] > 0
