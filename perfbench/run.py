"""Layered benchmark of the tritcode codec.

Run from the root of a checkout:

    python3 perfbench/run.py --workload narrow-l8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The codec is imported from the checkout's ``src/``, never from an installed
copy; without those sources the run exits non-zero and prints no result.
Workloads are listed in BENCHMARK.json and built by corpus.py from
``--seed``. One process makes one call at a time (a closed loop with a
single client, no threads).

Every run starts with a gate pass over the workload: each input is
compressed and decompressed and checked by gate.py, and the SHA-256 of each
container is recorded. Timed passes over the whole workload then repeat
until ``--seconds`` have elapsed; each timed operation must reproduce the
gate pass's container and restore its input exactly. A timing is the sum
over one pass, and each metric is the median over passes. Every timed call
sits between two calibration loops and is scaled by them to a reference
speed (see codec_slowdown and launch), because other tenants of a shared
host slow it by up to 2x for minutes at a time; raw medians are printed
beside.

``--trace 0`` times container.compress and container.decompress and prints
the end-to-end metrics. ``--trace 1`` composes the same pipeline from the
modules' public calls inside spans (spans.py), checks that the composed
container is byte-identical to container.compress, times the scalar decode
steps (read_trits, rank, BitReader) and codebook generation on their own,
and prints the per-layer metrics. Both modes time the plain calls, so the
traced run also reports its own overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Spans, digests and the result are
also written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import corpus
import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIB = 1 << 20

# Fresh-interpreter launches per start-up metric; the median is reported.
STARTUP_ROUNDS = 5

# Seconds the two calibration loops of slowdown() take on the reference
# machine (a 2-vCPU Xeon VM) when no other tenant contends for its cores.
REFERENCE_ARITH_S = 0.0021
REFERENCE_MEMORY_S = 0.00098
_CALIBRATION_BYTES = bytes(range(256)) * 1024

SETUP_CODE = (
    "import tritcode.cli\n"
    "from tritcode import container\n"
    "data = b'ABCDEEFFGGHHHIII' * 64\n"
    "if container.decompress(container.compress(data, 8)) != data:\n"
    "    raise SystemExit('round trip failed')\n"
)
IMPORT_CODES = {
    "cli.import_s": "import tritcode.cli",
    "numeral.import_s": "import tritcode.numeral",
    "tritcode.import_s": "import tritcode",
}

END_TO_END_UNITS = {
    "compress_mib_s": "MiB/s",
    "decompress_mib_s": "MiB/s",
    "compressed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Span name -> per-layer metric reporting its summed time per pass.
SPAN_METRICS = {
    "codec.decode": "codec.decode_s",
    "codebook.scan": "codebook.scan_s",
    "codebook.rank": "codebook.rank_s",
    "bitio.reader_init": "bitio.reader_init_s",
    "codebook.generate": "codebook.generate_s",
    "codec.encode": "codec.encode_s",
    "codec.model": "codec.model_s",
    "container.split": "container.split_s",
    "container.parse": "container.parse_s",
    "container.join": "container.join_s",
}
LAYERS = ("container", "codec", "codebook", "bitio")
# Exact counts from the gate pass, summed over the workload's inputs, except
# codebook.n: the largest code set number used.
COUNTS = (
    "codec.letters", "codec.payload_bits", "codec.predicted_bits",
    "codec.padding_bits", "codebook.codewords", "codebook.n", "codebook.m",
    "bitio.bits_read", "container.alphabet_bytes",
    "container.packed_alphabet_taken",
)
COUNT_UNITS = {
    "codec.payload_bits": "bits", "codec.predicted_bits": "bits",
    "codec.padding_bits": "bits", "bitio.bits_read": "bits",
    "container.alphabet_bytes": "bytes",
}

PER_LAYER_UNITS = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "codec.decode_letters_per_s": "1/s",
    "codec.pack_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "s" for name in IMPORT_CODES},
    **{name: COUNT_UNITS.get(name, "count") for name in COUNTS},
    "trace.compress_mib_s": "MiB/s",
    "trace.decompress_mib_s": "MiB/s",
    "trace.compress_overhead_mib_s": "MiB/s",
    "trace.decompress_overhead_mib_s": "MiB/s",
}


def load_codec():
    """Import tritcode from this checkout's src/, refusing any other copy."""
    package = SRC / "tritcode"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tritcode sources at {package}")
    sys.path.insert(0, str(SRC))
    import tritcode
    if Path(tritcode.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported tritcode from {tritcode.__file__}, "
                         f"not from {package}")
    return tritcode


def slowdown() -> tuple[float, float]:
    """How many times slower than the reference the core runs right now.

    Two fixed loops, each timed against its reference: integer arithmetic
    in registers, and scattered reads of a 256 KiB buffer feeding string
    building. Returns (arithmetic, memory) factors.
    """
    start = time.perf_counter()
    x = 0
    for i in range(30000):
        x = (x * 31 + i) & 0xFFFF
    middle = time.perf_counter()
    data = _CALIBRATION_BYTES
    out = []
    push = out.append
    for i in range(6000):
        j = (i * 2654435761) & 0x3FFFF
        push("1" if data[j] & 1 else str(data[j ^ 0x155]))
    "".join(out)
    end = time.perf_counter()
    return (middle - start) / REFERENCE_ARITH_S, (end - middle) / REFERENCE_MEMORY_S


def codec_slowdown() -> float:
    """Slowdown factor for codec calls in this process.

    On a shared host the same code runs up to ~2x slower while another
    tenant loads the core, in stretches lasting seconds to minutes, so raw
    medians of separate runs differed by up to 45%. Contention slows the
    arithmetic loop about as much as numpy-heavy code and the memory loop
    about as much as the scalar decoder, so the geometric mean of the two
    tracks both kinds of codec code.
    """
    arith, memory = slowdown()
    return (arith * memory) ** 0.5


def to_reference(seconds: float, before: float, after: float) -> float:
    """Scale a measured time by the slowdown factors taken just before and
    after it, estimating what the reference machine takes when idle."""
    return seconds * 2 / (before + after)


def launch(code: str) -> tuple[float, float]:
    """Wall time of a fresh interpreter running ``code`` against src/,
    raw and scaled to the reference speed.

    The arithmetic loop alone tracks start-up best: over 300 launches, the
    medians of sets of ten five-launch runs spread 7% scaled by it, 12% by
    codec_slowdown() and 19% raw.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    before = slowdown()[0]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    after = slowdown()[0]
    if proc.returncode:
        raise RuntimeError(f"fresh interpreter failed on {code!r}: "
                           f"{proc.stderr.decode(errors='replace')[-400:]}")
    return elapsed, to_reference(elapsed, before, after)


def startup_times(codes: dict[str, str]) -> tuple[dict, dict]:
    """Launch each probe once to warm bytecode caches, then in rounds.

    Returns raw and reference-scaled seconds per probe name.
    """
    for code in codes.values():
        launch(code)
    raw = {name: [] for name in codes}
    scaled = {name: [] for name in codes}
    for _ in range(STARTUP_ROUNDS):
        for name, code in codes.items():
            elapsed, ref = launch(code)
            raw[name].append(elapsed)
            scaled[name].append(ref)
    return raw, scaled


class Bench:
    """One run over one workload: the gate pass, then timed passes."""

    def __init__(self, tc, inputs: list[corpus.Input], traced: bool):
        self.tc = tc
        self.inputs = inputs
        self.traced = traced
        self.tracer = spans.Tracer()
        self.attempted = 0
        self.problems: list[str] = []
        self.reference: dict[str, bytes] = {}
        self.digests: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.compressed_bytes = 0
        # per timed pass: plain compress and decompress seconds, raw and
        # scaled to the reference speed
        self.plain: list[list[float]] = []
        # (pass, input) -> factor scaling that op's spans to the reference speed
        self.span_scale: dict[tuple[int, str], float] = {}

    @property
    def failed(self) -> int:
        return len(self.problems)

    def run(self, seconds: float) -> None:
        first = self._traced_op if self.traced else self._gate_op
        for inp in self.inputs:
            self._attempt(inp.name, 0, lambda: first(0, inp))
        container = self.tc.container
        self._attempt("worked example", 0, lambda: gate.worked_example_problems(
            container.compress, container.decompress))
        op = self._traced_op if self.traced else self._plain_op
        start = time.perf_counter()
        pass_no = 0
        while pass_no == 0 or time.perf_counter() - start < seconds:
            pass_no += 1
            self.plain.append([0.0, 0.0, 0.0, 0.0])
            for inp in self.inputs:
                self._attempt(inp.name, pass_no, lambda: op(pass_no, inp))

    def _attempt(self, label: str, pass_no: int, call) -> None:
        """Count one operation; ``call()`` returns its problems."""
        self.attempted += 1
        self.tracer.pass_no = pass_no
        self.tracer.input = label
        try:
            found = call()
        except Exception as exc:  # any exception is a failed operation
            found = [f"{type(exc).__name__}: {exc}"]
        self.problems += [f"{label} (pass {pass_no}): {p}" for p in found]

    def _plain(self, pass_no: int, inp: corpus.Input):
        """Time container.compress and container.decompress on their own."""
        container = self.tc.container
        slow0 = codec_slowdown()
        t0 = time.perf_counter()
        blob = container.compress(inp.data, inp.letter_bits,
                                  compress_alphabet=inp.compress_alphabet)
        t1 = time.perf_counter()
        slow1 = codec_slowdown()
        t2 = time.perf_counter()
        try:
            restored = container.decompress(blob)
        except Exception as exc:
            restored = exc
        t3 = time.perf_counter()
        slow2 = codec_slowdown()
        if pass_no:
            totals = self.plain[-1]
            totals[0] += t1 - t0
            totals[1] += t3 - t2
            totals[2] += to_reference(t1 - t0, slow0, slow1)
            totals[3] += to_reference(t3 - t2, slow1, slow2)
        return blob, restored, slow2

    def _record(self, inp: corpus.Input, blob: bytes) -> None:
        self.reference[inp.name] = blob
        self.digests[inp.name] = hashlib.sha256(blob).hexdigest()
        self.compressed_bytes += len(blob)

    def _gate_op(self, pass_no: int, inp: corpus.Input) -> list[str]:
        codec, container = self.tc.codec, self.tc.container
        blob, restored, _ = self._plain(pass_no, inp)
        letters, _ = container.split_letters(inp.data, inp.letter_bits)
        model = codec.build_model(letters)
        payload, bits = codec.encode_packed(letters, model)
        self._record(inp, blob)
        return gate.problems(inp.data, blob, restored, payload, bits,
                             codec.payload_size(model))

    def _plain_op(self, pass_no: int, inp: corpus.Input) -> list[str]:
        blob, restored, _ = self._plain(pass_no, inp)
        found = []
        if blob != self.reference[inp.name]:
            found.append("container differs from the gate pass")
        if isinstance(restored, Exception) or restored != inp.data:
            found.append(f"round trip is not exact: {restored!r:.200}")
        return found

    def _traced_op(self, pass_no: int, inp: corpus.Input) -> list[str]:
        tc, span = self.tc, self.tracer.span
        container, codec, codebook = tc.container, tc.codec, tc.codebook
        # The previous op's probes leave ~10^5 strings behind; collect them
        # now so the collector does not run inside the plain timings below.
        gc.collect()
        blob, restored, slow_before = self._plain(pass_no, inp)
        L = inp.letter_bits

        with span("container.compress"):
            with span("container.split"):
                letters, nbits = container.split_letters(inp.data, L)
            with span("codec.model"):
                model = codec.build_model(letters)
            with span("codec.encode"):
                payload, bits = codec.encode_packed(letters, model)
            composed = self._assemble(model, L, nbits, payload, inp.compress_alphabet)
        # Calibrate between the two halves as _plain does, so both pipelines
        # start each half with the caches in the same state.
        slow_between = codec_slowdown()
        with span("container.decompress"):
            with span("container.parse"):
                info = container.describe(composed, decode_payload=False)
            area = composed[container.HEADER_SIZE + info.alphabet_block_bytes:]
            with span("codec.decode"):
                decoded = codec.decode_packed(area, info.letters, info.letter_count)
            with span("container.join"):
                joined = container.join_letters(decoded, L, nbits)

        # The scalar steps the decoder and encoder run today, timed alone.
        n = info.n
        with span("bitio.reader_init"):
            reader = tc.bitio.BitReader(area)
        if n:
            with span("codebook.generate"):
                codebook.generate_codes(n, model.m)
            with span("codebook.scan"):
                words = [codebook.read_trits(reader, n) for _ in range(info.letter_count)]
            with span("codebook.rank"):
                indices = [codebook.rank(n, w) for w in words]
        self.span_scale[pass_no, inp.name] = 3 / (slow_before + slow_between + codec_slowdown())

        predicted = codec.payload_size(model)
        found = gate.problems(inp.data, composed, restored, payload, bits, predicted)
        if composed != blob:
            found.append("composed container differs from container.compress")
        if joined != inp.data:
            found.append("composed decompress is not exact")
        if n and reader.position != bits:
            found.append(f"scan read {reader.position} bits, encoder wrote {bits}")
        if n and not np.array_equal(np.asarray(info.letters)[np.asarray(indices) - 1], decoded):
            found.append("scan and rank disagree with decode_packed")
        if pass_no == 0:
            self._record(inp, blob)
            self.counts.update({
                "codec.letters": int(letters.size),
                "codec.payload_bits": bits,
                "codec.predicted_bits": predicted,
                "codec.padding_bits": len(payload) * 8 - bits,
                "codebook.codewords": len(words) if n else 0,
                "codebook.m": model.m,
                "bitio.bits_read": reader.position,
                "container.alphabet_bytes": gate.alphabet_area_bytes(blob),
                "container.packed_alphabet_taken": int(info.header.alphabet_packed),
            })
            self.counts["codebook.n"] = max(self.counts["codebook.n"], n)
        return found

    def _assemble(self, model, letter_bits: int, nbits: int, payload: bytes,
                  compress_alphabet: bool) -> bytes:
        """Container v1 from its parts, as docs/format.md lays it out."""
        container = self.tc.container
        width = (letter_bits + 7) // 8
        letters = np.asarray(model.letters, dtype="<u4")
        area = letters.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()
        flags = 0
        if compress_alphabet:
            with self.tracer.span("container.alphabet"):
                nested = container.compress(area, 8)
            candidate = struct.pack("<I", len(nested)) + nested
            if len(candidate) < len(area):
                area, flags = candidate, container.FLAG_PACKED_ALPHABET
        header = container.Header(container.VERSION, flags, letter_bits, nbits)
        return b"".join([container.serialize_header(header),
                         struct.pack("<I", model.m), area, payload])

    def samples(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Per-pass values of every timed metric: scaled to the reference
        speed, and raw for the end-to-end throughputs."""
        mib = sum(len(inp.data) for inp in self.inputs) / MIB
        raw = {"compress_mib_s": [rate(mib, p[0]) for p in self.plain],
               "decompress_mib_s": [rate(mib, p[1]) for p in self.plain]}
        out = defaultdict(list)
        out["compress_mib_s"] = [rate(mib, p[2]) for p in self.plain]
        out["decompress_mib_s"] = [rate(mib, p[3]) for p in self.plain]
        if not self.traced:
            return out, raw
        by_pass = defaultdict(list)
        for s in self.tracer.spans:
            if s.pass_no:
                by_pass[s.pass_no].append(s)
        for plain, pass_no in zip(self.plain, sorted(by_pass)):
            recorded = by_pass[pass_no]
            scale = {s.id: self.span_scale[s.pass_no, s.input] for s in recorded}
            total = spans.totals(recorded, scale)
            for name, metric in SPAN_METRICS.items():
                out[metric].append(total.get(name, 0.0))
            own = spans.self_times(recorded, scale)
            for layer in LAYERS:
                out[f"{layer}.self_s"].append(own.get(layer, 0.0))
            out["codec.pack_s"].append(total.get("codec.encode", 0.0)
                                       - total.get("codebook.generate", 0.0))
            out["codec.decode_letters_per_s"].append(
                rate(self.counts["codec.letters"], total.get("codec.decode", 0.0)))
            traced_c = rate(mib, total.get("container.compress", 0.0))
            traced_d = rate(mib, total.get("container.decompress", 0.0))
            out["trace.compress_mib_s"].append(traced_c)
            out["trace.decompress_mib_s"].append(traced_d)
            out["trace.compress_overhead_mib_s"].append(rate(mib, plain[2]) - traced_c)
            out["trace.decompress_overhead_mib_s"].append(rate(mib, plain[3]) - traced_d)
        return out, raw

    def digest(self) -> str:
        lines = "".join(f"{name}:{self.digests[name]}\n" for name in sorted(self.digests))
        return hashlib.sha256(lines.encode()).hexdigest()


def rate(amount: float, seconds: float) -> float:
    """Amount per second; 0 when nothing was timed (every call failed)."""
    return amount / seconds if seconds else 0.0


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles; the quartiles of one sample are the sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def run_workload(args) -> int:
    tc = load_codec()
    inputs = corpus.workload(args.workload, args.seed)
    traced = bool(args.trace)
    startup_raw, startup = startup_times(IMPORT_CODES if traced else {"setup_s": SETUP_CODE})
    bench = Bench(tc, inputs, traced)
    bench.run(args.seconds)

    sampled, raw = bench.samples()
    sampled.update(startup)
    raw.update(startup_raw)
    total_in = sum(len(inp.data) for inp in inputs)
    exact = {}
    if traced:
        units = PER_LAYER_UNITS
        exact.update({name: bench.counts[name] for name in COUNTS})
    else:
        units = END_TO_END_UNITS
        exact["compressed_ratio"] = bench.compressed_bytes / total_in
        exact["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(inputs)} inputs, {total_in} bytes, {len(bench.plain)} timed passes")
    for name, unit in units.items():
        if name in exact:
            value = exact[name]
            print(f"  {name} = {value} {unit}")
        else:
            value, q1, q3 = summary(sampled[name])
            line = (f"  {name} = {value:.6g} {unit} (median at reference speed; "
                    f"quartiles {q1:.6g} .. {q3:.6g}; {len(sampled[name])} samples")
            if name in raw:
                line += f"; raw median {summary(raw[name])[0]:.6g}"
            print(line + ")")
        metrics[name] = {"value": value, "unit": unit}
    if traced:
        scipy_share = summary(startup["numeral.import_s"])[0] - summary(startup["tritcode.import_s"])[0]
        print(f"  numeral.import_s - tritcode.import_s = {scipy_share:.4g} s (scipy through numeral)")
    print(f"  failed_share = {bench.failed}/{bench.attempted}")
    print(f"  sha256 of containers = {bench.digest()}")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)

    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "result": result, "samples": sampled, "raw_samples": raw,
              "digests": bench.digests,
              "problems": bench.problems, "spans": bench.tracer.records()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any operation failed."""
    results, status = {}, 0
    for name in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines:
            print(f"{name}: no result (exit code {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        print(f"{name}: failed_share = {result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        if proc.returncode or result["failed"]:
            status = 1
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*corpus.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
