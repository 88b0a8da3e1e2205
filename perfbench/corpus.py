"""Seeded synthetic corpus for the benchmark.

Five kinds of data, each a pure function of (seed, kind, index, size): Zipf
word text, uniform random bytes, low-entropy runs, 16-bit sample-like data,
and the 8 KiB tiny files that the small-files workload cuts from the other
kinds. The codec only ever sees the generated bytes; nothing here imports
tritcode.

A workload is a list of Inputs. Each workload stresses a different layer:

narrow-l8    small alphabets (m <= 3^5) at L=8, one letter per byte. The
             per-codeword trit scan and rank dominate decompress; the
             encoder's codebook is a few dozen codewords and costs nothing.
wide-l16     wide alphabets (m from 10^4 to ~6.6*10^4, n = 9..11) at L=16
             and L=32. Codebook generation dominates compress and the
             alphabet block dominates size; there are 2-4x fewer letters
             per byte than at L=8.
small-files  many 8 KiB inputs of every kind at L in {1, 8, 16, 32} with
             the alphabet compressed. Fixed per-call costs dominate, and the
             degenerate plain-bit path (L=1, m <= 2) runs only here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KIB = 1024

KINDS = ("text", "random", "runs", "samples16")

# Stable small integers for the kinds, mixed into every generator seed.
_KIND_IDS = {kind: i for i, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class Input:
    """One benchmark input: the bytes plus how the codec is asked to code them."""

    name: str
    data: bytes
    letter_bits: int
    compress_alphabet: bool


def _rng(seed: int, kind: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _KIND_IDS[kind], index])


def zipf_text(rng: np.random.Generator, size: int) -> bytes:
    """Words drawn with Zipf(s=1.1) frequencies from a random vocabulary."""
    letters = np.frombuffer(b"etaoinshrdlcumwfgypbvkjxqz", dtype=np.uint8)
    letter_p = 1.0 / np.arange(1, letters.size + 1) ** 0.9
    letter_p /= letter_p.sum()
    vocab_size = 2000
    lengths = rng.integers(1, 10, size=vocab_size)
    chars = rng.choice(letters, size=int(lengths.sum()), p=letter_p)
    words = np.split(chars, np.cumsum(lengths)[:-1])
    vocab = [w.tobytes() for w in words]
    # a few capitalized and punctuated variants widen the alphabet towards 3^4
    for i in range(0, vocab_size, 37):
        vocab[i] = vocab[i].capitalize()
    for i, mark in zip(range(5, vocab_size, 53), b",.;:!?'-\"()0123456789"):
        vocab[i] = vocab[i] + bytes([mark])
    word_p = 1.0 / np.arange(1, vocab_size + 1) ** 1.1
    word_p /= word_p.sum()
    picks = rng.choice(vocab_size, size=size // 3 + 16, p=word_p)
    seps = rng.choice(np.frombuffer(b"      \n", dtype=np.uint8), size=picks.size)
    out = bytearray()
    for w, s in zip(picks, seps):
        out += vocab[w]
        out.append(s)
        if len(out) >= size:
            break
    return bytes(out[:size])


def uniform_random(rng: np.random.Generator, size: int) -> bytes:
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def low_entropy_runs(rng: np.random.Generator, size: int) -> bytes:
    """Runs of a dozen symbols with skewed frequencies and geometric lengths."""
    symbols = rng.choice(256, size=12, replace=False).astype(np.uint8)
    p = 0.5 ** np.arange(12)
    p /= p.sum()
    n_runs = size // 4 + 16
    values = rng.choice(symbols, size=n_runs, p=p)
    lengths = rng.geometric(0.2, size=n_runs)
    return np.repeat(values, lengths)[:size].tobytes()


def samples16(rng: np.random.Generator, size: int) -> bytes:
    """Big-endian int16 signal: three tones of fixed amplitude plus noise.

    Only frequencies, phases and noise are drawn, so the alphabet power stays
    near 1.46*10^4 at 128 KiB and L=16 for every seed.
    """
    count = size // 2
    t = np.arange(count, dtype=np.float64)
    signal = rng.normal(0, 150, count)
    for amplitude in (4000, 2500, 1500):
        freq = rng.uniform(1e-4, 2e-2)
        signal += amplitude * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    out = np.rint(signal).astype(">i2").tobytes()
    return out + bytes(size - len(out))


GENERATORS = {
    "text": zipf_text,
    "random": uniform_random,
    "runs": low_entropy_runs,
    "samples16": samples16,
}


def generate(seed: int, kind: str, index: int, size: int) -> bytes:
    """Deterministic bytes of one kind: the same arguments give the same bytes."""
    data = GENERATORS[kind](_rng(seed, kind, index), size)
    if len(data) != size:
        raise AssertionError(f"{kind} generator gave {len(data)} bytes, not {size}")
    return data


def tiny_file(seed: int, kind: str, index: int) -> bytes:
    """An 8 KiB input of the given kind."""
    return generate(seed, kind, 1000 + index, 8 * KIB)


WORKLOADS = ("narrow-l8", "wide-l16", "small-files")


def workload(name: str, seed: int) -> list[Input]:
    """The inputs of one workload for one seed."""
    if name == "narrow-l8":
        # 32 KiB pieces keep each timed call short, so the calibration
        # spins around it see the same contention (see run.to_reference)
        return [Input(f"{kind}-l8-{i}", generate(seed, kind, i, 32 * KIB), 8, False)
                for kind in ("text", "runs") for i in range(4)]
    if name == "wide-l16":
        return [
            Input("samples16-l16", generate(seed, "samples16", 0, 128 * KIB), 16, False),
            Input("random-l16", generate(seed, "random", 0, 128 * KIB), 16, False),
            # 65536 distinct letters: m > 3^10, so code set 11
            Input("random-l32", generate(seed, "random", 1, 256 * KIB), 32, False),
        ]
    if name == "small-files":
        inputs = []
        for bits in (1, 8, 16, 32):
            for kind in KINDS:
                for i in range(2):
                    inputs.append(Input(f"{kind}-l{bits}-{i}", tiny_file(seed, kind, bits * 10 + i),
                                        bits, True))
        return inputs
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
