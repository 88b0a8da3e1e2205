"""Deterministic binary-ternary prefix code sets.

A code set number ``n`` covers alphabets of m letters with
3^(n-1) < m <= 3^n. The canonical codeword list for set ``n`` is every
length-n trit string, ordered by descending count of 0-trits and then by
ascending lexicographic order (0 < 1 < 2). A codeword's bit signature is the
trit string under the substitution 0 -> '0', 1 -> '10', 2 -> '11', so a
codeword containing z zeros occupies 2n - z bits.

The list never has to be materialized: the position of a codeword in it
(its 1-based index) is computable from the trits alone, and the inverse
mapping recovers the trits from an index. Both directions run in O(n^2)
integer operations; :func:`rank_rows` and :func:`unrank_rows` run the
same arithmetic over many codewords at once as numpy passes. The encoder
needs only the bits: :func:`signature_table` gives the signatures of the
first m codewords as (value, length) integer pairs, built group by group in
n array passes with no sort. Alphabets of one or two letters fall outside
the scheme and are marked :class:`Degenerate`.

Everything here is exact integer arithmetic, no floats. All returned values
are immutable; the module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bitio import BitReader

# 3^n grows past 2^63 around n = 40; the cap also bounds signatures to
# 2n = 80 bits, which keeps every consumer comfortable with plain ints.
MAX_SET_NUMBER = 40
# Largest set whose indices (up to 3^n) fit an int64: 3^39 < 2^63 < 3^40.
MAX_ARRAY_SET_NUMBER = 39
# Largest set whose signatures (up to 2n bits) fit a uint64.
MAX_SIGNATURE_SET_NUMBER = 32

_TRIT_BITS = {"0": "0", "1": "10", "2": "11"}


@dataclass(frozen=True)
class CodeSet:
    """Identity of one prefix code family."""

    n: int
    m_min: int
    m_max: int


@dataclass(frozen=True)
class Degenerate:
    """Marker for one- and two-letter alphabets coded with plain bits."""

    m: int


@dataclass(frozen=True)
class Codeword:
    trits: str
    bits: str
    index: int
    zeros: int

    @property
    def length(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class GroupParams:
    """All codewords with z zeros share one bit length; this is their group."""

    z: int
    length: int
    size: int


def _check_set_number(n: int) -> None:
    if not 1 <= n <= MAX_SET_NUMBER:
        raise ValueError(f"code set number must be in 1..{MAX_SET_NUMBER}, got {n}")


def code_set_for_alphabet(m: int) -> CodeSet | Degenerate:
    """Identify the code set covering an alphabet of ``m`` letters.

    Alphabets of one or two letters are degenerate: their letters are coded
    with the single-bit codes 0 and 1 instead of a ternary-derived set.
    """
    if m < 1:
        raise ValueError("alphabet must contain at least one letter")
    if m <= 2:
        return Degenerate(m)
    n = 1
    cap = 3
    while cap < m:
        n += 1
        cap *= 3
        if n > MAX_SET_NUMBER:
            raise ValueError(f"alphabet of {m} letters exceeds code set {MAX_SET_NUMBER}")
    m_min = 3 if n == 1 else cap // 3 + 1
    return CodeSet(n=n, m_min=m_min, m_max=cap)


# Per-n combinatorial tables, built once and reused. Index [k][j] counts the
# length-k trit strings containing exactly j zeros: C(k,j) * 2^(k-j).
_tables: dict[int, tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]] = {}


def _ntables(n: int):
    cached = _tables.get(n)
    if cached is not None:
        return cached
    counts = []
    row = [1]  # Pascal row for k = 0
    for k in range(n + 1):
        counts.append(tuple(c << (k - j) for j, c in enumerate(row)))
        row = [1] + [row[j] + row[j + 1] for j in range(k)] + [1]
    sizes = counts[n]  # sizes[z] = codewords of set n with z zeros
    # before[z] = codewords in groups with more zeros than z
    before = [0] * (n + 1)
    acc = 0
    for z in range(n, -1, -1):
        before[z] = acc
        acc += sizes[z]
    result = (tuple(counts), sizes, tuple(before))
    _tables[n] = result
    return result


def group_params(n: int, z: int) -> GroupParams:
    _check_set_number(n)
    if not 0 <= z <= n:
        raise ValueError(f"zero count must be in 0..{n}, got {z}")
    _, sizes, _ = _ntables(n)
    return GroupParams(z=z, length=2 * n - z, size=sizes[z])


def trits_to_bits(trits: str) -> str:
    """Bit signature of a trit string: 0 -> '0', 1 -> '10', 2 -> '11'."""
    try:
        return "".join(_TRIT_BITS[t] for t in trits)
    except KeyError as exc:
        raise ValueError(f"invalid trit {exc.args[0]!r}") from None


def read_trits(reader: BitReader, n: int) -> str:
    """Consume one codeword of set ``n`` from the reader, returning its trits.

    Each trit costs one bit when it is a 0 and two bits otherwise; the reader
    is left positioned on the next codeword boundary. An exhausted stream
    raises :class:`TruncatedDataError`.
    """
    if not 1 <= n <= MAX_SET_NUMBER:
        _check_set_number(n)
    read_bit = reader.read_bit
    out = []
    push = out.append
    for _ in range(n):
        if read_bit() == 0:
            push("0")
        elif read_bit() == 0:
            push("1")
        else:
            push("2")
    return "".join(out)


def _iter_trit_strings(n: int) -> Iterator[str]:
    # Canonical order: z = n down to 0, lexicographic inside each group.
    # Plain backtracking; emits only as far as the consumer pulls.
    buf = ["0"] * n

    def fill(pos: int, zeros_left: int) -> Iterator[str]:
        if pos == n:
            yield "".join(buf)
            return
        room = n - pos - 1
        if zeros_left > 0:
            buf[pos] = "0"
            yield from fill(pos + 1, zeros_left - 1)
        if room >= zeros_left:
            buf[pos] = "1"
            yield from fill(pos + 1, zeros_left)
            buf[pos] = "2"
            yield from fill(pos + 1, zeros_left)

    for z in range(n, -1, -1):
        yield from fill(0, z)


def iter_codes(n: int, m: int) -> Iterator[Codeword]:
    """Lazily yield the first ``m`` codewords of set ``n`` in canonical order.

    Generation is incremental: only the requested prefix of the list is
    produced, so small alphabets never pay for the full 3^n enumeration.
    """
    _check_set_number(n)
    if not 1 <= m <= 3**n:
        raise ValueError(f"code count must be in 1..3^{n}, got {m}")
    for idx, trits in enumerate(_iter_trit_strings(n), start=1):
        yield Codeword(trits=trits, bits=trits_to_bits(trits), index=idx,
                       zeros=trits.count("0"))
        if idx == m:
            return


def generate_codes(n: int, m: int) -> list[Codeword]:
    """First ``m`` codewords of set ``n`` in canonical order, as a list."""
    return list(iter_codes(n, m))


def rank(n: int, trits: str) -> int:
    """1-based position of ``trits`` in the canonical list of set ``n``.

    Computed combinatorially: the sizes of all groups with more zeros, plus
    the count of same-group strings that sort lexicographically earlier.
    """
    tables = _tables.get(n)
    if tables is None:
        _check_set_number(n)
        tables = _ntables(n)
    counts, _, before = tables
    if len(trits) != n:
        raise ValueError(f"expected {n} trits, got {len(trits)}")
    zeros_left = trits.count("0")
    idx = before[zeros_left]
    k = n
    for t in trits:
        k -= 1
        if t == "0":
            zeros_left -= 1
        else:
            rest = counts[k]
            if zeros_left:
                idx += rest[zeros_left - 1]  # strings placing '0' here
            if t == "2":
                idx += rest[zeros_left]      # strings placing '1' here
            elif t != "1":
                raise ValueError(f"invalid trit {t!r}")
    return idx + 1


# Per-n step tables for rank_rows, built once and reused; see _rank_steps.
_steps: dict[int, np.ndarray] = {}


def _rank_steps(n: int) -> np.ndarray:
    """Index increments of :func:`rank`, one row per trit position.

    Row p, entry 3 * zeros_left + t, is what :func:`rank` adds to the index
    when trit t sits at position p with ``zeros_left`` zeros still to place
    (including any at p): nothing for a 0, the strings placing a 0 there for
    a 1, and those plus the strings placing a 1 there for a 2.
    """
    cached = _steps.get(n)
    if cached is not None:
        return cached
    counts, _, _ = _ntables(n)
    steps = np.zeros((n, 3 * (n + 1)), dtype=np.int64)
    for p in range(n):
        rest = counts[n - 1 - p]
        # zeros_left = n - p forces a 0 at p, so its entries stay 0
        for zeros_left in range(n - p):
            below = rest[zeros_left - 1] if zeros_left else 0
            steps[p, 3 * zeros_left + 1] = below
            steps[p, 3 * zeros_left + 2] = below + rest[zeros_left]
    steps.setflags(write=False)
    _steps[n] = steps
    return steps


def rank_rows(n: int, trits: np.ndarray) -> np.ndarray:
    """1-based list positions of the codewords held in the rows of ``trits``.

    ``trits`` is a (k, n) integer array of trit values 0, 1 and 2, one
    codeword per row. This is :func:`rank` run as n vector passes, one per
    trit position, each a single lookup in a fixed table: no search and no
    per-codeword Python work. Results are exact int64 values for n up to
    :data:`MAX_ARRAY_SET_NUMBER`.
    """
    if not 1 <= n <= MAX_ARRAY_SET_NUMBER:
        raise ValueError(f"code set number must be in 1..{MAX_ARRAY_SET_NUMBER}, got {n}")
    if trits.ndim != 2 or trits.shape[1] != n:
        raise ValueError(f"expected rows of {n} trits, got shape {trits.shape}")
    _, _, before = _ntables(n)
    steps = _rank_steps(n)
    cols = trits.T.copy()  # one contiguous row per trit position
    is_zero = cols == 0
    zeros_left = is_zero.sum(axis=0, dtype=np.intp)
    idx = np.asarray(before, dtype=np.int64)[zeros_left] + 1
    for p in range(n):
        key = zeros_left * 3
        key += cols[p]
        idx += steps[p][key]
        zeros_left -= is_zero[p]
    return idx


def unrank(n: int, index: int) -> str:
    """Trit string at 1-based ``index`` of the canonical list of set ``n``."""
    _check_set_number(n)
    if not 1 <= index <= 3**n:
        raise ValueError(f"index must be in 1..3^{n}, got {index}")
    counts, sizes, _ = _ntables(n)
    i = index
    for z in range(n, -1, -1):
        if i <= sizes[z]:
            break
        i -= sizes[z]
    out = []
    zeros_left = z
    for pos in range(n):
        rest = counts[n - pos - 1]
        if zeros_left:
            c0 = rest[zeros_left - 1]
            if i <= c0:
                out.append("0")
                zeros_left -= 1
                continue
            i -= c0
        c = rest[zeros_left]
        if i <= c:
            out.append("1")
        else:
            i -= c
            out.append("2")
    return "".join(out)


# Per-n branch tables for unrank_rows, built once and reused; see _unrank_steps.
_branches: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _unrank_steps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of :func:`unrank`: the group ends and starts, then the
    branch sizes it compares the in-group offset with.

    ``ends`` holds the last index of each group in list order (z = n down
    to 0) and ``starts[z]`` the indices before group z. Row p of
    ``zero_first`` and ``one_next``, entry ``zeros_left``, counts the
    strings that place a 0 at position p, and those that place a 1 there.
    """
    cached = _branches.get(n)
    if cached is not None:
        return cached
    counts, sizes, before = _ntables(n)
    ends = np.cumsum([sizes[z] for z in range(n, -1, -1)], dtype=np.int64)
    zero_first = np.zeros((n, n + 1), dtype=np.int64)
    one_next = np.zeros((n, n + 1), dtype=np.int64)
    for p in range(n):
        rest = counts[n - 1 - p]
        # zeros_left = n - p forces a 0 at p: rest[n - p - 1] is 1 and no
        # string places a 1 there
        for zeros_left in range(n - p + 1):
            if zeros_left:
                zero_first[p, zeros_left] = rest[zeros_left - 1]
            if zeros_left < n - p:
                one_next[p, zeros_left] = rest[zeros_left]
    result = (ends, np.asarray(before, dtype=np.int64), zero_first, one_next)
    for table in result:
        table.setflags(write=False)
    _branches[n] = result
    return result


def unrank_rows(n: int, indices: np.ndarray) -> np.ndarray:
    """Trit rows of the codewords at 1-based ``indices`` of set ``n``.

    The inverse of :func:`rank_rows`: a 1-D integer array of k indices gives
    a (k, n) int8 block, row i holding ``unrank(n, indices[i])``. One
    search over the group sizes picks each index's zero count, then n
    vector passes, one per trit position, compare the in-group offset with
    two table lookups each. Exact for n up to :data:`MAX_ARRAY_SET_NUMBER`.
    """
    if not 1 <= n <= MAX_ARRAY_SET_NUMBER:
        raise ValueError(f"code set number must be in 1..{MAX_ARRAY_SET_NUMBER}, got {n}")
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {idx.shape}")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (int(idx.min()) < 1 or int(idx.max()) > 3**n):
        raise ValueError(f"index must be in 1..3^{n}")
    ends, starts, zero_first, one_next = _unrank_steps(n)
    zeros_left = n - np.searchsorted(ends, idx, side="left")
    offset = idx - 1
    offset -= starts[zeros_left]
    out = np.empty((n, idx.size), dtype=np.int8)  # one row per position
    for p in range(n):
        size = zero_first[p][zeros_left]
        past_zero = offset >= size
        offset -= size * past_zero
        size = one_next[p][zeros_left]
        past_one = offset >= size
        past_one &= past_zero
        offset -= size * past_one
        np.add(past_zero, past_one, out=out[p], dtype=np.int8)
        zeros_left -= ~past_zero
    return out.T.copy()


# Per-n signature tables for signature_table, built once and reused; each
# holds the groups up to the furthest one any caller has reached. A table of
# more than _SIGNATURES_KEPT entries (9 bytes each) is built per call
# instead: it serves an input so large that the build costs little beside
# encoding it, and keeping it would pin its memory for good.
_signatures: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_SIGNATURES_KEPT = 1 << 20


def signature_table(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit signatures of the first ``m`` codewords of set ``n`` as integers.

    Entry i - 1 of the uint64 array holds the signature of list index i as a
    binary number, its first bit most significant, and entry i - 1 of the
    uint8 array its length in bits. The strings are grown from the last trit
    position to the first, kept in buckets by their count j of nonzero
    trits, lexicographically ordered inside each bucket and all p + j bits
    long after p positions. Bucket j then grows into the strings with a
    leading 0 from bucket j, then those with a leading 1 (bits 10) and a
    leading 2 (bits 11) from bucket j - 1: three contiguous blocks, each one
    OR with a constant. The finished buckets j = 0, 1, ... are the groups in
    list order, so no sort is needed. Buckets past the last group that the
    first ``m`` codewords reach are never built, so the table holds at most
    3^n entries, fewer than 3m for the set that covers an alphabet of m
    letters.

    A group does not depend on how many follow it, so the table of each n
    is kept, up to a size limit, and every shorter request is served from
    its prefix. The returned arrays are read-only.
    """
    if not 1 <= n <= MAX_SIGNATURE_SET_NUMBER:
        raise ValueError(
            f"code set number must be in 1..{MAX_SIGNATURE_SET_NUMBER}, got {n}")
    if not 1 <= m <= 3**n:
        raise ValueError(f"code count must be in 1..3^{n}, got {m}")
    table = _signatures.get(n)
    if table is None or table[0].size < m:
        ends, _, _, _ = _unrank_steps(n)
        # the last group reached has n - k zeros, so k nonzero trits
        table = _build_signatures(n, int(np.searchsorted(ends, m, side="left")))
        if table[0].size <= _SIGNATURES_KEPT:
            _signatures[n] = table
    values, lengths = table
    return values[:m], lengths[:m]


def _build_signatures(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only signature values and lengths of the groups of set ``n``
    with n down to n - k zeros, as :func:`signature_table` describes."""
    buckets = [np.zeros(1, dtype=np.uint64)]  # the empty string
    for p in range(n):
        grown = buckets[:1]  # a leading 0 leaves the all-zero value at 0
        for j in range(1, min(p + 1, k) + 1):
            shorter = buckets[j - 1]  # p + j - 1 bits
            grown.append(np.concatenate(
                buckets[j:j + 1] + [shorter | np.uint64(2 << (p + j - 1)),
                                    shorter | np.uint64(3 << (p + j - 1))]))
        buckets = grown
    lengths = np.repeat(np.arange(n, n + k + 1, dtype=np.uint8),
                        [b.size for b in buckets])
    values = np.concatenate(buckets)
    values.setflags(write=False)
    lengths.setflags(write=False)
    return values, lengths


def code_length(n: int, index: int) -> int:
    """Bit length of the codeword at ``index`` without materializing it."""
    _check_set_number(n)
    if not 1 <= index <= 3**n:
        raise ValueError(f"index must be in 1..3^{n}, got {index}")
    _, sizes, _ = _ntables(n)
    acc = 0
    for z in range(n, -1, -1):
        acc += sizes[z]
        if index <= acc:
            return 2 * n - z
    raise AssertionError("unreachable")


def signature_total(n: int, m: int) -> int:
    """Total bit length of the first ``m`` codewords, by group arithmetic."""
    _check_set_number(n)
    if not 1 <= m <= 3**n:
        raise ValueError(f"code count must be in 1..3^{n}, got {m}")
    _, sizes, _ = _ntables(n)
    total = 0
    taken = 0
    for z in range(n, -1, -1):
        take = min(sizes[z], m - taken)
        total += take * (2 * n - z)
        taken += take
        if taken == m:
            break
    return total
