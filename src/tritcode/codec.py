"""Static two-pass letter codec.

Letters are plain unsigned ints (an L-bit slice of the input; the container
layer enforces the width). Letter arrays of uint8, uint16 or uint32 are
ranked in their own dtype, and an alphabet array of one of those dtypes
decodes into letters of that dtype; other integer input is taken as int64,
and anything else is rejected.
Pass one ranks the alphabet by descending count; pass two swaps each
letter for the codeword whose list index equals the letter's rank.

Pass one needs each distinct letter's count and first occurrence, from one
step chosen by letter dtype. Byte letters are counted, with no sort: one
bincount per chunk gives the 256 counts. A running minimum of positions
over a short prefix gives the first occurrences there, and each value
first counted in a later chunk, or in the rest of the first, takes its
position from one ``bytes.find`` (memchr) over that chunk alone. 16-bit
and uint32 letters, and int64 library input below 2^32, take one sort of
(value, position) keys, ``value << b | position`` with b the bit length of
the last position, uint32 where the largest value fits the 32 - b bits
left and uint64 with b = 32 where it does not; other int64 input takes
numpy's stable argsort. The sorted run of each distinct letter
gives its count and, as its first member, its first occurrence. The first
occurrence breaks count ties in one in-place sort of (count, first) keys,
as narrow by the same rule, which are distinct: their sorted low bits are
where the ranked letters first occur, so they give the ranked alphabet with
no permutation. A model needs no more: pass one gives no letter its rank.

Encoding needs no stored code table either, and never looks at a trit.
Each codeword is an integer and a bit length, and
:func:`~tritcode.codebook.signature_words` gives both for ranks 1..m as one
signature word each, ``value << 6 | length``. Letters of 16 bits or fewer
index a table of their ranks by value, of the narrowest unsigned type that
holds m - 1. Wider letters take their ranks through the sorted positions,
each distinct letter's rank read where its first occurrence took it. Pass
one and the rank spread gather by ``take`` and scatter by an intp index,
casting a narrower index a chunk at a time: fancy indexing by a uint16 or
uint32 index is about 3 times slower, and a whole cast would add 8 bytes
an index to the peak. One encoder
takes its ranks from pass one or from a given model, then spreads and packs
them alike. A codeword's length depends on its code group alone, so the
counts by rank, summed per group, give the payload's bit count before
encoding (:func:`~tritcode.codebook.code_bits`), and the payload is packed
into one zeroed buffer of big-endian 64-bit words.
Alphabets of 3 to 243 letters, code sets 1 to 5, have byte ranks, which
the packer reads two at a time through their uint16 view: each key picks
one pair word, ``(v0 << l1 | v1) << 6 | (l0 + l1)``, the two codewords
already fused, from a table of 3^n x 256 words that
:func:`~tritcode.codebook.pair_words` builds once per set; an odd last
letter takes its signature word alone. Larger alphabets take one
signature word a rank. Each chunk of letters gathers its words into one
reused buffer, which one mask and one shift split into values and
lengths. The groups come in length order, so the word of rank m - 1, or
its pair with itself, is the longest, and g = 2^floor(log2(64 / its
length)) consecutive words fit one field of at most 64 bits: adjacent pairs
fuse log2 g times, the left one shifted by the right one's length. The running
sum of field lengths gives each field's last bit. A field that began in the
word before spills its high bits into the word where the field before it
ends, so they join that field's bits; as a field has at most 64 bits, every
word from the chunk's first field end to its last receives one, and one
reduceat ORs the fields that end in each word into one slice of words.
Chunks of whole fields, a fixed number of words each, bound the scratch
memory.

Decoding needs no code tree and no codeword table search. A trit is 0, 10
or 11: a 1 that opens a trit takes the next bit as its second, as a
backslash escapes the next character, so the trit starts of a bit window
are found 64 bits at a time by the escape scanner of Langdale and Lemire
(simdjson), one subtraction per word. A word takes in a carry of one bit,
set when the word before ends on the first bit of a trit; only an all-ones
word passes its carry-in on, so every carry follows from a prefix maximum
over the words, with no loop, and flips the word's second bits up to its
first 0 bit. The step runs in place: one buffer takes the escape code,
then the second bits, then the bits that open a trit. The bit that opens
each trit and the one after it give its value, and the trits are
compacted, a byte each, into one buffer that ends in a word of zero
bytes. Read n at a time they are rows of n bytes, and the buffer goes as
it is, uncopied, to the rank kernel ``codebook._rank_bytes``: for each
block of up to six trit positions, one strided read of the rows, whose
last row's reads run into the zero word, and one multiply put the
block's base-3 values in byte lanes, as eight
decimal digits are parsed with one multiply (Lemire, "Number Parsing at a
Gigabyte per Second", 2021), and one table lookup gives the block's share
of each codeword's list index, 0-based as the tables are built. One maximum
per window checks the indices against the alphabet, and each index picks
its letter from the alphabet itself, with no copy. A 0 trit is one bit
and a 1 or 2 trit two, so k codewords take k n bits plus one for each
nonzero trit among them.
Windows of a fixed number of bits, each starting on a codeword boundary and
unpacking only the payload bytes it covers, bound the scratch memory.

One- and two-letter alphabets bypass the ternary scheme: with two letters
each letter is its rank bit, with one letter every occurrence is a '0' bit
(costing a bit per letter, but keeping the stream self-delimiting); either
way a letter's bit says whether it differs from the letter of rank 0. Such a
payload takes exactly one bit per letter, so :func:`_check_end`, which ends
every decode, checks its packed bytes before any letter is taken: enough
bits for the letters, no 1 bit under one letter, and fewer than eight
trailing bits, all zero. It reads whole bytes, with no bit unpacked: a
count of nonzero bytes under one letter, and the one or two bytes that
hold the bits after the codewords' last whole byte as one Python int. A
reader of plain bits needs no more than that check, and none of the
decoder. :func:`decode_packed` returns the letters alone, and
:func:`decode_with_stats` the decoder's counts with them, as Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitio import pack01, unpack01
from .codebook import (
    CodeSet,
    Degenerate,
    MAX_PAIR_SET_NUMBER,
    RANK_BLOCK_TRITS,
    RANK_SLACK_BYTES,
    SIGNATURE_LENGTH_BITS,
    _rank_bytes,
    code_bits,
    code_set_for_alphabet,
    pair_words,
    signature_words,
)
from .errors import CorruptedDataError, TruncatedDataError

# Bits the decoder scans at a time. A window must hold more than the longest
# codeword (2n bits, at most 42 for a 32-bit alphabet) so that each one
# yields at least one codeword; its size caps the decoder's scratch arrays,
# the unpacked bits included, whatever the payload size: 2.2 MiB at most,
# for a window of zero bits at n = 1, where the rank of 2^17 one-trit
# codewords sets the peak (the trit scan peaks at 1.5 MiB).
_WINDOW_BITS = 1 << 17

# Words the encoder packs at a time, in whole fields of g words: codewords,
# or pairs of them, an even number of letters. The chunk caps the encoder's
# scratch arrays whatever the input size, as _WINDOW_BITS does for the
# decoder: one uint64 word each, 128 KiB.
_CHUNK_CODEWORDS = 1 << 14

# Word constants of the packer and the trit scan, as numpy scalars: numpy 1.x
# promotes a uint64 array combined with a Python int to float64.
_LENGTH_BITS = np.uint64(SIGNATURE_LENGTH_BITS)
_LENGTH_MASK = np.uint64((1 << SIGNATURE_LENGTH_BITS) - 1)
_ONE = np.uint64(1)
_TOP_BIT = np.uint64(63)
_ODD_BITS = np.uint64(0xAAAA_AAAA_AAAA_AAAA)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

# Pass one counts byte letters this many letters at a time: bincount casts
# its input to intp, so the chunk bounds that scratch whatever the input size.
# The encoder's gathers and scatters cast as many indices to intp at a time,
# and one- and two-letter alphabets pack their bits as many letters at a time.
_COUNT_CHUNK = 1 << 16

# First occurrences of byte values come from np.minimum.at over the first
# _FIRST_STEP letters, and for any value not seen there from one bytes.find
# in the chunk of _COUNT_CHUNK letters where it is first counted. Each value
# is searched for once, in one chunk, so pass one scans at most
# 256 x _COUNT_CHUNK bytes for them, whatever the input size.
_FIRST_STEP = 1 << 11

# Pass one sorts 16-bit and uint32 letters, and int64 letters below this
# bound, by uint32 or uint64 keys of value and position, and ranks by keys of
# count and first occurrence, both through _sorted_keys; inputs of this bound
# or more take numpy's stable argsort and lexsort instead.
_KEY_LIMIT = 1 << 32


@dataclass(frozen=True)
class Model:
    """Frequency-ranked alphabet with its assigned code set."""

    letters: tuple[int, ...]
    counts: tuple[int, ...]
    code_set: CodeSet | Degenerate

    @property
    def m(self) -> int:
        return len(self.letters)


def build_model(letters) -> Model:
    """Rank the distinct letters of ``letters`` by descending count.

    Ties are broken by earliest first occurrence in the input, which makes
    the model deterministic. The decoder does not depend on the tie rule:
    the ranked alphabet travels with the compressed stream.
    """
    alphabet, counts = _ranked(letters)[1:3]  # the rest goes before the Python ints
    return Model(letters=tuple(alphabet.tolist()), counts=tuple(counts.tolist()),
                 code_set=code_set_for_alphabet(alphabet.size))


def _encode(letters, model: Model | None = None) -> tuple[np.ndarray | None, int, tuple]:
    """Pass two's setup, stopped once the payload's size is known: the ranked
    alphabet in the letters' dtype (None under ``model``, which holds it),
    the payload's exact bit count, and the job that ``_pack(*job)`` packs.
    The ranks come from pass one over ``letters``, or from the model's
    letters, a repeated one taking its lowest rank; one rank spread and one
    :func:`_indexed` call follow either, so ``_encode(letters)`` gives
    ``build_model(letters).letters`` and what ``encode_packed(letters,
    build_model(letters))`` packs."""
    if model is None:
        arr, alphabet, counts, firsts, spread = _ranked(letters)
        values, m, top, rank = alphabet, alphabet.size, alphabet[0], None
    else:  # the model holds the alphabet: none is returned, nor held while ranking
        arr, alphabet, known = _letter_array(letters), None, _letter_array(model.letters)
        if known.size == 0:
            raise ValueError("model has no letters")
        m, top = known.size, known[0]
        # a letter the model repeats takes its lowest rank, the first in a stable sort
        known, lowest, _, _ = _distinct(known)
        values, firsts, counts, perm = _distinct(arr)
        pos = np.minimum(np.searchsorted(known, values), known.size - 1)
        absent = known.take(pos) != values
        if absent.any():
            raise ValueError(f"letter {int(values[absent][0])} absent from model")
        rank = lowest.take(pos).astype(np.min_scalar_type(m - 1))
        del known, lowest, pos, absent
        spread = None if perm is None else (perm, firsts, counts)
    ranks = None  # one or two letters pack the letters themselves
    if spread is not None and m > 2:
        perm, first, grouped = spread  # by ascending value
        del spread  # each m-sized array goes once spent: the packer needs none
        # each value's rank, read where its first occurrence got its rank
        # before the spread overwrites it
        ranks = np.empty(arr.size, dtype=np.min_scalar_type(m - 1))
        _scatter(ranks, firsts, np.arange(m, dtype=ranks.dtype) if rank is None else rank)
        del firsts
        _scatter(ranks, perm, np.repeat(_gather(ranks, first), grouped))
        del perm, first, grouped
    if rank is not None:  # counts by rank, as pass one gives them; unused ranks count 0
        counts, by_value = np.zeros(m, dtype=counts.dtype), counts
        _scatter(counts, rank, by_value)
        del by_value
    job = _indexed(arr, top, m, values, counts, rank, ranks)
    return alphabet, job[2], job


def _letter_array(letters) -> np.ndarray:
    """``letters`` as a one-dimensional array: uint8, uint16 and uint32
    arrays keep their width, in native byte order, and other integer or
    bool input becomes int64. Anything else, letters beyond int64 and input
    of any other shape raise ValueError. Every letter array the codec takes,
    input, model letters or decoder alphabet, enters through here, as do
    the letters that :func:`~tritcode.container.join_letters` joins."""
    arr = np.asarray(letters)
    if arr.ndim != 1:
        raise ValueError("letters must be a one-dimensional sequence")
    kind = arr.dtype.kind
    if kind == "u" and arr.dtype.itemsize <= 4:
        return arr.astype(arr.dtype.newbyteorder("="), copy=False)
    if arr.size and (kind not in "biu" or kind == "u" and int(arr.max()) >> 63):
        raise ValueError("letters must be integers that fit in int64")
    return arr.astype(np.int64, copy=False)


def _ranked(letters) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                              tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Pass one over ``letters``: them as an array, their ranked alphabet in
    their dtype, each ranked letter's count, the position of its first
    occurrence, and, for letters wider than 16 bits, the letters' positions
    in sorted order with each distinct value's first occurrence and count,
    by ascending value (else None).

    The keys ``(max count - count) << b | first occurrence`` of
    :func:`_sorted_keys` are distinct, so one sort of them in place ranks
    the alphabet with no permutation: their low b bits are where the ranked
    letters first occur, and their high bits give the counts, in the keys'
    dtype, uint32 or uint64.
    """
    arr = _letter_array(letters)
    if arr.size == 0:
        raise ValueError("cannot build a model from empty input")
    if arr.dtype.kind == "i" and arr.min() < 0:
        raise ValueError("letters must be unsigned integers")
    first, counts, perm = _distinct(arr)[1:]
    top = counts.max()
    if arr.size < _KEY_LIMIT:  # bounds in plain ints: a count is 1 or more
        keys, b = _sorted_keys(top - counts, int(top) - 1, first, arr.size - 1)
        firsts = _low_bits(keys, b)
        keys >>= keys.dtype.type(b)
        ranked = np.subtract(keys.dtype.type(top), keys, out=keys)
    else:
        order = np.lexsort((first, top - counts))
        firsts, ranked = first.take(order), counts.take(order)
        del order
    spread = None if perm is None else (perm, first, counts)
    return arr, _gather(arr, firsts), ranked, firsts, spread


def _distinct(arr: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The distinct values of a nonempty letter array, for pass one or for
    a lookup in a model, in ascending order and in the letters' dtype, the
    position of each one's first occurrence, each one's count, and, for
    letters wider than 16 bits, their positions in sorted order (else None).

    Byte letters are counted by one bincount per chunk, with no sort. Their
    first occurrences come from a running minimum over the first
    :data:`_FIRST_STEP` letters, then from one ``bytes.find`` per value
    unseen there, in the chunk where it is first counted. 16-bit and
    uint32 letters, and int64 letters once two scans find them below 2^32,
    sort as distinct keys ``letter << b | position`` (:func:`_sorted_keys`),
    stable in any sort; each run's first key gives its value and first
    occurrence, and only wider letters split every key for their positions.
    Inputs of :data:`_KEY_LIMIT` letters or more, and other int64 letters,
    take numpy's stable argsort.
    """
    if arr.dtype == np.uint8:
        first = np.full(256, arr.size, dtype=np.intp)
        head = arr[:_FIRST_STEP]
        np.minimum.at(first, head, np.arange(head.size))
        counts = np.zeros(256, dtype=np.intp)
        for start in range(0, arr.size, _COUNT_CHUNK):
            chunk = arr[start:start + _COUNT_CHUNK]
            found = np.bincount(chunk, minlength=256)
            counts += found
            unseen = np.flatnonzero((found > 0) & (first == arr.size))
            if unseen.size:  # a value found here is seen: none is searched for twice
                data = chunk.tobytes()
                for value in unseen.tolist():
                    first[value] = start + data.find(value)
        values = np.flatnonzero(counts)
        return values.astype(np.uint8), first[values], counts[values], None
    wide = arr.dtype.itemsize > 2
    top = int(arr.max())
    if arr.size < _KEY_LIMIT and (
            arr.dtype.kind == "u" or arr.min() >= 0 and top < _KEY_LIMIT):
        keys, b = _sorted_keys(arr, top)
        starts, counts = _runs(keys, b)
        # the sort is stable, so each run opens with its first occurrence
        heads = keys.take(starts)
        del starts  # each m-sized array goes once spent
        firsts = _low_bits(heads, b)
        heads >>= heads.dtype.type(b)
        values = heads.astype(arr.dtype)
        del heads
        return values, firsts, counts, _low_bits(keys, b) if wide else None
    perm = np.argsort(arr, kind="stable")
    ordered = arr.take(perm)
    starts, counts = _runs(ordered.view(f"u{ordered.itemsize}"), 0)
    return ordered.take(starts), perm.take(starts), counts, perm if wide else None


def _sorted_keys(high: np.ndarray, high_max: int, low: np.ndarray | None = None,
                 low_max: int = 0) -> tuple[np.ndarray, int]:
    """The keys ``high << b | low``, sorted, and b, the bit length of
    ``low_max``: uint32 keys if ``high_max`` fits in the 32 - b bits left,
    else uint64 keys with b = 32. ``high_max`` and ``low_max`` bound the
    nonnegative ``high`` and ``low``. ``low`` None stands for the positions
    0, 1, ..., up to ``high.size - 1``, which are ORed in a chunk at a time,
    so no position array of the keys' size is held. The keys are built and
    sorted in place: no new array per operator."""
    if low is None:
        low_max = high.size - 1
    b = low_max.bit_length()
    if b < 32 and not high_max >> 32 - b:
        dtype = np.uint32
    else:
        dtype, b = np.uint64, 32
    keys = high.astype(dtype)
    keys <<= dtype(b)
    if low is None:
        for start in range(0, keys.size, _COUNT_CHUNK):
            chunk = keys[start:start + _COUNT_CHUNK]
            chunk |= np.arange(start, start + chunk.size, dtype=dtype)
    else:
        keys |= low.astype(dtype, copy=False)
    keys.sort()
    return keys, b


def _low_bits(keys: np.ndarray, b: int) -> np.ndarray:
    """The low ``b`` bits of the keys of :func:`_sorted_keys`, as uint32."""
    if b == 32:
        return keys.astype(np.uint32)
    return keys & keys.dtype.type((1 << b) - 1)


def _runs(keys: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The start and the length of each run of sorted unsigned ``keys``
    whose high bits, ``keys >> b``, are equal. Adjacent keys differ above
    bit b - 1 where their XOR is 2^b or more; the XORs are taken a chunk at
    a time, so no scratch of the keys' size is held beside the run marks."""
    opens = np.empty(keys.size, dtype=bool)
    opens[0] = True
    edge = keys.dtype.type(1 << b)
    for start in range(1, keys.size, _COUNT_CHUNK):
        stop = min(start + _COUNT_CHUNK, keys.size)
        np.greater_equal(keys[start:stop] ^ keys[start - 1:stop - 1], edge,
                         out=opens[start:stop])
    starts = np.flatnonzero(opens)
    counts = np.empty_like(starts)
    counts[-1] = keys.size - starts[-1]
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    return starts, counts


def _gather(source: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``source[index]``, by ``take`` into one array, :data:`_COUNT_CHUNK`
    indices at a time: ``take`` casts an index narrower than intp whole, 8
    bytes an index on top of the encoder's peak, and ``source[index]`` runs
    it through a buffered cast some 3 times slower."""
    out = np.empty(index.size, dtype=source.dtype)
    for start in range(0, index.size, _COUNT_CHUNK):
        stop = start + _COUNT_CHUNK
        source.take(index[start:stop], out=out[start:stop], mode="clip")
    return out


def _scatter(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``out[index] = values``, :data:`_COUNT_CHUNK` indices at a time, each
    chunk's index cast to intp first: numpy's own buffered cast of a
    narrower index is slower than that cast and an intp scatter together."""
    for start in range(0, index.size, _COUNT_CHUNK):
        stop = start + _COUNT_CHUNK
        out[index[start:stop].astype(np.intp, copy=False)] = values[start:stop]


def encode_packed(letters, model: Model) -> tuple[bytes, int]:
    """Encode to packed bytes; returns (payload, exact bit count): the job
    that :func:`_encode` builds under ``model``, packed. The payload is the
    concatenated bit signatures in input order, MSB-first within bytes,
    zero-padded on the right to a byte boundary."""
    arr = _letter_array(letters)
    if arr.size == 0:
        return b"", 0
    return _pack(*_encode(arr, model)[2])


def _indexed(arr: np.ndarray, first, m: int, values: np.ndarray,
             counts: np.ndarray, rank: np.ndarray | None, ranks: np.ndarray | None
             ) -> tuple[np.ndarray, tuple[np.ndarray, ...], int, int]:
    """What :func:`_pack` takes for the letters ``arr`` under an alphabet of
    ``m`` letters, ``first`` the one of rank 0: an index array, the tables
    it goes through to its signature words, the payload's bit count and the
    code set number.

    ``values`` are distinct letters, each with its 0-based ``rank``, and
    ``counts[r]`` counts the letters of rank r; ``rank`` None stands for 0,
    1, ..., m - 1, values in rank order, as pass one gives them. Letters of
    16 bits or fewer index a table of ranks by value, of the narrowest
    unsigned type that holds m - 1, and the ranks index the words. Letters
    wider than 16 bits come with ``ranks``, each letter's rank, which index
    the words, and need no ``values``; narrower ones with None. Sets 1 to
    :data:`~tritcode.codebook.MAX_PAIR_SET_NUMBER` (m <= 243) have byte
    ranks, and their words are the prefix of
    :func:`~tritcode.codebook.pair_words` that pairs of ranks below m
    reach; other sets have the first m signature words. Either way the
    last word is the longest. One- and two-letter alphabets get no table
    and set 0: the letters are the index, and ``first`` stands in the
    tables.
    """
    cs = code_set_for_alphabet(m)
    if isinstance(cs, Degenerate):
        return arr, (first,), arr.size, 0
    if cs.n <= MAX_PAIR_SET_NUMBER:  # up to the key of (m - 1, m - 1)
        words = pair_words(cs.n)[:257 * (m - 1) + 1]
    else:
        words = signature_words(cs.n, m)
    nbits = code_bits(cs.n, counts)
    if ranks is not None:
        return ranks, (words,), nbits, cs.n
    if rank is None:
        rank = np.arange(m, dtype=np.min_scalar_type(m - 1))
    table = np.empty(int(values.max()) + 1, dtype=rank.dtype)
    _scatter(table, values, rank)
    return arr, (table, words), nbits, cs.n


def _pack(index: np.ndarray, tables: tuple[np.ndarray, ...], nbits: int,
          n: int) -> tuple[bytes, int]:
    """The packed payload of the codewords that ``index`` reaches through
    ``tables``, first to last, and its bit count ``nbits``. The last table
    holds words ``value << 6 | length`` of set ``n``, its last word the
    longest: signature words, or, up to set
    :data:`~tritcode.codebook.MAX_PAIR_SET_NUMBER`, pair words, which byte
    ranks reach two at a time. At n = 0, an alphabet of one or two
    letters, ``tables`` holds the letter of rank 0 alone, and each letter of
    ``index`` packs to one bit that says whether it differs from that
    letter, a chunk of letters at a time.

    Each chunk of fields of g words, 2^floor(log2(64 / the longest)),
    gathers its words into one buffer, reused from chunk to chunk,
    :func:`_fuse` fuses them into fields, and :func:`_place` ORs those into
    one zeroed buffer of ``nbits`` bits in one pass. Pairs gather by the
    uint16 view of a chunk's ranks, whose letters are even in number but
    for the last chunk's: an odd last letter takes its signature word alone
    as the last entry. Codewords that do not end at bit ``nbits``, the
    counts disagreeing with the ranks, raise ValueError, before any word
    past the buffer is written.
    """
    if not n:
        (first,) = tables
        payload = np.empty((nbits + 7) >> 3, dtype=np.uint8)
        for start in range(0, index.size, _COUNT_CHUNK):  # chunks of whole bytes
            chunk = index[start:start + _COUNT_CHUNK]
            payload[start >> 3:(start + chunk.size + 7) >> 3] = np.packbits(chunk != first)
        return payload.tobytes(), nbits
    *through, signatures = tables
    paired = n <= MAX_PAIR_SET_NUMBER
    g = 1 << (64 // int(signatures[-1] & _LENGTH_MASK)).bit_length() - 1  # words per field
    step = g * max(1, _CHUNK_CODEWORDS // g)  # words per chunk, twice as many letters paired
    words = np.zeros((nbits + 63) >> 6, dtype=np.uint64)
    entries = -(-index.size >> paired)
    buf = np.empty(min(step, -(-entries // g) * g), dtype=np.uint64)
    end = 0
    for start in range(0, index.size, step << paired):
        chunk = index[start:start + (step << paired)]
        for table in through:  # letters of 16 bits or fewer: their ranks by value first
            chunk = table.take(chunk)
        lone = 0
        if paired:
            if chunk.size & 1:  # an odd last letter: its signature word alone
                lone, word = 1, signature_words(n, int(chunk[-1]) + 1)[-1]
            chunk = chunk[:chunk.size - lone].view(np.uint16)
        fields = buf[:-(-(chunk.size + lone) // g) * g]
        np.take(signatures, chunk, out=fields[:chunk.size], mode="clip")
        fields[chunk.size:] = 0  # the last chunk: empty codewords pad its last field
        if lone:
            fields[chunk.size] = word
        end = _place(words, end, *_fuse(fields, g))
    if end != nbits:
        raise ValueError(f"codewords end at bit {end}, not at the {nbits} of the counts")
    if np.little_endian:
        words.byteswap(inplace=True)  # to big-endian: no payload-sized copy
    return words.view(np.uint8)[:(nbits + 7) >> 3].tobytes(), nbits


def _fuse(words: np.ndarray, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Fields of ``g`` words each, a power of two, from uint64 words
    ``value << 6 | length`` of one codeword or of a pair, first to last;
    returns each field's value and bit length, both uint64.

    ``words`` is split in place into its values. Then adjacent pairs fuse
    log2 g times, the left one shifted by the right one's length, so the
    codewords a field takes may have 64 bits in all.
    """
    size = words & _LENGTH_MASK
    words >>= _LENGTH_BITS
    field = words
    while g > 1:
        fused = field[0::2] << size[1::2]
        fused |= field[1::2]
        field, size = fused, size[0::2] + size[1::2]
        g >>= 1
    return field, size


def _place(words: np.ndarray, start: int, field: np.ndarray,
           size: np.ndarray) -> int:
    """OR the uint64 fields ``field`` of bit lengths ``size`` (uint64, 1 to
    64 each) into the 64-bit ``words`` of a big-endian bit stream, from bit
    ``start`` on; returns the bit where they end. Neither argument array
    changes, and fields that would end past ``words`` raise ValueError
    before any word is written.

    The running sum of field lengths gives each field's last bit b within
    its word, and ``field << 63 - b`` its bits there. A field that began in
    the word before spills ``(field >> 1) >> b`` into the word where the
    field before it ends, so that spill joins that field's bits. As no field
    is longer than 64 bits, every word from the first field's last word to
    the last field's holds a field end, and one reduceat over the fields
    that open a word ORs into one slice; only the first field's spill goes
    to the word before it.
    """
    last = np.cumsum(size)
    last += np.uint64(start + 63)
    stop = int(last[-1]) - 63
    if stop > words.size << 6:
        raise ValueError(f"codewords end at bit {stop}, past the buffer's {words.size << 6} bits")
    last &= _TOP_BIT  # each field's last bit within its word
    spill = (field >> _ONE) >> last
    placed = field << (last ^ _TOP_BIT)
    placed[:-1] |= spill[1:]
    opens = last < size  # the field before ends in an earlier word
    opens[0] = True
    first = (start + int(size[0]) - 1) >> 6
    words[first - 1] |= spill[0]  # at first = 0 the first field spills no bit
    words[first:(stop + 63) >> 6] |= np.bitwise_or.reduceat(placed, np.flatnonzero(opens))
    return stop


def encode(letters, model: Model) -> str:
    """Encode to a textual bit string (convenience form of encode_packed)."""
    payload, nbits = encode_packed(letters, model)
    return unpack01(payload, nbits)


def payload_size(model: Model) -> int:
    """Exact encoded bit count implied by the model, before encoding.

    Group arithmetic gives each rank's signature length without generating
    any codeword, so the compressed size can be quoted up front.
    """
    counts = np.asarray(model.counts, dtype=np.int64)
    cs = code_set_for_alphabet(counts.size)
    if isinstance(cs, Degenerate):
        return int(counts.sum())
    return code_bits(cs.n, counts)


@dataclass(frozen=True)
class DecodeStats:
    """What one decode did, as counted by the decoder itself."""

    codewords: int      # codewords decoded, one per letter
    bits_consumed: int  # payload bits those codewords occupy
    padding_bits: int   # zero bits after the last codeword
    rank_passes: int    # rank table lookups: ceil(n / RANK_BLOCK_TRITS) per window
    windows: int        # bit windows scanned; 0 for degenerate alphabets


def decode_packed(payload: bytes, alphabet, letter_count: int,
                  bit_length: int | None = None) -> np.ndarray:
    """Decode ``letter_count`` letters from a packed payload.

    ``alphabet`` is the ranked letter list the encoder was built with. Any
    bits left after the last codeword are treated as byte padding: there may
    be at most seven and they must all be zero. The letters come back in the
    alphabet's dtype if it is a uint8, uint16 or uint32 array, else as int64.
    Errors and bounds are those of :func:`decode_with_stats`, whose counts
    this form never builds.
    """
    return _decode(payload, alphabet, letter_count, bit_length)[0]


def decode_with_stats(payload: bytes, alphabet, letter_count: int,
                      bit_length: int | None = None) -> tuple[np.ndarray, DecodeStats]:
    """:func:`decode_packed`, also returning the decoder's own counts, each
    a Python int.

    Errors come in stream order: an index beyond the alphabet (reported with
    its 1-based letter position), the stream ending before the last
    codeword, a 1 bit under a one-letter alphabet, then eight or more
    trailing bits or a nonzero padding bit.
    The letters are bounded by the payload, not by ``letter_count``, and
    scratch memory by the window size: each window unpacks only the payload
    bytes it covers.
    """
    letters, used, padding, passes, windows = _decode(payload, alphabet, letter_count,
                                                      bit_length)
    return letters, DecodeStats(codewords=len(letters), bits_consumed=used,
                                padding_bits=padding, rank_passes=passes,
                                windows=windows)


def _decode(payload: bytes, alphabet, letter_count: int,
            bit_length: int | None) -> tuple[np.ndarray, int, int, int, int]:
    """The letters of :func:`decode_with_stats` and its counts but the
    first: bits used, padding bits, rank passes and windows."""
    if bit_length is None:
        bit_length = len(payload) * 8
    elif bit_length < 0:
        raise ValueError("bit_length must be non-negative")
    elif bit_length > len(payload) * 8:
        raise ValueError("bit_length exceeds buffer size")
    alphabet = _letter_array(alphabet)
    m = alphabet.size
    if m == 0:
        raise ValueError("alphabet must not be empty")
    if letter_count < 0:
        raise ValueError("letter count must be non-negative")
    buf = np.frombuffer(payload, dtype=np.uint8)
    cs = code_set_for_alphabet(m)
    if isinstance(cs, Degenerate):  # plain bits: checked before any letter is taken
        used, passes, windows = letter_count, 0, 0
        padding = _check_end(buf, bit_length, used, m)
        letters = np.empty(letter_count, dtype=alphabet.dtype)
        for start in range(0, letter_count, _WINDOW_BITS):
            np.take(alphabet, _bits(buf, start, min(start + _WINDOW_BITS, letter_count)),
                    out=letters[start:start + _WINDOW_BITS])
    else:
        letters, used, passes, windows = _decode_letters(
            buf, bit_length, cs.n, alphabet, letter_count)
        padding = _check_end(buf, bit_length, used, m)
    return letters, used, padding, passes, windows


def _check_end(buf: np.ndarray, nbits: int, used: int, m: int) -> int:
    """The padding bits of the first ``nbits`` bits of the payload bytes
    ``buf``, whose codewords, for an alphabet of ``m`` letters, take the
    first ``used``; raises in stream order if the codewords end past the
    stream, a one-letter alphabet's bits hold a 1, or eight or more bits,
    or a nonzero one, follow the codewords. Nothing payload-sized is
    allocated: the one-letter check counts nonzero whole bytes in place,
    and the bits past the last whole byte of codewords, fewer than 16,
    are read as one Python int, from the one or two bytes that hold them."""
    if used > nbits:
        raise TruncatedDataError("bit stream exhausted")
    head, low = used >> 3, used & 7  # bits under the codewords in byte head
    if m == 1 and (np.count_nonzero(buf[:head]) or low and int(buf[head]) >> 8 - low):
        raise CorruptedDataError("single-letter stream contains a 1 bit")
    padding = nbits - used
    if padding >= 8:
        raise CorruptedDataError(f"{padding} bits of trailing data after the last codeword")
    if padding:
        end = low + padding  # bits from byte head on to bit nbits, 1 to 14
        tail = int.from_bytes(buf[head:head + (end + 7 >> 3)], "big")
        if tail >> (-end & 7) & (1 << padding) - 1:
            raise CorruptedDataError("nonzero padding bit after the last codeword")
    return padding


def _bits(buf: np.ndarray, start: int, end: int) -> np.ndarray:
    """Bits ``start`` to ``end - 1`` of a byte array, one uint8 per bit."""
    first = start >> 3
    return np.unpackbits(buf[first:(end + 7) >> 3])[start - 8 * first:end - 8 * first]


def _decode_letters(buf: np.ndarray, nbits: int, n: int, alphabet: np.ndarray,
                    count: int) -> tuple[np.ndarray, int, int, int]:
    """The ``count`` letters whose codewords of set ``n`` open the first
    ``nbits`` bits of ``buf``; returns them with the bits used, rank table
    lookups and windows. A stream that ends first returns ``nbits + 1``
    bits used, one more than it has, for :func:`_check_end` to raise."""
    m = alphabet.size
    # every codeword takes at least n bits, so a count the payload cannot
    # carry never reaches the allocation
    letters = np.empty(min(count, nbits // n), dtype=alphabet.dtype)
    pos = done = windows = 0
    while done < count:
        left = count - done
        end = min(nbits, pos + min(_WINDOW_BITS, 2 * n * left))
        data = _scan_trits(_bits(buf, pos, end))
        k = min((data.size - RANK_SLACK_BYTES) // n, left)
        idx = _rank_bytes(n, data, k)
        windows += 1
        if idx.max(initial=0) >= m:
            i = int((idx >= m).argmax())
            raise CorruptedDataError(
                f"codeword index {int(idx[i]) + 1} exceeds alphabet power {m} "
                f"(letter {done + i + 1} of {count})"
            )
        if k < left and end == nbits:  # the stream ends before the last codeword
            pos = nbits + 1
            break
        alphabet.take(idx, out=letters[done:done + k], mode="clip")
        done += k
        pos += k * n + int(np.count_nonzero(data[:k * n]))
    return letters, pos, -(-n // RANK_BLOCK_TRITS) * windows, windows


def _scan_trits(window: np.ndarray) -> np.ndarray:
    """Every complete trit of a bit window that starts on a trit boundary,
    one int8 each, then :data:`RANK_SLACK_BYTES` zero bytes: the buffer
    that ``codebook._rank_bytes`` ranks as it is.

    A trailing run of ones yields its complete ``11`` pairs as trits 2; an
    odd one left over is the unfinished start of the next trit.

    Each 64-bit word, first bit lowest, takes one escape step of Langdale
    and Lemire's scanner (simdjson) with no carry in, a 1 bit that opens a
    trit escaping the next bit: ``code ^ words`` marks the second bits, and
    bit 63 of ``code & words`` is the carry out. A carry in flips the second
    bits ``words ^ (words + 1)``, up to and including the first 0 bit. One
    buffer takes the code, its second bits and, inverted, the trit starts,
    each step in place; the carry index is one ``arange`` zeroed at the
    all-ones words and maximized in place.
    """
    size = window.size
    if size == 0:
        return np.zeros(RANK_SLACK_BYTES, dtype=np.int8)
    packed = np.zeros(-(-size // 64) * 8, dtype=np.uint8)
    packed[:(size + 7) >> 3] = np.packbits(window, bitorder="little")
    words = packed.view("<u8")  # bit j of word i is window bit 64 i + j
    code = words << _ONE  # the escape code, built in place
    code |= _ODD_BITS
    code -= words
    code ^= _ODD_BITS
    ends = code & words
    ends >>= _TOP_BIT
    second = code
    second ^= words
    # After its first 0 bit a word's trits do not depend on its carry-in, so
    # neither does its carry-out, unless the word is all ones: then it passes
    # its carry-in on unchanged, 64 being even. So each word's carry-in is the
    # carry-out, with carry-in 0, of the last word before it not all ones, or
    # of word 0, whose carry-in is 0.
    last = np.arange(words.size - 1)
    last *= words[:-1] != _ALL_ONES
    np.maximum.accumulate(last, out=last)
    carried = words[1:] + _ONE
    carried ^= words[1:]
    carried *= ends.take(last)
    second[1:] ^= carried
    np.invert(second, out=second)  # the bits that open a trit
    # RANK_SLACK_BYTES zero values past the window, all kept, follow the
    # trits: the rank kernel's reads run into them
    starts = np.unpackbits(second.astype("<u8", copy=False).view(np.uint8),
                           count=size + RANK_SLACK_BYTES, bitorder="little").view(bool)
    if window[-1]:
        starts[size - 1] = False  # an unfinished trit
    starts[size:] = True
    value = np.zeros(starts.size, dtype=np.int8)  # of the trit each bit would open
    np.bitwise_and(window[:-1], window[1:], out=value[:size - 1].view(np.uint8))
    value[:size] += window.view(np.int8)
    # a bool condition: a uint8 one, or value[starts], is slower
    return value.compress(starts)


def decode(bits: str, alphabet, letter_count: int) -> list[int]:
    """Decode a textual bit string (convenience form of decode_packed)."""
    return decode_packed(pack01(bits), alphabet, letter_count,
                         bit_length=len(bits)).tolist()
