"""Number representations underlying the ternary coding choice.

A natural number written in base b can be laid out as a b-row binary matrix
with one 1 per column (row a+1 marks digit value a). Dropping rows that are
reconstructible from the others leads to a prefix-coded "economical" binary
form of the number: each digit value gets one of the elementary codes
'0', '10', '110', ..., with the shortest code going to the most frequent
digit. The compactness machinery compares the streamed length of such
representations against plain binary and shows base 3 is the best integer
base, which is what motivates the ternary codebook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .codec import build_model
from .errors import CorruptedDataError


@dataclass(frozen=True)
class TabularForm:
    """b-row binary matrix of a number; column j has a 1 in row digit+1."""

    b: int
    c: int
    digits: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EconomicalForm:
    b: int
    digits: tuple[int, ...]
    code_map: dict[int, str]
    bits: str


@dataclass(frozen=True)
class CompactnessPoint:
    b: int
    c_b: int
    c_2: int
    l_bar: Fraction
    e_bar: float


def to_positional(value: int, b: int) -> list[int]:
    """Base-b digits of ``value``, most significant first."""
    if b < 2:
        raise ValueError("base must be at least 2")
    if value < 1:
        raise ValueError("value must be a natural number")
    digits = []
    while value:
        value, d = divmod(value, b)
        digits.append(d)
    digits.reverse()
    return digits


def tabular_form(value: int, b: int) -> TabularForm:
    digits = to_positional(value, b)
    c = len(digits)
    cells = tuple(
        tuple(1 if d == row else 0 for d in digits) for row in range(b)
    )
    return TabularForm(b=b, c=c, digits=tuple(digits), cells=cells)


def dominant_row(form: TabularForm) -> int:
    """Digit value whose row holds the most 1s; ties go to the smaller digit."""
    best = 0
    best_sum = sum(form.cells[0])
    for d in range(1, form.b):
        s = sum(form.cells[d])
        if s > best_sum:
            best, best_sum = d, s
    return best


def elementary_codes(b: int) -> tuple[str, ...]:
    """The b prefix-free codes of lengths 1, 2, ..., b-1, b-1."""
    if b < 3:
        raise ValueError("base must be at least 3")
    codes = ["1" * (k - 1) + "0" for k in range(1, b)]
    codes.append("1" * (b - 1))
    return tuple(codes)


def economical_encode(value: int, b: int) -> EconomicalForm:
    """Prefix-coded binary rendering of ``value`` written in base b.

    Only digit values that actually occur receive codes. The total bit
    length does not depend on how ties between equally frequent digits are
    broken, since tied digits swap codes of interchangeable lengths.
    """
    codes = elementary_codes(b)
    digits = to_positional(value, b)
    ranked = build_model(digits).letters
    code_map = {d: codes[r] for r, d in enumerate(ranked)}
    bits = "".join(code_map[d] for d in digits)
    return EconomicalForm(b=b, digits=tuple(digits), code_map=code_map, bits=bits)


def economical_decode(form: EconomicalForm) -> int:
    """Recover the number from its economical form."""
    decode_map = {code: d for d, code in form.code_map.items()}
    if len(decode_map) != len(form.code_map):
        raise CorruptedDataError("code map is not invertible")
    value = 0
    buf = ""
    for ch in form.bits:
        buf += ch
        d = decode_map.get(buf)
        if d is not None:
            value = value * form.b + d
            buf = ""
    if buf:
        raise CorruptedDataError("bit string ends inside a code")
    if value == 0:
        raise CorruptedDataError("empty or all-zero digit string")
    return value


def mean_code_length(b: int) -> Fraction:
    """Average elementary code length for base b: (b^2 + b - 2) / 2b."""
    if b < 3:
        raise ValueError("base must be at least 3")
    return Fraction(b * b + b - 2, 2 * b)


def equivalent_binary_digits(b: int, c_b: int) -> int:
    """Binary digit count covering the same range as c_b base-b digits."""
    # ceil(c_b * log2 b) computed exactly: smallest c2 with 2^c2 >= b^c_b.
    return (b**c_b - 1).bit_length()


def compactness(b: int, c_b: int) -> CompactnessPoint:
    """Streamed-length ratio of economical base-b form vs plain binary."""
    if c_b < 1:
        raise ValueError("digit count must be positive")
    l_bar = mean_code_length(b)
    c_2 = equivalent_binary_digits(b, c_b)
    e_bar = float(Fraction(c_b, c_2) * l_bar)
    return CompactnessPoint(b=b, c_b=c_b, c_2=c_2, l_bar=l_bar, e_bar=e_bar)


def compactness_table(bases: range, digit_counts: range) -> list[CompactnessPoint]:
    return [compactness(b, c) for b in bases for c in digit_counts]


def continuous_minimum() -> tuple[float, float]:
    """Minimum of the relaxed compactness ratio over real bases in (1, 4].

    With the integer ceilings dropped, the block length cancels and the
    ratio reduces to (b^2 + b - 2) / (2 b log2 b). The minimum sits near
    b = 1.7 at roughly 0.995, slightly better than binary's exact 1.0.
    """

    def f(b: float) -> float:
        return (b * b + b - 2.0) / (2.0 * b * math.log2(b))

    # golden-section search; f is unimodal on the interval
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 1.0 + 1e-9, 4.0
    a, b = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > 1e-10:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = f(b)
    x = (lo + hi) / 2.0
    return x, f(x)


def format_tabular(form: TabularForm) -> str:
    """Matrix rendering with the dominant row marked by an asterisk."""
    dom = dominant_row(form)
    lines = []
    for d in range(form.b):
        mark = "*" if d == dom else " "
        row = " ".join(str(x) for x in form.cells[d])
        lines.append(f"{d:>3}{mark}| {row}")
    return "\n".join(lines)


def format_reduced(form: TabularForm) -> str:
    """Rendering of the matrix after the two lossless reductions.

    One non-dominant row is dropped outright (recoverable because columns
    sum to 1), and cells of the remaining non-dominant rows are blanked
    wherever the dominant row already holds the column's 1. Display only;
    nothing parses this form.
    """
    dom = dominant_row(form)
    dropped = next(d for d in range(form.b) if d != dom)
    lines = []
    for d in range(form.b):
        if d == dropped:
            continue
        cells = []
        for j in range(form.c):
            if d != dom and form.cells[dom][j] == 1:
                cells.append(".")
            else:
                cells.append(str(form.cells[d][j]))
        mark = "*" if d == dom else " "
        lines.append(f"{d:>3}{mark}| " + " ".join(cells))
    return "\n".join(lines)


def format_economical(form: EconomicalForm) -> str:
    """Digit-to-code table followed by the encoded bit string."""
    lines = [f"digit {d} -> {code}" for d, code in form.code_map.items()]
    lines.append(f"bits: {form.bits} ({len(form.bits)} bits)")
    return "\n".join(lines)
