import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritcode.bitio import BitReader, pack01, unpack01
from tritcode.errors import TruncatedDataError

bitstrings = st.text(alphabet="01", max_size=200)


def test_writer_packs_msb_first():
    assert pack01("1011" "0100" "1") == bytes([0xB4, 0x80])


def test_reader_reads_back_bits():
    r = BitReader(bytes([0xB4]))
    assert [r.read_bit() for _ in range(8)] == [1, 0, 1, 1, 0, 1, 0, 0]
    with pytest.raises(TruncatedDataError):
        r.read_bit()


def test_reader_respects_bit_length_bound():
    r = BitReader(bytes([0xFF]), bit_length=3)
    assert [r.read_bit() for _ in range(3)] == [1, 1, 1]
    assert r.remaining == 0
    with pytest.raises(TruncatedDataError):
        r.read_bit()
    with pytest.raises(ValueError):
        BitReader(b"\x00", bit_length=9)


@given(bitstrings)
def test_pack_unpack_roundtrip(bits):
    packed = pack01(bits)
    assert len(packed) == (len(bits) + 7) // 8
    assert unpack01(packed, len(bits)) == bits


@given(bitstrings)
def test_writer_reader_agree(bits):
    r = BitReader(pack01(bits), bit_length=len(bits))
    assert "".join(str(r.read_bit()) for _ in range(len(bits))) == bits


def test_unpack01_rejects_bit_length_out_of_range():
    for bit_length in (-1, 9):
        with pytest.raises(ValueError, match=rf"^bit_length {bit_length} outside 0\.\.8$"):
            unpack01(b"\x00", bit_length)


def test_pack01_rejects_other_characters():
    for bits in ("012", "1 0", "10\u00e9"):
        with pytest.raises(ValueError):
            pack01(bits)
