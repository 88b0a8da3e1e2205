import os
import struct
from pathlib import Path

import pytest

from tritcode.container import FLAG_PACKED_ALPHABET, Header, compress, serialize_header

REPO_ROOT = Path(__file__).resolve().parents[1]

# Canterbury corpus location: the TRITCODE_CORPUS environment variable, or
# corpus/canterbury under the repo root. scripts/fetch_corpus.py fills the
# latter in.
CORPUS_ENV = "TRITCODE_CORPUS"


def corpus_location() -> Path:
    override = os.environ.get(CORPUS_ENV)
    if override:
        return Path(override)
    return REPO_ROOT / "corpus" / "canterbury"


@pytest.fixture(scope="session")
def canterbury_dir() -> Path:
    from tritcode.bench import CANTERBURY_FILES

    path = corpus_location()
    missing = [f for f in CANTERBURY_FILES if not (path / f).is_file()]
    if missing:
        pytest.skip(
            f"Canterbury corpus not found at {path} (missing {len(missing)} "
            f"of {len(CANTERBURY_FILES)} files). Run scripts/fetch_corpus.py "
            f"or point {CORPUS_ENV} at the corpus directory."
        )
    return path


@pytest.fixture
def oversized_claim() -> bytes:
    """The docs/format.md worked example claiming 2^40 original bits."""
    blob = bytearray(compress(b"ABCDEEFFGGHHHIII", 8))
    struct.pack_into("<Q", blob, 4, 1 << 40)
    return bytes(blob)


def _packed_around(nested: bytes) -> bytes:
    header = serialize_header(Header(1, FLAG_PACKED_ALPHABET, 8, 8))
    return header + struct.pack("<II", 1, len(nested)) + nested + b"\x00"


@pytest.fixture
def packed_around():
    """Builds a one-letter L = 8 container whose packed alphabet is a given
    nested container, which starts at byte 20; every other field is valid."""
    return _packed_around


def _nested_packed_alphabets(levels: int) -> bytes:
    blob = compress(b"A", 8)
    for _ in range(levels):
        blob = _packed_around(blob)
    return blob


@pytest.fixture
def nested_packed_alphabets():
    """Builds a container whose packed alphabets nest ``levels`` deep, each
    level with the packed-alphabet flag set; about 21 bytes a level."""
    return _nested_packed_alphabets


@pytest.fixture
def deeply_nested() -> bytes:
    return _nested_packed_alphabets(3000)


@pytest.fixture
def wide_nested_alphabet() -> bytes:
    """A one-letter container whose packed alphabet is compressed at L = 16
    instead of 8; every other field is valid. The nested width byte sits at
    offset 23."""
    return _packed_around(compress(b"A", 16))
