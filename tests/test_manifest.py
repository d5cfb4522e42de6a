"""SHA-256: the interpreter's builtin hash, with hashlib's digests."""

import hashlib

import pytest

from torsionlab.manifest import file_sha256, sha256

# file_sha256 reads 65,536-byte chunks: sizes on both sides of one chunk
SIZES = [0, 1, 65_535, 65_536, 65_537]


def test_hash_is_the_builtin_one():
    assert type(sha256()).__module__ in ("_sha2", "_sha256")  # Python 3.12+, 3.10-3.11


@pytest.mark.parametrize("size", SIZES)
def test_digests_match_hashlib(size, tmp_path):
    data = (bytes(range(256)) * (size // 256 + 1))[:size]
    expected = hashlib.sha256(data).hexdigest()
    assert sha256(data).hexdigest() == expected
    (tmp_path / "data").write_bytes(data)
    assert file_sha256(tmp_path / "data") == expected
