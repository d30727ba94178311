"""Crafted corrupt index files fail with ValueError, and the CLI exits 2.

A count field that claims more items than the file holds must be refused
before anything of that size is allocated.
"""

import struct

import pytest

from pmdm import Dictionary
from pmdm.cli import main
from pmdm.index import count_for_mask, load_index, save_index, split_build

HUGE = (1 << 32) - 1


def _str(text: str, declared: int | None = None) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<Q", len(raw) if declared is None else declared) + raw


def split_file(count: int = 1, n_members: int = 1, n_pairs: int = 1) -> bytes:
    """The split index of the one-entry dictionary ["a"] with tau=1, written
    field by field, with the first group's count and member count and every
    pair count replaceable."""

    def group(key: str, count: int, members: int) -> bytes:
        return _str(key) + struct.pack("<QI", count, members) + struct.pack("<I", 0)

    out = b"PMDM1" + struct.pack("<BIBII", 3, 1, 1, 1, 1) + struct.pack("<I", 1) + _str("a")
    out += struct.pack("<BI", 1, 1) + group("a", count, n_members)
    out += struct.pack("<I", 1) + group("", 1, 1)
    out += struct.pack("<BI", 0, 1) + group("", 1, 1)
    out += struct.pack("<I", 2)
    for bits in (0, 1):
        out += struct.pack("<QQ", bits, n_pairs) + struct.pack("<QQ", 0, 1)
    return out


def dictionary_file(declared: int | None = None) -> bytes:
    return b"PMDM1" + struct.pack("<BII", 1, 1, 2) + _str("a\nb", declared)


def test_crafted_split_file_matches_the_real_one(tmp_path):
    path = tmp_path / "real.bin"
    save_index(path, split_build(Dictionary(["a"]), 1))
    assert path.read_bytes() == split_file()
    loaded = load_index(path)
    assert [count_for_mask(loaded, "a", bits) for bits in (0, 1)] == [1, 1]


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(split_file(n_members=HUGE), id="member-count"),
        pytest.param(split_file(count=(1 << 64) - 1), id="group-count"),
        pytest.param(split_file(n_pairs=1 << 60), id="pair-count"),
        pytest.param(dictionary_file(declared=1 << 62), id="string-length"),
        pytest.param(dictionary_file()[:-1], id="truncated-string"),
        pytest.param(split_file()[:-9], id="truncated-pairs"),
        pytest.param(split_file()[:3], id="truncated-magic"),
    ],
)
def test_corrupt_counts_are_refused(tmp_path, capsys, payload):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(payload)
    with pytest.raises(ValueError):
        load_index(path)
    code = main(["index", "query", "--index", str(path), "--query", "a", "--z", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_intact_crafted_dictionary_file_loads(tmp_path):
    path = tmp_path / "dict.bin"
    path.write_bytes(dictionary_file())
    assert load_index(path) == Dictionary(["a", "b"])
