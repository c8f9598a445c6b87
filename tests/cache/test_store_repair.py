"""Appends after damage: a torn tail is cut, a corrupt record is kept.

A crash mid-append leaves an incomplete record at the end of the log — fewer
bytes than a header, or a header whose declared length runs past end of
file.  The next append cuts it under the exclusive lock, so the entries
written after the crash stay reachable on every later open.  A complete
record that fails its checksum is left exactly as it is
(``test_store_corruption.py`` pins what the scan does with it).
"""

import pickle
import struct
import zlib

import pytest

from repro.cache import RECORD_MAGIC, ResultCache

from tests.cache.test_store import fp, make_explanation


def _record(index: int) -> bytes:
    """The framed record ``put(fp(index), make_explanation(index))`` appends."""
    blob = pickle.dumps(make_explanation(index))
    return (
        RECORD_MAGIC
        + fp(index).encode("ascii")
        + struct.pack(">II", len(blob), zlib.crc32(blob))
        + blob
    )


def _store_then_tear(path, tail: bytes) -> None:
    with ResultCache(path) as cache:
        cache.put(fp(0), make_explanation(0))
    with open(path, "ab") as handle:
        handle.write(tail)


class TestTornTailIsCut:
    # Tails shorter than the 76-byte header, the header alone, and the
    # header plus part of the payload.
    @pytest.mark.parametrize("tail", [2, 10, 72, 76, 81])
    def test_entry_after_a_torn_tail_stays_reachable(self, tmp_path, tail):
        path = tmp_path / "s.cache"
        _store_then_tear(path, _record(7)[:tail])
        intact = path.read_bytes()[:-tail]
        with ResultCache(path) as cache:
            cache.put(fp(1), make_explanation(1))
        assert path.read_bytes() == intact + _record(1)
        with ResultCache(path) as cache:
            assert cache.get(fp(0)) is not None
            assert cache.get(fp(1)).model_name == "model-1"
            assert cache.stats().disk.corrupt == 0

    def test_open_handle_sees_entries_appended_after_the_cut(self, tmp_path):
        """A torn tail does not block the frontier: a handle opened on the
        torn store finds what another handle appended after cutting it."""
        path = tmp_path / "s.cache"
        _store_then_tear(path, _record(7)[:100])
        with ResultCache(path) as reader, ResultCache(path) as writer:
            assert reader.get(fp(1)) is None
            writer.put(fp(1), make_explanation(1))
            assert reader.get(fp(1)).model_name == "model-1"


class TestCorruptRecordIsKept:
    def test_put_after_a_flipped_byte_leaves_the_record_in_place(self, tmp_path):
        path = tmp_path / "s.cache"
        with ResultCache(path) as cache:
            for index in range(3):
                cache.put(fp(index), make_explanation(index))
            offset, total = cache._index[fp(1)]
        with open(path, "r+b") as handle:
            handle.seek(offset + total - 2)
            original = handle.read(1)
            handle.seek(offset + total - 2)
            handle.write(bytes([original[0] ^ 0xFF]))
        damaged = path.read_bytes()
        with ResultCache(path) as cache:
            assert cache.get(fp(1)) is None
            cache.put(fp(5), make_explanation(5))
            assert cache.get(fp(5)).model_name == "model-5"
        assert path.read_bytes()[: offset + total] == damaged[: offset + total]
        assert path.read_bytes() == damaged + _record(5)
