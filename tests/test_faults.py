"""Unit tests of the fault-injection primitives (``repro.faults``).

The chaos invariants themselves live in ``tests/test_chaos.py``; these
tests pin down the primitives' contracts — seeded corruption, the
always-failing sink, input validation.
"""

import pytest

from repro.faults import FailingSink
from repro.faults.corrupt import corrupt_checkpoint


class TestCorruptCheckpoint:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            corrupt_checkpoint(tmp_path, mode="shred")
        with pytest.raises(ValueError, match="no checkpoint manifest"):
            corrupt_checkpoint(tmp_path)

    def test_truncate_halves_the_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"arrays_file": "state-x.npz"}' + " " * 100)
        original_size = manifest.stat().st_size
        (victim,) = corrupt_checkpoint(tmp_path, mode="truncate",
                                       target="manifest")
        assert victim == str(manifest)
        assert manifest.stat().st_size == original_size // 2

    def test_bitflip_changes_exactly_n_bits(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        payload = bytes(range(256))
        manifest.write_bytes(payload)
        corrupt_checkpoint(tmp_path, mode="bitflip", seed=3, n_bits=5,
                           target="manifest")
        damaged = manifest.read_bytes()
        assert len(damaged) == len(payload)
        flipped = sum(bin(a ^ b).count("1")
                      for a, b in zip(payload, damaged))
        assert flipped == 5


class TestFailingSink:
    def test_always_raises_and_records(self):
        sink = FailingSink("down for maintenance")
        with pytest.raises(ConnectionError, match="down for maintenance"):
            sink.emit({"n": 1})
        with pytest.raises(ConnectionError):
            sink.emit({"n": 2})
        assert [p["n"] for p in sink.attempted] == [1, 2]
