"""Shared-memory bank-conflict model (the Fig. 7b padding rationale)."""

import numpy as np
import pytest

from repro.gpusim import conflict_degree, tile_column_access


class TestConflictDegree:
    def test_unit_stride_is_conflict_free(self):
        addr = (np.arange(32, dtype=np.int64) * 4)[None, :]
        assert conflict_degree(addr)[0] == 1

    def test_unpadded_tile_column_is_32_way_conflict(self):
        # Reading a column of a 32-word-pitch tile: every lane hits bank 0.
        addr = tile_column_access(tile_rows=32, row_pitch_words=32)
        assert conflict_degree(addr)[0] == 32

    def test_padded_tile_column_is_conflict_free(self):
        # The paper pads the pitch to 33 (``sh[C][33]``) — degree collapses to 1.
        addr = tile_column_access(tile_rows=32, row_pitch_words=33)
        assert conflict_degree(addr)[0] == 1

    def test_broadcast_does_not_conflict(self):
        addr = np.zeros((1, 32), dtype=np.int64)
        assert conflict_degree(addr)[0] == 1

    def test_two_way_conflict(self):
        # Lanes access words 0 and 32 alternately: bank 0 holds 2 distinct words.
        addr = (np.where(np.arange(32) % 2 == 0, 0, 32 * 4)).astype(np.int64)[None, :]
        assert conflict_degree(addr)[0] == 2

    def test_partial_warp(self):
        addr = tile_column_access(tile_rows=16, row_pitch_words=33)
        assert conflict_degree(addr)[0] == 1

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            conflict_degree(np.zeros(32, dtype=np.int64))
