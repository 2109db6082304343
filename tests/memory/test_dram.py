"""DRAM model: latency, counters, closed-row granularity."""

import pytest

from repro import params
from repro.errors import ConfigurationError
from repro.memory.dram import BANKS, DRAM

#: Rows are pages; rows this far apart share a bank.
ROW = params.PAGE_SIZE
SAME_BANK = ROW * BANKS


class TestDRAM:
    def test_read_latency(self):
        dram = DRAM(latency=200)
        assert dram.read_line(0x1000) == 200

    def test_write_latency(self):
        dram = DRAM(latency=150)
        assert dram.write_line(0x1000) == 150

    def test_counters(self):
        dram = DRAM()
        dram.read_line(0x1000)
        dram.read_line(0x1040)
        dram.write_line(0x2000)
        assert dram.stats.reads == 2
        assert dram.stats.writes == 1
        assert dram.stats.accesses == 3

    def test_row_granularity_is_page(self):
        dram = DRAM()
        # Every line of one page maps to one row: the memory-controller
        # leak unit the Sec. 6.5 optimization relies on.
        rows = {dram.row_of(0x3000 + i * params.LINE_SIZE) for i in range(64)}
        assert len(rows) == 1
        assert dram.row_of(0x3000) != dram.row_of(0x4000)

    def test_rows_touched_tracking(self):
        dram = DRAM()
        dram.read_line(0x1000)
        dram.read_line(0x1040)  # same row
        dram.write_line(0x9000)  # different row
        assert len(dram.stats.rows_touched) == 2

    def test_reset(self):
        dram = DRAM()
        dram.read_line(0x1000)
        dram.stats.reset()
        assert dram.stats.accesses == 0
        assert not dram.stats.rows_touched

    def test_invalid_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            DRAM(latency=0)


class TestOpenPagePolicy:
    def test_row_hit_is_faster(self):
        dram = DRAM(policy="open")
        first = dram.read_line(0x3000)       # conflict (cold)
        second = dram.read_line(0x3040)      # same row: hit
        assert first == dram.latency
        assert second == dram.row_hit_latency

    def test_row_conflict_pays_full_latency(self):
        dram = DRAM(policy="open")
        dram.read_line(0x3000)
        conflict = dram.read_line(0x3000 + SAME_BANK)
        assert conflict == dram.latency

    def test_banks_hold_independent_rows(self):
        dram = DRAM(policy="open")
        dram.read_line(0x0000)              # bank 0, row 0
        dram.read_line(0x0000 + ROW)        # bank 1, row 1
        assert dram.read_line(0x0040) == dram.row_hit_latency
        assert dram.read_line(0x0040 + ROW) == dram.row_hit_latency

    def test_hit_conflict_counters(self):
        dram = DRAM(policy="open")
        dram.read_line(0x3000)
        dram.read_line(0x3040)
        dram.read_line(0x3000 + SAME_BANK)
        assert dram.stats.row_hits == 1
        assert dram.stats.row_conflicts == 2

    def test_open_row_introspection(self):
        dram = DRAM(policy="open")
        dram.read_line(0x3000)
        assert dram.open_row(dram.bank_of(0x3000)) == dram.row_of(0x3000)

    def test_closed_policy_is_constant_time(self):
        """The Sec. 6.5 property: same latency regardless of locality."""
        dram = DRAM(policy="closed")
        latencies = {
            dram.read_line(addr)
            for addr in (0x3000, 0x3040, 0x3000, 0x9000, 0x3080)
        }
        assert latencies == {dram.latency}

    def test_open_policy_leaks_row_locality(self):
        """DRAMA in miniature: an attacker timing its own access after
        the victim's learns whether the victim used the same row."""

        def attacker_latency(victim_addr):
            dram = DRAM(policy="open")
            dram.read_line(victim_addr)          # victim access
            return dram.read_line(0x3000)        # attacker probe, row 3

        same_row = attacker_latency(0x3040)       # victim in row 3
        other_row = attacker_latency(0x3000 + SAME_BANK)  # row 3 + BANKS
        assert same_row < other_row               # locality leaked

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            DRAM(policy="adaptive")

    @pytest.mark.parametrize("latency, row_hit", [
        (1, 1), (50, 25), (99, 50), (100, 50), (200, 100),
    ])
    def test_row_hit_latency_derived_from_latency(self, latency, row_hit):
        """Half the access latency, rounded up: positive and never above
        the access latency, so no valid ``latency`` is rejected."""
        assert DRAM(latency=latency).row_hit_latency == row_hit
