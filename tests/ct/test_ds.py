"""Dataflow linearization sets: bitmasks, page grouping, generateAddrs.

The page (M=12) grouping is read through ``ds.view(params.PAGE_BITS)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.ct.ds import DataflowLinearizationSet
from repro.errors import ProtocolError

LINE = params.LINE_SIZE
PAGE = params.PAGE_SIZE


def pages(ds):
    return ds.view(params.PAGE_BITS)


class TestConstruction:
    def test_from_range_line_count(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 1000 * 4)
        # 4000 bytes from a page-aligned base = 63 lines (ceil(4000/64))
        assert len(ds) == 63

    def test_from_range_unaligned_base(self):
        ds = DataflowLinearizationSet.from_range(0x10030, 64)
        assert ds.lines == (0x10000, 0x10040)

    def test_constructor_dedupes_to_lines(self):
        ds = DataflowLinearizationSet([0x1000, 0x1004, 0x1040])
        assert ds.lines == (0x1000, 0x1040)

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            DataflowLinearizationSet([])

    def test_paper_example(self):
        """DS = {0x1008, 0x1048, 0x1088, 0x10c8, 0x1108} (Fig. 3)."""
        ds = DataflowLinearizationSet(
            [0x1008, 0x1048, 0x1088, 0x10C8, 0x1108]
        )
        assert ds.lines == (0x1000, 0x1040, 0x1080, 0x10C0, 0x1100)
        assert pages(ds).groups == (1,)
        assert pages(ds).bitmask(1) == 0b11111


class TestPages:
    def test_page_grouping(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 2 * PAGE)
        assert pages(ds).groups == (0x10, 0x11)
        assert pages(ds).num_groups == 2

    def test_size_bytes(self):
        ds = DataflowLinearizationSet.from_range(0x10000, PAGE)
        assert ds.size_bytes == PAGE

    def test_bitmask_partial_page(self):
        """The paper's example: first two lines of the page not in DS."""
        ds = DataflowLinearizationSet.from_range(0x1080, PAGE - 0x80)
        assert pages(ds).bitmask(1) == params.FULL_PAGE_MASK & ~0b11

    def test_bitmask_unknown_page_rejected(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 64)
        with pytest.raises(ProtocolError):
            pages(ds).bitmask(99)


class TestMembership:
    def test_contains_any_byte_of_member_line(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 64)
        assert 0x10000 in ds
        assert 0x1003F in ds
        assert 0x10040 not in ds

    def test_require_member(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 64)
        ds.require_member(0x10020)
        with pytest.raises(ProtocolError):
            ds.require_member(0x20000)


class TestGenerateAddrs:
    def test_formula(self):
        """address = page[63:12] + (i << 6) + orig[5:0] (Sec. 5.1)."""
        ds = DataflowLinearizationSet.from_range(0x10000, PAGE)
        addrs = pages(ds).generate_addrs(
            0x10, orig_addr=0x10008, tofetch=0b101
        )
        assert addrs == [0x10008, 0x10088]

    def test_empty_tofetch(self):
        ds = DataflowLinearizationSet.from_range(0x10000, PAGE)
        assert pages(ds).generate_addrs(0x10, 0x10000, 0) == []

    def test_full_mask(self):
        ds = DataflowLinearizationSet.from_range(0x10000, PAGE)
        addrs = pages(ds).generate_addrs(
            0x10, 0x10004, params.FULL_PAGE_MASK
        )
        assert len(addrs) == 64
        assert all(a % LINE == 4 for a in addrs)

    def test_lines_in_page(self):
        view = pages(DataflowLinearizationSet.from_range(0x10000, 3 * LINE))
        lines = view.generate_addrs(0x10, 0, view.bitmask(0x10))
        assert lines == [0x10000, 0x10040, 0x10080]


class TestProperties:
    @given(
        base=st.integers(min_value=0, max_value=1 << 20).map(lambda x: x * 4),
        size=st.integers(min_value=4, max_value=3 * PAGE),
    )
    @settings(max_examples=60)
    def test_bitmask_bits_equal_line_count(self, base, size):
        ds = DataflowLinearizationSet.from_range(base, size)
        view = pages(ds)
        total_bits = sum(bin(view.bitmask(p)).count("1") for p in view.groups)
        assert total_bits == len(ds)

    @given(
        base=st.integers(min_value=0, max_value=1 << 20).map(lambda x: x * 4),
        size=st.integers(min_value=4, max_value=3 * PAGE),
    )
    @settings(max_examples=60)
    def test_generate_addrs_reconstructs_lines(self, base, size):
        ds = DataflowLinearizationSet.from_range(base, size)
        view = pages(ds)
        rebuilt = []
        for page in view.groups:
            rebuilt.extend(view.generate_addrs(page, 0, view.bitmask(page)))
        assert tuple(sorted(rebuilt)) == ds.lines

    @given(
        size=st.integers(min_value=4, max_value=2 * PAGE),
        addr_off=st.integers(min_value=0, max_value=2 * PAGE - 4),
    )
    @settings(max_examples=60)
    def test_membership_consistent_with_lines(self, size, addr_off):
        base = 0x40000
        ds = DataflowLinearizationSet.from_range(base, size)
        addr = base + addr_off
        expected = addr_off < size or (addr_off // LINE) == ((size - 1) // LINE)
        assert (addr in ds) == expected
