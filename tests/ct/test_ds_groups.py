"""DS group views: the Sec. 6.4 configurable management granularity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.ct.ds import DataflowLinearizationSet
from repro.errors import ConfigurationError, ProtocolError
from repro.memory import address as am


class TestGroupMath:
    def test_group_index(self):
        assert am.group_index(0x1234, 8) == 0x12
        assert am.group_index(0x1234, 12) == 0x1

    def test_same_group_address(self):
        assert am.same_group_address(0x12, 0x1AB, 8) == 0x12AB
        # M=12 relocates within pages: page_i | addr[11:0]
        assert am.same_group_address(3, 0x1ABC, 12) == 3 * params.PAGE_SIZE + 0xABC

    def test_line_in_group(self):
        assert am.line_in_group(0x1080, 12) == 2
        assert am.line_in_group(0x1080, 8) == 2  # 0x80 >> 6 = 2, < 4 lines
        assert am.line_in_group(0x10C0, 8) == 3

    @given(
        st.integers(min_value=0, max_value=(1 << 40) - 1),
        st.sampled_from([7, 8, 9, 10, 11, 12]),
    )
    @settings(max_examples=60)
    def test_group_roundtrip(self, addr, bits):
        group = am.group_index(addr, bits)
        rebuilt = am.same_group_address(group, addr, bits)
        assert rebuilt == addr
        assert 0 <= am.line_in_group(addr, bits) < (1 << (bits - 6))


class TestGroupView:
    def test_page_view_groups_are_the_overlapped_pages(self):
        ds = DataflowLinearizationSet.from_range(0x1800, 0x1000)
        assert ds.view(params.PAGE_BITS).groups == (1, 2)

    def test_page_view_covers_each_page(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 3 * params.PAGE_SIZE)
        view = ds.view(params.PAGE_BITS)
        assert view.groups == (0x10, 0x11, 0x12)
        for page in view.groups:
            assert view.bitmask(page) == params.FULL_PAGE_MASK

    def test_view_is_built_once_per_granularity(self):
        ds = DataflowLinearizationSet.from_range(0x10000, params.PAGE_SIZE)
        page_view = ds.view(params.PAGE_BITS)
        assert ds.view(params.PAGE_BITS) is page_view
        assert ds.view(8) is not page_view
        assert ds.view(8) is ds.view(8)

    def test_smaller_granularity_more_groups(self):
        ds = DataflowLinearizationSet.from_range(0x10000, params.PAGE_SIZE)
        assert ds.view(12).num_groups == 1
        assert ds.view(9).num_groups == 8  # 512-byte groups
        assert ds.view(7).num_groups == 32

    def test_bitmask_width_matches_granularity(self):
        ds = DataflowLinearizationSet.from_range(0x10000, params.PAGE_SIZE)
        view = ds.view(8)  # 4 lines per group
        assert view.lines_per_group == 4
        for group in view.groups:
            assert view.bitmask(group) == 0b1111

    def test_generate_addrs_at_small_granularity(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 512)
        view = ds.view(8)
        addrs = view.generate_addrs(0x100, orig_addr=0x10004, tofetch=0b101)
        assert addrs == [0x10004, 0x10084]

    def test_views_are_cached(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 256)
        assert ds.view(9) is ds.view(9)

    def test_unknown_group_rejected(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 256)
        with pytest.raises(ProtocolError):
            ds.view(8).bitmask(0)

    def test_granularity_below_line_rejected(self):
        ds = DataflowLinearizationSet.from_range(0x10000, 256)
        with pytest.raises(ConfigurationError):
            ds.view(6)

    @given(
        size=st.integers(min_value=4, max_value=2 * params.PAGE_SIZE),
        bits=st.sampled_from([7, 8, 10, 12]),
    )
    @settings(max_examples=50)
    def test_group_bitmask_bits_equal_line_count(self, size, bits):
        ds = DataflowLinearizationSet.from_range(0x40000, size)
        view = ds.view(bits)
        total = sum(bin(view.bitmask(g)).count("1") for g in view.groups)
        assert total == len(ds)

    @given(
        size=st.integers(min_value=4, max_value=2 * params.PAGE_SIZE),
        bits=st.sampled_from([7, 8, 10, 12]),
    )
    @settings(max_examples=50)
    def test_lines_in_group_reconstruct_ds(self, size, bits):
        ds = DataflowLinearizationSet.from_range(0x40000, size)
        view = ds.view(bits)
        rebuilt = []
        for group in view.groups:
            rebuilt.extend(view.generate_addrs(group, 0, view.bitmask(group)))
        assert tuple(sorted(rebuilt)) == ds.lines
