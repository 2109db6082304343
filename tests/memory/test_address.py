"""Address arithmetic: the bit-field slicing every algorithm relies on."""

from hypothesis import given
from hypothesis import strategies as st

from repro import params
from repro.memory import address as am

ADDRS = st.integers(min_value=0, max_value=(1 << 48) - 1)
PAGE_BITS = params.PAGE_BITS


class TestLineMath:
    def test_line_index(self):
        assert am.line_index(0) == 0
        assert am.line_index(63) == 0
        assert am.line_index(64) == 1
        assert am.line_index(0x1048) == 0x1048 // 64

    def test_line_base(self):
        assert am.line_base(0x1048) == 0x1040
        assert am.line_base(0x1040) == 0x1040
        assert am.line_base(0x107F) == 0x1040

    def test_line_offset(self):
        assert am.line_offset(0x1048) == 8
        assert am.line_offset(0x1040) == 0
        assert am.line_offset(0x107F) == 0x3F

    @given(ADDRS)
    def test_decompose_recompose(self, addr):
        assert am.line_base(addr) + am.line_offset(addr) == addr

    @given(ADDRS)
    def test_line_base_aligned(self, addr):
        assert am.line_base(addr) % params.LINE_SIZE == 0

    @given(st.integers())
    def test_shifts_and_masks_are_floor_division(self, addr):
        """Negative addresses included, as Python's ints allow."""
        assert am.line_index(addr) == addr // params.LINE_SIZE
        assert am.line_base(addr) == addr - addr % params.LINE_SIZE
        assert am.page_index(addr) == addr // params.PAGE_SIZE


class TestPageMath:
    def test_page_index(self):
        assert am.page_index(0) == 0
        assert am.page_index(4095) == 0
        assert am.page_index(4096) == 1

    def test_page_offset(self):
        assert am.page_offset(0x1048) == 0x48
        assert am.page_offset(0x2FFF) == 0xFFF

    def test_line_in_page_bounds(self):
        assert am.line_in_group(0x1000, PAGE_BITS) == 0
        assert am.line_in_group(0x1FC0, PAGE_BITS) == 63
        assert am.line_in_group(0x1048, PAGE_BITS) == 1

    @given(ADDRS)
    def test_line_in_page_range(self, addr):
        assert 0 <= am.line_in_group(addr, PAGE_BITS) < params.LINES_PER_PAGE

    @given(ADDRS)
    def test_page_decompose(self, addr):
        assert am.page_index(addr) * params.PAGE_SIZE + am.page_offset(addr) == addr


class TestCompose:
    """``generateAddrs`` at page granularity (M = 12)."""

    def test_compose_example(self):
        # generateAddrs formula: page | (i << 6) | offset
        rebuilt = am.same_group_address(1, (2 << params.LINE_BITS) + 8, PAGE_BITS)
        assert rebuilt == 0x1000 + 0x80 + 8

    @given(ADDRS)
    def test_compose_inverts_decompose(self, addr):
        rebuilt = (
            (am.page_index(addr) << PAGE_BITS)
            + (am.line_in_group(addr, PAGE_BITS) << params.LINE_BITS)
            + am.line_offset(addr)
        )
        assert rebuilt == addr

    def test_same_page_address(self):
        # Alg. 2 line 4: page_i | ld_addr[11:0]
        assert am.same_group_address(3, 0x1ABC, PAGE_BITS) == 3 * 4096 + 0xABC

    @given(ADDRS, st.integers(min_value=0, max_value=1 << 20))
    def test_same_page_address_preserves_offset(self, addr, page):
        relocated = am.same_group_address(page, addr, PAGE_BITS)
        assert am.page_offset(relocated) == am.page_offset(addr)
        assert am.page_index(relocated) == page


class TestIterators:
    def test_iter_lines_spans_partial_lines(self):
        lines = list(am.iter_lines(0x1030, 0x40))  # crosses a boundary
        assert lines == [0x1000, 0x1040]

    def test_iter_lines_exact(self):
        assert list(am.iter_lines(0x1000, 128)) == [0x1000, 0x1040]

    def test_iter_lines_empty(self):
        assert list(am.iter_lines(0x1000, 0)) == []

    @given(ADDRS, st.integers(min_value=1, max_value=1 << 16))
    def test_iter_lines_cover_range(self, base, size):
        lines = list(am.iter_lines(base, size))
        assert lines[0] <= base < lines[0] + params.LINE_SIZE
        last = lines[-1]
        assert last <= base + size - 1 < last + params.LINE_SIZE
        # contiguous, strictly increasing by one line
        assert all(
            b - a == params.LINE_SIZE for a, b in zip(lines, lines[1:])
        )
