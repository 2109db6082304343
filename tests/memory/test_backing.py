"""Backing memory and allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.errors import AlignmentError, AllocationError, MemoryError_
from repro.memory.backing import Allocator, MainMemory


class TestRawBytes:
    def test_untouched_reads_zero(self):
        mem = MainMemory()
        assert mem.read(0x5000, 16) == b"\x00" * 16

    def test_write_read_roundtrip(self):
        mem = MainMemory()
        mem.write(0x1234, b"hello world")
        assert mem.read(0x1234, 11) == b"hello world"

    def test_write_crossing_page_boundary(self):
        mem = MainMemory()
        data = bytes(range(100))
        mem.write(params.PAGE_SIZE - 50, data)
        assert mem.read(params.PAGE_SIZE - 50, 100) == data

    def test_read_crossing_untouched_page(self):
        mem = MainMemory()
        mem.write(params.PAGE_SIZE - 2, b"ab")
        got = mem.read(params.PAGE_SIZE - 4, 8)
        assert got == b"\x00\x00ab\x00\x00\x00\x00"

    def test_negative_read_rejected(self):
        with pytest.raises(MemoryError_):
            MainMemory().read(0, -1)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 16),
                st.binary(min_size=1, max_size=64),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_matches_flat_reference(self, writes):
        mem = MainMemory()
        reference = bytearray(1 << 17)
        for addr, data in writes:
            mem.write(addr, data)
            reference[addr : addr + len(data)] = data
        for addr, data in writes:
            assert mem.read(addr, len(data)) == bytes(
                reference[addr : addr + len(data)]
            )


class TestWords:
    def test_word_roundtrip(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0xDEADBEEF)
        assert mem.read_word(0x1000) == 0xDEADBEEF

    def test_word_wraps_modulo_size(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0x1_0000_0001)
        assert mem.read_word(0x1000) == 1

    def test_word_is_little_endian(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0x01020304)
        assert mem.read(0x1000, 4) == b"\x04\x03\x02\x01"

    def test_misaligned_word_rejected(self):
        mem = MainMemory()
        with pytest.raises(AlignmentError):
            mem.read_word(0x1002)
        with pytest.raises(AlignmentError):
            mem.write_word(0x1001, 5)

    def test_8_byte_words(self):
        mem = MainMemory()
        mem.write_word(0x1000, 0xAABBCCDD11223344, size=8)
        assert mem.read_word(0x1000, size=8) == 0xAABBCCDD11223344


    @pytest.mark.parametrize("size", [0, 3, 16, 64, -4])
    def test_unsupported_word_sizes_rejected(self, size):
        mem = MainMemory()
        with pytest.raises(AlignmentError, match="1-, 2-, 4- or 8-byte"):
            mem.read_word(0x1000, size)
        with pytest.raises(AlignmentError, match="1-, 2-, 4- or 8-byte"):
            mem.write_word(0x1000, 1, size)

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("word"),
                    st.sampled_from([1, 2, 4, 8]),
                    st.integers(min_value=0, max_value=(1 << 14) - 1),
                    st.integers(min_value=-(1 << 70), max_value=1 << 70),
                ),
                st.tuples(
                    st.just("raw"),
                    st.integers(min_value=0, max_value=(1 << 14) - 64),
                    st.binary(min_size=1, max_size=64),
                ),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_words_and_raw_writes_match_flat_reference(self, ops):
        """Little-endian word codec vs a flat bytearray, sizes 1..8.

        Values wider than the word and negative values wrap modulo
        ``2**(8*size)``; every word read (at every size) and the raw
        bytes agree with the reference after each step.
        """
        span = 1 << 14  # four pages
        mem = MainMemory()
        reference = bytearray(span)
        for op in ops:
            if op[0] == "word":
                _, size, slot, value = op
                addr = (slot * size) % span
                mem.write_word(addr, value, size)
                wrapped = value % (1 << (8 * size))
                reference[addr : addr + size] = wrapped.to_bytes(size, "little")
                assert mem.read_word(addr, size) == wrapped
            else:
                _, addr, data = op
                mem.write(addr, data)
                reference[addr : addr + len(data)] = data
            for size in (1, 2, 4, 8):
                a = (addr // size) * size
                want = int.from_bytes(reference[a : a + size], "little")
                assert mem.read_word(a, size) == want
        assert mem.read(0, span) == bytes(reference)

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_word_writes_copy_shared_pages(self, size):
        """After ``share_pages()``, word writes leave the shared page
        byte-exact and land in this memory's private copy only."""
        mem = MainMemory()
        mem.write(0x1000, bytes(range(64)))
        mem.write(0x3000, b"\xff" * 16)
        shared = mem.share_pages()
        frozen = {idx: bytes(page) for idx, page in shared.items()}
        mem.write_word(0x1008, -1, size)
        mem.write_word(0x1010, 1 << 70, size)
        mem.write_word(0x2000, 0x1234, size)  # a page the snapshot lacks
        assert {idx: bytes(page) for idx, page in shared.items()} == frozen
        assert mem.read_word(0x1008, size) == (1 << (8 * size)) - 1
        assert mem.read_word(0x1010, size) == 0
        assert mem.read_word(0x2000, size) == 0x1234 % (1 << (8 * size))
        assert mem.read(0x3000, 16) == b"\xff" * 16  # untouched page shared
        # a second memory adopting the snapshot still sees the old bytes
        other = MainMemory()
        other.adopt_pages(shared)
        assert other.read(0x1000, 64) == bytes(range(64))
        other.write_word(0x1000, 0, size)
        assert frozen[1] == bytes(shared[1])
        assert mem.read_word(0x1000, size) == int.from_bytes(
            bytes(range(size)), "little"
        )


class TestWriteWords:
    """``write_words`` == a ``write_word`` loop, error position included."""

    @given(
        size=st.sampled_from([1, 2, 4, 8]),
        runs=st.lists(
            st.tuples(
                # consecutive words from a slot (page crossings and
                # revisits included), one run in 16 starting misaligned
                st.integers(min_value=0, max_value=(1 << 11) - 1),
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=-(1 << 70), max_value=1 << 70),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=8,
        ),
        shared=st.booleans(),
    )
    @settings(max_examples=100)
    def test_matches_write_word_loop(self, size, runs, shared):
        mems = [MainMemory(), MainMemory()]
        snapshots = []
        for mem in mems:
            mem.write(0x1000, bytes(range(200)))
            if shared:
                snapshots.append(mem.share_pages())
        addrs, values = [], []
        for slot, length, value, skew in runs:
            start = slot * size + (1 if skew == 0 and size > 1 else 0)
            addrs += [start + size * k for k in range(length)]
            values += [value + k for k in range(length)]
        errors = []
        try:
            mems[0].write_words(addrs, values, size)
        except AlignmentError as exc:
            errors.append(str(exc))
        try:
            for a, v in zip(addrs, values):
                mems[1].write_word(a, v, size)
        except AlignmentError as exc:
            errors.append(str(exc))
        assert len(errors) in (0, 2) and len(set(errors)) <= 1
        assert mems[0].read(0, 1 << 15) == mems[1].read(0, 1 << 15)
        assert sorted(mems[0].touched_pages()) == sorted(mems[1].touched_pages())
        for snap in snapshots:  # copy-on-write left the snapshots intact
            assert bytes(snap[1][:200]) == bytes(range(200))

    def test_bad_size_raises_before_any_write(self):
        mem = MainMemory()
        with pytest.raises(AlignmentError, match="1-, 2-, 4- or 8-byte"):
            mem.write_words([0x1000, 0x1004], [1, 2], 3)
        assert not list(mem.touched_pages())


class TestLines:
    def test_line_roundtrip(self):
        mem = MainMemory()
        data = bytes(range(64))
        mem.write_line(0x1000, data)
        assert mem.read_line(0x1000) == data

    def test_line_rejects_misaligned(self):
        with pytest.raises(AlignmentError):
            MainMemory().read_line(0x1010)

    def test_line_rejects_wrong_size(self):
        with pytest.raises(MemoryError_):
            MainMemory().write_line(0x1000, b"short")

    def test_touched_pages(self):
        mem = MainMemory()
        mem.write(0x1000, b"x")
        mem.write(0x5000, b"y")
        assert sorted(mem.touched_pages()) == [1, 5]


class TestAllocator:
    def test_page_aligned_allocations(self):
        alloc = Allocator(MainMemory())
        a = alloc.alloc(100)
        b = alloc.alloc(1)
        assert a % params.PAGE_SIZE == 0
        assert b % params.PAGE_SIZE == 0
        assert b == a + params.PAGE_SIZE  # 100 bytes rounds up to a page

    def test_multi_page_allocation(self):
        alloc = Allocator(MainMemory())
        a = alloc.alloc(params.PAGE_SIZE + 1)
        b = alloc.alloc(1)
        assert b - a == 2 * params.PAGE_SIZE

    def test_alloc_words(self):
        alloc = Allocator(MainMemory())
        a = alloc.alloc_words(1024)  # exactly one page
        b = alloc.alloc_words(1)
        assert b - a == params.PAGE_SIZE

    def test_zero_alloc_rejected(self):
        with pytest.raises(AllocationError):
            Allocator(MainMemory()).alloc(0)

    def test_misaligned_base_rejected(self):
        with pytest.raises(AllocationError):
            Allocator(MainMemory(), base=100)

    def test_base_avoids_null(self):
        alloc = Allocator(MainMemory())
        assert alloc.alloc(8) >= 0x10000
