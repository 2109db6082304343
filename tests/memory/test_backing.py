"""Backing memory and allocator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import params
from repro.core.machine import Machine, MachineConfig
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

    def test_unmapped_word_reads_zero(self):
        mem = MainMemory()
        mem.write_word(0x1000, 7)
        assert mem.read_word(0x2000) == 0  # a page never written
        assert mem.read_word(0x1004) == 0  # a written page's other word
        assert sorted(mem.touched_pages()) == [1]

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("word"),
                    st.integers(min_value=0, max_value=(1 << 12) - 1),
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
        """The little-endian word codec vs a flat bytearray over four
        pages.  Values wider than a word and negative values wrap
        modulo ``2**32``; raw writes may straddle pages and split
        words; every word read and the raw bytes agree with the
        reference after each step."""
        span = 1 << 14  # four pages
        mem = MainMemory()
        reference = bytearray(span)
        for op in ops:
            if op[0] == "word":
                _, slot, value = op
                addr = 4 * slot
                mem.write_word(addr, value)
                wrapped = value % (1 << 32)
                reference[addr : addr + 4] = wrapped.to_bytes(4, "little")
                assert mem.read_word(addr) == wrapped
            else:
                _, addr, data = op
                mem.write(addr, data)
                reference[addr : addr + len(data)] = data
            a = addr // 4 * 4
            assert mem.read_word(a) == int.from_bytes(reference[a : a + 4], "little")
        assert mem.read(0, span) == bytes(reference)


#: A run's first value: in range for the whole run, crossing ``2**32``
#: or 0 inside it (the words past the crossing wrap), or wide.
_RUN_VALUES = st.one_of(
    st.integers(min_value=0, max_value=(1 << 32) - 1200),
    st.integers(min_value=(1 << 32) - 1200, max_value=(1 << 32) + 8),
    st.integers(min_value=-1200, max_value=0),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
)


class TestWriteWords:
    """``write_words`` == a ``write_word`` loop, error position included.

    A contiguous aligned batch takes the one-pack-per-page path, any
    other batch the per-word loop; both are compared with the loop."""

    @given(
        runs=st.one_of(
            st.lists(
                st.tuples(
                    # consecutive words from a slot (page crossings and
                    # revisits included), one run in 16 starting
                    # misaligned
                    st.integers(min_value=0, max_value=(1 << 11) - 1),
                    st.integers(min_value=1, max_value=20),
                    st.integers(min_value=-(1 << 70), max_value=1 << 70),
                    st.integers(min_value=0, max_value=15),
                ),
                max_size=8,
            ),
            # one contiguous batch of up to ~1,100 words from any word
            # of two pages: it crosses one or two page boundaries
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 11) - 1),
                st.integers(min_value=1, max_value=1100),
                _RUN_VALUES,
                st.integers(min_value=0, max_value=15),
            ).map(lambda run: [run]),
        ),
        snapshot=st.booleans(),
    )
    @example(runs=[(1000, 1100, 7, 1)], snapshot=False)
    @example(runs=[(1000, 1100, (1 << 32) - 500, 1)], snapshot=False)
    @example(runs=[(1000, 1100, -700, 1)], snapshot=False)
    @example(runs=[(1000, 1100, 7, 0)], snapshot=False)
    # first and last address as in a contiguous batch, middle permuted
    @example(runs=[(0, 1, 5, 1), (2, 1, 6, 1), (1, 1, 7, 1), (3, 1, 8, 1)],
             snapshot=False)
    @settings(max_examples=150)
    def test_matches_write_word_loop(self, runs, snapshot):
        mems = [MainMemory(), MainMemory()]
        images = []
        for mem in mems:
            mem.write(0x1000, bytes(range(200)))
            if snapshot:
                images.append(mem.copy_pages())
        addrs, values = [], []
        for slot, length, value, skew in runs:
            start = 4 * slot + (1 if skew == 0 else 0)
            addrs += [start + 4 * k for k in range(length)]
            values += [value + k for k in range(length)]
        errors = []
        try:
            mems[0].write_words(addrs, values)
        except AlignmentError as exc:
            errors.append(str(exc))
        try:
            for a, v in zip(addrs, values):
                mems[1].write_word(a, v)
        except AlignmentError as exc:
            errors.append(str(exc))
        assert len(errors) in (0, 2) and len(set(errors)) <= 1
        assert mems[0].read(0, 1 << 15) == mems[1].read(0, 1 << 15)
        assert sorted(mems[0].touched_pages()) == sorted(mems[1].touched_pages())
        for image in images:  # a copy taken before the writes is intact
            assert list(image) == [1]
            assert bytes(image[1][:200]) == bytes(range(200))
            assert not any(image[1][200:])

    @pytest.mark.parametrize("bad_at", [0, 500, 1023, 1024, 1099])
    def test_non_integer_value_raises_at_the_loops_word(self, bad_at):
        """A value that cannot be a word fails the stretch's pack, which
        writes nothing; the loop then writes up to it and raises."""
        addrs = [0x1800 + 4 * k for k in range(1100)]
        values = list(range(1, 1101))
        values[bad_at] = 1.5
        mems = [MainMemory(), MainMemory()]
        with pytest.raises(TypeError):
            mems[0].write_words(addrs, values)
        with pytest.raises(TypeError):
            for a, v in zip(addrs, values):
                mems[1].write_word(a, v)
        assert mems[0].read(0, 1 << 15) == mems[1].read(0, 1 << 15)
        assert sorted(mems[0].touched_pages()) == sorted(mems[1].touched_pages())


#: Each way to write one word's value into a :class:`MainMemory`.
_WRITERS = {
    "write": lambda mem, a, v: mem.write(a, v.to_bytes(4, "little")),
    "write_word": lambda mem, a, v: mem.write_word(a, v),
    "write_words": lambda mem, a, v: mem.write_words([a], [v]),
}


class TestPageImages:
    """``copy_pages`` images: no write method reaches an image taken
    before the write, and an installed image becomes the pages."""

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_writes_leave_a_copied_image_intact(self, writer):
        mem = MainMemory()
        mem.write(0x1000, bytes(range(64)))
        mem.write(0x3000, b"\xff" * 16)
        image = mem.copy_pages()
        frozen = {idx: bytes(page) for idx, page in image.items()}
        write = _WRITERS[writer]
        write(mem, 0x1008, 0xDEADBEEF)  # a page the image holds
        write(mem, 0x2000, 0x1234)  # a page it lacks
        assert {idx: bytes(page) for idx, page in image.items()} == frozen
        assert mem.read_word(0x1008) == 0xDEADBEEF
        assert mem.read_word(0x2000) == 0x1234
        assert mem.read(0x3000, 16) == b"\xff" * 16
        assert sorted(mem.touched_pages()) == [1, 2, 3]

    def test_installed_image_becomes_the_pages(self):
        source = MainMemory()
        source.write(0x1000, bytes(range(64)))
        image = source.copy_pages()
        mem = MainMemory()
        mem.write_word(0x5000, 9)  # a page the image lacks
        mem.install_pages(image)
        assert sorted(mem.touched_pages()) == [1]
        assert mem.read_word(0x5000) == 0
        assert mem.read(0x1000, 64) == bytes(range(64))
        mem.write_word(0x1000, 0)
        # later writes go into the installed pages, not the source's
        assert bytes(image[1][:4]) == bytes(4)
        assert source.read(0x1000, 4) == bytes(range(4))


def _machine_with_words(words):
    """A Table 1 machine with ``{addr: value}`` written to memory."""
    m = Machine(MachineConfig())
    for addr, value in words.items():
        m.memory.write_word(addr, value)
    return m


def _image(m):
    """Every written page of ``m``'s memory, as bytes."""
    return {
        idx: m.memory.read(idx * params.PAGE_SIZE, params.PAGE_SIZE)
        for idx in sorted(m.memory.touched_pages())
    }


class TestSnapshotPages:
    """Machine snapshots hold copies of the pages: no write on any
    machine reaches a saved image or another machine's memory."""

    WORDS = {0x10000: 1, 0x10004: 2, 0x13000: 3}

    def test_saved_image_survives_writes_to_source_and_target(self):
        source = _machine_with_words(self.WORDS)
        saved = _image(source)
        state = source.save_state()
        source.memory.write_word(0x10000, 99)  # a page the image holds
        source.memory.write_word(0x20000, 98)  # a page it lacks
        source.store_word(0x13000, 97)
        target = Machine(MachineConfig())
        target.restore_state(state)
        assert _image(target) == saved
        target.memory.write_word(0x10004, 96)
        target.store_word(0x13000, 95)
        assert source.memory.read_word(0x10004) == 2
        again = Machine(MachineConfig())
        again.restore_state(state)
        assert _image(again) == saved

    def test_restoring_one_snapshot_twice_gives_the_same_memory(self):
        m = _machine_with_words(self.WORDS)
        saved = _image(m)
        state = m.save_state()
        for value in (50, 60):
            m.memory.write_word(0x10000, value)
            m.memory.write(0x13FFE, b"xyzw")  # straddles pages 0x13, 0x14
            m.restore_state(state)
            assert _image(m) == saved
            assert sorted(m.memory.touched_pages()) == [0x10, 0x13]

    def test_fork_writes_leave_the_parent_intact(self):
        parent = _machine_with_words(self.WORDS)
        saved = _image(parent)
        child = parent.fork()
        assert _image(child) == saved
        child.memory.write_word(0x10000, 77)
        child.store_words([0x13000, 0x13004, 0x30000], [5, 6, 7])
        assert _image(parent) == saved
        parent.memory.write_word(0x10004, 88)
        assert child.memory.read_word(0x10004) == 2
        assert child.memory.read_word(0x10000) == 77


class TestTouchedPages:
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

    def test_base_avoids_null(self):
        alloc = Allocator(MainMemory())
        assert alloc.alloc(8) >= 0x10000
