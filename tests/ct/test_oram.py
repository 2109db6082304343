"""Path ORAM (the Raccoon baseline): protocol, correctness, obliviousness."""

import random

import pytest

from repro import params
from repro.core.machine import Machine, MachineConfig
from repro.ct.oram import ORAMContext, PathORAM
from repro.errors import ConfigurationError, ProtocolError

LINE = params.LINE_SIZE


def fresh_oram(num_blocks=64, seed=1):
    return PathORAM(Machine(MachineConfig()), num_blocks, seed=seed)


class TestGeometry:
    def test_tree_sizing(self):
        oram = fresh_oram(64)
        assert oram.num_leaves >= 64
        assert oram.num_buckets == 2 * oram.num_leaves - 1

    def test_path_runs_root_to_leaf(self):
        oram = fresh_oram(8)
        path = oram._path(leaf=3)
        assert path[0] == 0  # root
        assert len(path) == oram.height + 1
        # consecutive elements are parent/child in heap indexing
        for parent, child in zip(path, path[1:]):
            assert (child - 1) // 2 == parent

    def test_on_path(self):
        oram = fresh_oram(8)
        for leaf in range(oram.num_leaves):
            for bucket in oram._path(leaf):
                assert oram._on_path(leaf, bucket)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            fresh_oram(0)


class TestProtocol:
    def test_read_own_writes(self):
        oram = fresh_oram(16)
        words = list(range(16))
        oram.access(5, write_words=words)
        assert oram.access(5) == words

    def test_access_remaps_position(self):
        rng = random.Random(0)
        remapped = 0
        for seed in range(20):
            oram = fresh_oram(16, seed=seed)
            before = oram.position[3]
            oram.access(3)
            remapped += oram.position[3] != before
        assert remapped > 10  # fresh uniform leaf each access

    def test_fixed_traffic_shape(self):
        """Every access touches exactly 2*(L+1)*Z slot lines."""
        oram = fresh_oram(64)
        machine = oram.machine
        for block in (0, 63, 17):
            before = machine.stats.l1d_refs
            oram.access(block)
            assert (
                machine.stats.l1d_refs - before == oram.lines_per_access()
            )

    def test_stash_stays_small(self):
        oram = fresh_oram(64, seed=3)
        rng = random.Random(1)
        for _ in range(300):
            oram.access(rng.randrange(64))
        assert oram.stash_size() <= 12  # Z=4: overflow whp-bounded

    def test_block_out_of_range(self):
        with pytest.raises(ProtocolError):
            fresh_oram(8).access(8)

    def test_bad_write_size(self):
        with pytest.raises(ProtocolError):
            fresh_oram(8).access(0, write_words=[1, 2, 3])

    def test_mutate_returns_pre_image(self):
        oram = fresh_oram(8)
        oram.access(2, write_words=[7] * 16)
        old = oram.access(2, mutate=lambda w: [x + 1 for x in w])
        assert old == [7] * 16
        assert oram.access(2) == [8] * 16


class TestORAMContext:
    def setup_ctx(self, n=300, seed=1):
        machine = Machine(MachineConfig())
        ctx = ORAMContext(machine, seed=seed)
        base = machine.allocator.alloc_words(n)
        for i in range(n):
            machine.memory.write_word(base + 4 * i, 1000 + i)
        ds = ctx.register_ds(base, n * 4, "arr")
        return ctx, base, ds

    def test_load_store_roundtrip(self):
        ctx, base, ds = self.setup_ctx()
        assert ctx.load(ds, base + 4 * 42) == 1042
        ctx.store(ds, base + 4 * 42, 7)
        assert ctx.load(ds, base + 4 * 42) == 7
        assert ctx.load(ds, base + 4 * 43) == 1043  # neighbour intact

    def test_rmw(self):
        ctx, base, ds = self.setup_ctx()
        assert ctx.rmw(ds, base, lambda v: v * 2) == 1000
        assert ctx.load(ds, base) == 2000

    def test_gather(self):
        ctx, base, ds = self.setup_ctx()
        addrs = [base, base + 4 * 100, base + 4 * 299]
        assert ctx.gather(ds, addrs) == [1000, 1100, 1299]

    def test_unregistered_ds_rejected(self):
        from repro.ct.ds import DataflowLinearizationSet

        ctx, base, ds = self.setup_ctx()
        foreign = DataflowLinearizationSet.from_range(0x900000, 256, "f")
        with pytest.raises(ProtocolError):
            ctx.load(foreign, 0x900000)

    def test_out_of_ds_rejected(self):
        ctx, base, ds = self.setup_ctx()
        with pytest.raises(ProtocolError):
            ctx.load(ds, base - LINE)


class TestObliviousness:
    """Path ORAM's distributional guarantee (not trace determinism)."""

    def _leaf_histogram(self, request_pattern, runs=40, blocks=16):
        counts = [0] * 32
        for seed in range(runs):
            oram = fresh_oram(blocks, seed=seed)
            for block in request_pattern:
                leaf = oram.position[block]
                counts[leaf % 32] += 1
                oram.access(block)
        return counts

    def test_leaf_distribution_independent_of_requests(self):
        """Two very different request patterns produce statistically
        similar path distributions (total variation distance small)."""
        same_block = self._leaf_histogram([3] * 10)
        scan = self._leaf_histogram(list(range(10)))
        total = sum(same_block)
        tvd = sum(abs(a - b) for a, b in zip(same_block, scan)) / (2 * total)
        assert tvd < 0.25

    def test_access_count_is_public_only(self):
        """Traffic volume depends only on the NUMBER of accesses."""
        machines = []
        for pattern in ([1] * 8, list(range(8))):
            oram = fresh_oram(32, seed=9)
            for block in pattern:
                oram.access(block)
            machines.append(oram.machine.stats.l1d_refs)
        assert machines[0] == machines[1]
