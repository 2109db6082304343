"""Crypto plumbing: _SimTable routing and Feistel-kernel structure."""

from repro.experiments.config import build_context
from repro.workloads import crypto


class TestSimTable:
    def test_contents_written_to_memory(self):
        ctx = build_context("insecure")
        table = crypto._SimTable(ctx, [10, 20, 30], "t")
        machine = ctx.machine
        assert machine.memory.read_word(table.base) == 10
        assert machine.memory.read_word(table.base + 8) == 30

    def test_secret_load_goes_through_context(self):
        ctx = build_context("bia-l1d")
        table = crypto._SimTable(ctx, list(range(64)), "t")
        before = ctx.machine.stats.ct_loads
        assert table.load(5) == 5
        assert ctx.machine.stats.ct_loads > before

    def test_plain_load_bypasses_mitigation(self):
        ctx = build_context("bia-l1d")
        table = crypto._SimTable(ctx, list(range(64)), "t")
        before = ctx.machine.stats.ct_loads
        assert table.plain_load(5) == 5
        assert ctx.machine.stats.ct_loads == before

    def test_secret_store_roundtrip(self):
        ctx = build_context("ct")
        table = crypto._SimTable(ctx, [0] * 64, "t")
        table.store(7, 99)
        assert table.load(7) == 99

    def test_values_masked_to_32_bits(self):
        ctx = build_context("insecure")
        table = crypto._SimTable(ctx, [1 << 40], "t")
        assert table.plain_load(0) == 0


class TestFeistelKernels:
    def test_deterministic_per_seed(self):
        a = crypto.run_cast(build_context("insecure"), 3)
        b = crypto.run_cast(build_context("insecure"), 3)
        assert a == b

    def test_kernel_table_geometry(self):
        """Fig. 9's DS sizes: ARC2 256 B (u32: 4 lines), Blowfish 4 KiB."""
        ctx = build_context("insecure")
        crypto.run_arc2(ctx, 1)
        arc2_ds = ctx.ds("arc2_pitable")
        assert len(arc2_ds) == 4  # 64 words = 4 lines

        ctx = build_context("insecure")
        crypto.run_blowfish(ctx, 1)
        blowfish_ds = ctx.ds("blowfish_sbox")
        assert len(blowfish_ds) == 64  # 1024 words = 1 page

    def test_read_only_kernels_issue_no_secret_stores(self):
        for runner in (crypto.run_arc2, crypto.run_cast):
            ctx = build_context("bia-l1d")
            runner(ctx, 1)
            assert ctx.machine.stats.ct_stores == 0

    def test_rotl32_wraps(self):
        assert crypto._rotl32(0x80000000, 1) == 1
        assert crypto._rotl32(1, 31) == 0x80000000


class TestDESWorkloadIntegration:
    def test_des_sbox_tables_registered(self):
        ctx = build_context("bia-l1d")
        crypto.run_des(ctx, 1)
        for i in range(8):
            ds = ctx.ds(f"des_s{i + 1}")
            assert len(ds) == 4  # 64 u32 words per S-box

    def test_des_output_matches_pure_implementation(self):
        from repro.workloads.base import make_rng
        from repro.workloads.des import des_encrypt

        ctx = build_context("ct")
        simulated = crypto.run_des(ctx, 5)
        rng = make_rng(23, 5)
        key = rng.getrandbits(64)
        block = rng.getrandbits(64)
        assert simulated == des_encrypt(block, key)
