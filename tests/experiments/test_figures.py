"""Figure generators at reduced sizes: structure + expected shapes.

These tests assert the *qualitative* findings of each figure (who
wins, what grows, what stays flat) on small parameter sweeps;
``python -m repro.experiments`` regenerates the full-scale versions
and checks the paper's claims on them (:mod:`repro.experiments.claims`).
"""

import pytest

from repro.experiments import figures


class TestFigure2:
    @pytest.fixture(scope="class")
    def data(self):
        return figures.figure2(sizes=(500, 2000))

    def test_structure(self, data):
        assert set(data) == {500, 2000}
        assert set(data[500]) == {"ct-scalar", "ct"}

    def test_overhead_grows_with_ds(self, data):
        assert data[2000]["ct"] > data[500]["ct"]
        assert data[2000]["ct-scalar"] > data[500]["ct-scalar"]

    def test_scalar_worse_than_simd(self, data):
        assert data[2000]["ct-scalar"] > data[2000]["ct"]

    def test_render(self):
        text = figures.render_figure2(figures.figure2(sizes=(500,)))
        assert "Figure 2" in text and "hist_500" in text


class TestFigure7:
    @pytest.fixture(scope="class")
    def hist(self):
        return figures.figure7("histogram", sizes=(500, 2000))

    def test_labels(self, hist):
        assert set(hist) == {"hist_500", "hist_2k"}

    def test_bia_beats_ct_at_large_sizes(self, hist):
        row = hist["hist_2k"]
        assert row["bia-l1d"] < row["ct"]
        assert row["bia-l2"] < row["ct"]

    def test_l1d_beats_l2_when_ds_fits_l1(self, hist):
        # 2000 bins = 8 KB; fits the 64 KB L1d easily
        assert hist["hist_2k"]["bia-l1d"] < hist["hist_2k"]["bia-l2"]

    def test_dijkstra_l2_wins_at_128(self):
        """Sec. 7.3.2: the 64 KiB DS of dij_128 self-evicts in the
        64 KiB L1d, so the L2-resident BIA wins there."""
        data = figures.figure7("dijkstra", sizes=(32, 128))
        assert data["dij_32"]["bia-l1d"] < data["dij_32"]["bia-l2"]
        assert data["dij_128"]["bia-l2"] < data["dij_128"]["bia-l1d"]

    def test_render(self):
        text = figures.render_figure7(
            "histogram", figures.figure7("histogram", sizes=(500,))
        )
        assert "Figure 7(b)" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def data(self):
        return figures.figure8(sizes=(96,))

    def test_metrics_present(self, data):
        row = data["dij_96"]
        assert set(row) == {"insts num", "icache", "dcache", "dram", "exec. time"}

    def test_ct_issues_more_instructions(self, data):
        row = data["dij_96"]
        assert row["insts num"] > 1.0
        assert row["icache"] > 1.0
        assert row["dcache"] > 1.0

    def test_dram_ratio_near_one(self, data):
        """The paper's point: the gain does not come from DRAM."""
        assert data["dij_96"]["dram"] == pytest.approx(1.0, abs=0.5)

    def test_render(self):
        text = figures.render_figure8(figures.figure8(sizes=(32,)))
        assert "Figure 8" in text


class TestFigure9:
    @pytest.fixture(scope="class")
    def data(self):
        return figures.figure9(ciphers=("AES", "Blowfish", "XOR"))

    def test_structure(self, data):
        assert set(data) == {"AES", "Blowfish", "XOR"}

    def test_aes_ct_slightly_better(self, data):
        """Small read-only DS: software CT stays ahead (Sec. 7.3.3)."""
        assert data["AES"]["ct"] < data["AES"]["bia-l1d"]

    def test_blowfish_bia_much_better(self, data):
        """The write-heavy outlier: dirtiness bitmaps win."""
        assert data["Blowfish"]["bia-l1d"] < data["Blowfish"]["ct"]

    def test_xor_is_free(self, data):
        assert data["XOR"]["ct"] == pytest.approx(1.0, abs=0.01)
        assert data["XOR"]["bia-l1d"] == pytest.approx(1.0, abs=0.01)

    def test_render(self):
        text = figures.render_figure9(figures.figure9(ciphers=("XOR",)))
        assert "Figure 9" in text


class TestFigure10:
    @pytest.fixture(scope="class")
    def data(self):
        return figures.figure10(bins=500, n_secrets=4)

    def test_structure(self, data):
        assert len(data["insecure"]) == 4
        assert len(data["secure"]) == 4
        assert len(data["sets"]) == figures.FIG10_WINDOW

    def test_insecure_varies_across_secrets(self, data):
        rows = {tuple(counts) for _, counts in data["insecure"]}
        assert len(rows) > 1

    def test_secure_identical_across_secrets(self, data):
        rows = {tuple(counts) for _, counts in data["secure"]}
        assert len(rows) == 1

    def test_render(self):
        data = figures.figure10(bins=500, n_secrets=2)
        text = figures.render_figure10(data, bins=500)
        assert "Figure 10" in text and "hist_500" in text


class TestHeadline:
    def test_reduction_above_one(self):
        data = figures.headline_reduction(workloads=["histogram"])
        assert data["histogram"] > 1.0
        assert data["overall"] == pytest.approx(data["histogram"])
