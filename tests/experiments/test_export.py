"""JSON export of the full experiment set."""

import hashlib
import json

import pytest

from repro.experiments.export import collect, export_json

#: SHA-256 of the quick export (``json.dumps(..., sort_keys=True,
#: default=repr)``).  A simulator speed-up must leave it unchanged; it
#: covers what the benchmark's per-run digests do not, such as Fig. 10's
#: per-set profiles.  A change that moves figure data on purpose
#: updates this value and says so in CHANGES.md.
QUICK_DATA_SHA256 = (
    "97d617137e4a705c8a6091c3ae35ed6e359b64a99a9ea0603d0706a48ac10fa0"
)


@pytest.fixture(scope="module")
def quick_data():
    return collect(quick=True)


def test_quick_data_matches_pinned_digest(quick_data):
    blob = json.dumps(quick_data, sort_keys=True, default=repr)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
        QUICK_DATA_SHA256)


class TestCollect:
    def test_quick_collect_shape(self, quick_data):
        assert set(quick_data) == {
            "table1",
            "motivation",
            "figure2",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
        }
        assert set(quick_data["figure7"]) == {
            "dijkstra",
            "histogram",
            "permutation",
            "binary_search",
            "heappop",
        }

    def test_figure_values_are_overheads(self, quick_data):
        for size, row in quick_data["figure2"].items():
            assert row["ct"] > 0 and row["ct-scalar"] > 0
        for cipher, row in quick_data["figure9"].items():
            assert row["bia-l1d"] > 0 and row["ct"] > 0

    def test_motivation_rows(self, quick_data):
        assert set(quick_data["motivation"]) == {
            "origin",
            "secure",
            "secure with avx",
        }


class TestExportJson:
    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "results.json"
        data = export_json(str(path), quick=True)
        loaded = json.loads(path.read_text())
        assert set(loaded) == set(data)
        # integer dict keys become strings, values survive
        assert loaded["figure2"]["500"]["ct"] == data["figure2"][500]["ct"]
        assert "sets" in loaded["figure10"]
        assert len(loaded["figure10"]["insecure"]) == 3
