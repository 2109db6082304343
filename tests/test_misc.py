"""Small-surface modules: errors, params, stats, workload descriptors."""

import pytest

from repro import params
from repro.core.stats import MachineStats
from repro.errors import (
    AlignmentError,
    AllocationError,
    ConfigurationError,
    MemoryError_,
    ProtocolError,
    ReproError,
)
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload, make_rng


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            MemoryError_,
            AlignmentError,
            AllocationError,
            ProtocolError,
        ):
            assert issubclass(exc, ReproError)

    def test_alignment_is_a_memory_error(self):
        assert issubclass(AlignmentError, MemoryError_)
        assert issubclass(AllocationError, MemoryError_)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ProtocolError("x")


class TestParams:
    def test_geometry_consistency(self):
        assert params.LINE_SIZE == 1 << params.LINE_BITS
        assert params.PAGE_SIZE == 1 << params.PAGE_BITS
        assert params.LINES_PER_PAGE == 64
        assert params.FULL_PAGE_MASK == (1 << 64) - 1
        assert params.WORDS_PER_LINE * params.WORD_SIZE == params.LINE_SIZE


class TestMachineStats:
    def test_as_dict_keys(self):
        stats = MachineStats()
        assert set(stats.as_dict()) == {
            "insts",
            "l1i_refs",
            "l1d_refs",
            "loads",
            "stores",
            "ct_loads",
            "ct_stores",
            "cycles",
        }

    def test_reset(self):
        stats = MachineStats(insts=5, cycles=9.0, ct_loads=2)
        stats.reset()
        assert stats.as_dict() == MachineStats().as_dict()


class TestWorkloadDescriptors:
    def test_label_small_sizes_not_k(self):
        workload = WORKLOADS["dijkstra"]
        assert workload.label(96) == "dij_96"

    def test_label_non_multiple_of_1000(self):
        workload = WORKLOADS["histogram"]
        assert workload.label(1500) == "hist_1500"

    def test_make_rng_deterministic_and_distinct(self):
        assert make_rng(10, 1).random() == make_rng(10, 1).random()
        assert make_rng(10, 1).random() != make_rng(10, 2).random()
        assert make_rng(10, 1).random() != make_rng(11, 1).random()

    def test_descriptor_fields(self):
        for workload in WORKLOADS.values():
            assert isinstance(workload, Workload)
            assert workload.sizes
            assert workload.description
            assert callable(workload.run) and callable(workload.reference)
