"""Batched input draws.

:func:`repro.workloads.base.randints` replaces per-value
``Random.randint`` calls, and heappop's heapify holds the sifted value
instead of swapping pairwise.  Each is pinned here to the code it
replaced, kept below as the reference: same values, same heap array,
same final RNG state.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import dijkstra, heappop, histogram
from repro.workloads.base import make_rng, randints


def _randint_loop(rng, n, lo, hi):
    return [rng.randint(lo, hi) for _ in range(n)]


def _reference_values(size, seed):
    rng = make_rng(size, seed)
    return [rng.randint(0, 1 << 30) for _ in range(size)]


def _reference_weights(size, seed):
    rng = make_rng(size, seed)
    return [
        [0 if i == j else rng.randint(1, 100) for j in range(size)]
        for i in range(size)
    ]


def _reference_inputs(size, seed, n_inputs):
    rng = make_rng(size, seed)
    return [rng.randint(-4 * size, 4 * size) for _ in range(n_inputs)]


def _reference_heap(values):
    """The pairwise-swap heapify."""
    heap = list(values)
    n = len(heap)
    for start in range(n // 2 - 1, -1, -1):
        i = start
        while True:
            largest = i
            for child in (2 * i + 1, 2 * i + 2):
                if child < n and heap[child] > heap[largest]:
                    largest = child
            if largest == i:
                break
            heap[i], heap[largest] = heap[largest], heap[i]
            i = largest
    return heap


#: Range widths around powers of two (the rejection rate jumps there),
#: the single-value range, and heappop's 2**30 + 1.
WIDTHS = st.one_of(
    st.just(1),
    st.just((1 << 30) + 1),
    st.integers(min_value=1, max_value=40).flatmap(
        lambda k: st.sampled_from(((1 << k) - 1, 1 << k, (1 << k) + 1))
    ),
)


class TestRandints:
    @given(
        seed=st.integers(min_value=0, max_value=1 << 64),
        n=st.integers(min_value=0, max_value=200),
        lo=st.integers(min_value=-(1 << 40), max_value=1 << 40),
        width=WIDTHS,
    )
    @example(seed=7, n=50, lo=-3, width=1)
    @example(seed=7, n=300, lo=0, width=(1 << 30) + 1)
    @example(seed=7, n=300, lo=-100, width=201)
    @settings(max_examples=200)
    def test_matches_randint_loop(self, seed, n, lo, width):
        hi = lo + width - 1
        ref = random.Random(seed)
        expected = _randint_loop(ref, n, lo, hi)
        rng = random.Random(seed)
        assert randints(rng, n, lo, hi) == expected
        assert rng.getstate() == ref.getstate()

    def test_empty_range_rejected_like_randint(self):
        with pytest.raises(ValueError):
            random.Random(1).randint(5, 4)
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError):
            randints(rng, 3, 5, 4)
        assert rng.getstate() == state


#: small sizes, including the degenerate 0-, 1- and 2-element inputs
SIZES = st.integers(min_value=0, max_value=300)
SEEDS = st.integers(min_value=0, max_value=50)


class TestGenerators:
    @given(size=SIZES, seed=SEEDS)
    @settings(max_examples=60)
    def test_heappop_values(self, size, seed):
        assert heappop.generate_values(size, seed) == _reference_values(
            size, seed
        )

    @given(size=st.integers(min_value=0, max_value=40), seed=SEEDS)
    @settings(max_examples=60)
    def test_dijkstra_weights(self, size, seed):
        assert dijkstra.generate_weights(size, seed) == _reference_weights(
            size, seed
        )

    @given(
        size=st.integers(min_value=1, max_value=10_000),
        seed=SEEDS,
        n_inputs=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60)
    def test_histogram_inputs(self, size, seed, n_inputs):
        assert histogram.generate_inputs(
            size, seed, n_inputs
        ) == _reference_inputs(size, seed, n_inputs)
        assert histogram.generate_inputs(size, seed) == _reference_inputs(
            size, seed, histogram.N_INPUTS
        )

    @pytest.mark.parametrize("seed", [1, 8])
    def test_paper_sizes(self, seed):
        """The Fig. 7 sizes, largest included."""
        for size in (32, 128):
            assert dijkstra.generate_weights(size, seed) == _reference_weights(
                size, seed
            )
        for size in (2000, 10_000):
            assert heappop.generate_values(size, seed) == _reference_values(
                size, seed
            )
        for size in (1000, 8000):
            assert histogram.generate_inputs(size, seed) == _reference_inputs(
                size, seed, histogram.N_INPUTS
            )


class TestBuildHeap:
    @given(
        st.lists(
            st.one_of(
                # many duplicate keys: ties between children and the
                # sifted value on every level
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=1 << 30),
            ),
            max_size=200,
        )
    )
    @example([5, 5, 5, 5, 5, 5, 5])
    @example([0, 1, 1, 1, 1, 0, 1])
    @settings(max_examples=200)
    def test_matches_pairwise_swaps(self, values):
        before = list(values)
        assert heappop._build_heap(values) == _reference_heap(values)
        assert values == before  # the input is left alone

    @pytest.mark.parametrize("size", [2000, 10_000])
    def test_paper_sizes(self, size):
        values = heappop.generate_values(size, 3)
        assert heappop._build_heap(values) == _reference_heap(values)
