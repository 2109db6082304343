"""Benchmark programs: the Ghostrider five (Table 2) + crypto kernels."""

from repro.workloads import (
    binary_search,
    dijkstra,
    heappop,
    histogram,
    permutation,
)
from repro.workloads.base import Workload

#: The five Table-2 programs with the paper's Fig. 7 size sweeps.
WORKLOADS = {
    "dijkstra": Workload(
        name="dijkstra",
        label_prefix="dij",
        sizes=(32, 64, 96, 128),
        run=dijkstra.run,
        reference=dijkstra.reference,
        description="SSSP on a dense secret graph; DS = O(V^2)",
    ),
    "histogram": Workload(
        name="histogram",
        label_prefix="hist",
        sizes=(1000, 2000, 4000, 6000, 8000),
        run=histogram.run,
        reference=histogram.reference,
        description="bin counting of secret values; DS = O(num_bins)",
    ),
    "permutation": Workload(
        name="permutation",
        label_prefix="perm",
        sizes=(1000, 2000, 4000, 6000, 8000),
        run=permutation.run,
        reference=permutation.reference,
        description="a[b[i]] = i over a secret permutation; DS = O(n)",
    ),
    "binary_search": Workload(
        name="binary_search",
        label_prefix="bin",
        sizes=(2000, 4000, 6000, 8000, 10000),
        run=binary_search.run,
        reference=binary_search.reference,
        description="probe trace leaks comparisons; DS = O(n)",
    ),
    "heappop": Workload(
        name="heappop",
        label_prefix="heap",
        sizes=(2000, 4000, 6000, 8000, 10000),
        run=heappop.run,
        reference=heappop.reference,
        description="sift-down path leaks values; DS = O(n)",
    ),
}
