"""Pinned per-set access profiles of every cache level.

perfbench's digests hash counters only, and the figure gates read only
Fig. 10's six chosen sets, so a profile drift anywhere else would pass
both.  This pin hashes every level's full profile after one run per
(scheme, Table-2 workload) at the workload's smallest Fig. 7 size, and
per scheme one Fig. 9 cipher.  A simulator speed-up must leave it
unchanged; a change that moves the profiles on purpose updates the
value and says so in CHANGES.md.
"""

import hashlib

from repro.experiments.config import build_context
from repro.workloads import WORKLOADS
from repro.workloads.crypto import run_cipher

SCHEMES = ("insecure", "ct", "ct-scalar", "bia-l1d", "bia-l2")
TABLE2 = ("dijkstra", "histogram", "permutation", "binary_search", "heappop")
CIPHER = "AES"

#: SHA-256 of the ``repr`` of :func:`_profiles`' list.
SET_PROFILES_SHA256 = (
    "87c9f28655160c38bd6a83486a94818e4b95b5b22e8e82ac5914da1d927e8395"
)


def _levels(ctx):
    return [
        (cache.name, sorted(cache.stats.set_accesses.items()))
        for cache in ctx.machine.hierarchy.levels
    ]


def _profiles():
    out = []
    for scheme in SCHEMES:
        for workload in TABLE2:
            descriptor = WORKLOADS[workload]
            ctx = build_context(scheme)
            descriptor.run(ctx, min(descriptor.sizes), 1)
            out.append((scheme, workload, _levels(ctx)))
        ctx = build_context(scheme)
        run_cipher(CIPHER, ctx, 1)
        out.append((scheme, CIPHER, _levels(ctx)))
    return out


def test_set_profiles_match_pinned_digest():
    profiles = _profiles()
    # the software-CT runs' sweeps, whose charge is deferred, are in it
    assert all(
        levels[0][1] for scheme, _w, levels in profiles
        if scheme.startswith("ct")
    )
    blob = repr(profiles).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == SET_PROFILES_SHA256
