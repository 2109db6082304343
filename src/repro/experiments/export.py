"""Machine-readable export of every reproduced table and figure.

``collect(quick=True)`` assembles all experiment data into one
JSON-serializable dict (plotting scripts, CI diffs); ``export_json``
writes it to a file.  ``quick`` shrinks the parameter sweeps to test
scale; the default runs the paper's full sweeps.

Under ``python -m repro.experiments json`` every engine-backed sweep
goes through the result cache, so an export after the figure targets
simulates nothing new.  ``figure10`` profiles per-set access counts on
a live machine and always simulates.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.experiments import figures, tables

#: reduced sweeps used by quick mode (tests, smoke runs)
QUICK = {
    "fig2_sizes": (500, 1000),
    "fig7_sizes": {
        "dijkstra": (16, 32),
        "histogram": (500, 1000),
        "permutation": (500, 1000),
        "binary_search": (500, 1000),
        "heappop": (500, 1000),
    },
    "fig8_sizes": (16, 32),
    "fig9_ciphers": ("AES", "Blowfish", "XOR"),
    "fig10": dict(bins=500, n_secrets=3),
    "motivation_bins": 1000,
}


def collect(quick: bool = False, seed: int = 1) -> Dict[str, object]:
    """Run every experiment; returns one nested dict of results."""
    fig7_sizes = QUICK["fig7_sizes"] if quick else {}
    data: Dict[str, object] = {
        "table1": tables.table1_rows(),
        "motivation": tables.motivation_profile(
            QUICK["motivation_bins"] if quick else 10000, seed=seed
        ),
        "figure2": figures.figure2(
            QUICK["fig2_sizes"] if quick else figures.FIG2_SIZES, seed=seed
        ),
        "figure7": {
            name: figures.figure7(name, fig7_sizes.get(name), seed=seed)
            for name in (
                "dijkstra",
                "histogram",
                "permutation",
                "binary_search",
                "heappop",
            )
        },
        "figure8": figures.figure8(
            QUICK["fig8_sizes"] if quick else None, seed=seed
        ),
        "figure9": figures.figure9(
            QUICK["fig9_ciphers"] if quick else figures.FIG9_CIPHERS,
            seed=seed,
        ),
        "figure10": figures.figure10(**(QUICK["fig10"] if quick else {})),
    }
    if not quick:
        data["headline"] = figures.headline_reduction(seed=seed)
    return data


def export_json(
    path: str, quick: bool = False, seed: int = 1
) -> Dict[str, object]:
    """Collect and write JSON; returns the collected dict."""
    data = collect(quick=quick, seed=seed)
    with open(path, "w") as fh:
        json.dump(_jsonable(data), fh, indent=2, sort_keys=True)
    return data


def _jsonable(obj):
    """Coerce tuple keys/values and other non-JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and obj != obj:  # NaN
        return None
    return obj
