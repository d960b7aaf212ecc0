"""Golden pins: three seeded solves, byte for byte.

Each digest covers the archive, the anchors the solve used (f*, f-, the four
distance anchors, x_p and x_n) and the generator's next draw after the solve.
The archive alone is often the exact front for every seed; the anchors and
the next draw move with any change to the random streams or the order of the
search (DE draws, stochastic rounding, the tabu walk). A change that alters
the results on purpose re-pins them and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from moits.benchmarks import benchmark
from moits.de import DEConfig
from moits.pipeline import HybridConfig, solve

PINS = {
    ("p1", "degl"): "0c8c4959c1be2c95c29538f80d876dae89930821766a1fb7b1a35c018294559a",
    ("p2", "rand1"): "6d15ec8a7b0ea458d74bc1dc3764413dcb7c11c12dae4c623af32e4f36aafc8a",
    ("p3", "best"): "36114236f595f14bdb1d2377c42015f57a09c34524850add35405bf97f9f10a7",
}

ANCHOR_FIELDS = (
    "f_star", "f_minus", "d_pis_star", "d_nis_star", "d_pis_prime", "d_nis_prime", "x_p", "x_n"
)


def solve_digest(name: str, variant: str) -> str:
    config = HybridConfig(
        de=DEConfig(variant=variant, max_iterations=20), alternations=2, ts_iterations=1000
    )
    rng = np.random.default_rng(1)
    archive = solve(benchmark(name).problem, config, rng)
    rows = [[list(x), list(archive.entries[x].evaluation.objectives_min)]
            for x in archive.solutions()]
    anchors = [repr(getattr(archive.anchors, f)) for f in ANCHOR_FIELDS]
    record = {"archive": rows, "anchors": anchors, "next_draw": repr(rng.random())}
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.mark.parametrize("name, variant", sorted(PINS))
def test_seeded_solve_archive_is_pinned(name, variant):
    assert solve_digest(name, variant) == PINS[name, variant]
