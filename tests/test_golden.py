"""Golden pins: the archives of three seeded solves, byte for byte.

Any change to the random streams or the order of the search (DE draws,
stochastic rounding, the tabu walk) moves these digests. A change that alters
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
    ("p1", "degl"): "07d9dd2bf03b35f7bd63c8b0819d3e62b551bfbf9c85c49ae83961cad0bfdd6b",
    ("p2", "rand1"): "36b9fe5692decb9792b7ddea5127417acd6b3453e3996a869875322b7404cfab",
    ("p3", "best"): "fae44f6d73497511152036592b015645cc19f96c9ca1ef1a6e8c410066d263c2",
}


def archive_digest(name: str, variant: str) -> str:
    config = HybridConfig(
        de=DEConfig(variant=variant, max_iterations=20), alternations=2, ts_iterations=1000
    )
    archive = solve(benchmark(name).problem, config, np.random.default_rng(1))
    rows = [[list(x), list(archive.entries[x].evaluation.objectives_min)]
            for x in archive.solutions()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name, variant", sorted(PINS))
def test_seeded_solve_archive_is_pinned(name, variant):
    assert archive_digest(name, variant) == PINS[name, variant]
