"""Golden pins: three seeded solves, byte for byte.

Each solve carries two pins. The first is a digest of the archive and of the
anchors the solve used (f*, f-, the four distance anchors, x_p and x_n); the
archive alone is often the exact front for every seed, and the anchors move
with any change to the random streams of stages 1 and 2. The second is the
generator's next draw after the solve, which also moves with the number of
uniforms stage 3 consumes (DE draws, stochastic rounding, the tabu walk) even
where its archive does not. A change that alters the results on purpose
re-pins them and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from moits.benchmarks import benchmark
from moits.de import DEConfig
from moits.pipeline import HybridConfig, solve

PINS = {
    ("p1", "degl"): "c63064a65de111e367291c5fb685dd912e438c4075a42b41ecc02b2270ddc912",
    ("p2", "rand1"): "5217792fd9421f82c1c057a74a48d48a5da905ca200e1035f08d988d989984b5",
    ("p3", "best"): "f9e8dd7820e5f82ea1162d8f5adf17d12826c974c6c5b9f6a65dd2fcf0b31ce2",
}

NEXT_DRAWS = {
    ("p1", "degl"): "0.6376156676841367",
    ("p2", "rand1"): "0.6484371862450417",
    ("p3", "best"): "0.370951571608672",
}

ANCHOR_FIELDS = (
    "f_star", "f_minus", "d_pis_star", "d_nis_star", "d_pis_prime", "d_nis_prime", "x_p", "x_n"
)


def seeded_solve(name: str, variant: str) -> tuple[str, str]:
    """The archive-and-anchors digest and the repr of the next draw."""
    config = HybridConfig(
        de=DEConfig(variant=variant, max_iterations=20), alternations=2, ts_iterations=1000
    )
    rng = np.random.default_rng(1)
    archive = solve(benchmark(name).problem, config, rng)
    rows = [[list(x), list(archive.entries[x].evaluation.objectives_min)]
            for x in archive.solutions()]
    anchors = [repr(getattr(archive.anchors, f)) for f in ANCHOR_FIELDS]
    record = {"archive": rows, "anchors": anchors}
    return hashlib.sha256(json.dumps(record).encode()).hexdigest(), repr(rng.random())


@pytest.fixture(scope="module")
def solves():
    return {key: seeded_solve(*key) for key in PINS}


@pytest.mark.parametrize("name, variant", sorted(PINS))
def test_seeded_solve_archive_is_pinned(solves, name, variant):
    assert solves[name, variant][0] == PINS[name, variant]


@pytest.mark.parametrize("name, variant", sorted(NEXT_DRAWS))
def test_seeded_solve_next_draw_is_pinned(solves, name, variant):
    assert solves[name, variant][1] == NEXT_DRAWS[name, variant]
