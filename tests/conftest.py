"""Shared fixtures: the cached small universe, the example zoo and a few
seeded ``create_pair``-grown spheres."""

import random

import pytest

from charfol import zoo
from charfol.moves import create_pair
from charfol.tightness import decide_tightness, universe

ZOO_NAMES = sorted(zoo.ZOO)


@pytest.fixture(scope="session")
def universe3():
    """Isomorphism classes with at most three saddles, keyed by signature."""
    return universe(3)


@pytest.fixture(scope="session")
def universe_list(universe3):
    return [g for _, graphs in sorted(universe3.items()) for g in graphs]


@pytest.fixture(scope="session")
def tight_instances(universe_list):
    return [g for g in universe_list if decide_tightness(g).tight]


@pytest.fixture(params=ZOO_NAMES)
def zoo_graph(request):
    return zoo.example(request.param)


#: (zoo fixture, saddle count) of the seeded create_pair walks below
WALKS = (
    ("tight_one_saddle_negative", 14),
    ("three_basin_chain", 14),
    ("embryo_negative", 12),
    ("tight_saddle_connection", 12),
    ("overtwisted_loop_negative", 8),
)


def walk_spheres():
    """(label, graph) for seeded create_pair walks from zoo fixtures."""
    rng = random.Random(5151)
    out = []
    for name, saddles in WALKS:
        g = zoo.example(name)
        while len(g.saddle_points()) < saddles:
            g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
        out.append((f"{name}+{saddles}", g))
    return out


@pytest.fixture(scope="session")
def walked_spheres():
    return walk_spheres()
