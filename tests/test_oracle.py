"""The oracle's subset search against the permutation loop it replaced.

``reference_oracle`` is ``oracle_tightness`` as it read when it ran
``verify_taming_order`` on every strict order of the saddle-type points, in
lexicographic order of sorted ids.  The search must return exactly its
result dict (verdict, order, assignment and ``orders_tried``) on every
graph below, the zoo's embryo and saddle-connection fixtures included.  The
permutation loop is too slow for the seeded walks of ``conftest``, so
five-saddle walks grown here stand in for them; on those walks and on the
embryo walks of ``test_moves`` the oracle's verdict is ``decide``'s.
"""

import gc
import itertools
import random
import weakref

import pytest

from charfol import taming, tightness, zoo
from charfol.model import HYPERBOLIC
from charfol.moves import create_pair
from charfol.tightness import decide_tightness, oracle_tightness, verify_taming_order
from conftest import walk_spheres
from references import from_data, relabel
from test_moves import _embryo_walks


def reference_oracle(g):
    """Try every permutation of the saddle-type points, lowest first."""
    ids = sorted(p.id for p in g.saddle_points())
    tried = 0
    for perm in itertools.permutations(ids):
        tried += 1
        assignment = verify_taming_order(g, perm)
        if assignment is not None:
            return {"tight": True, "order": list(perm), "assignment": assignment, "orders_tried": tried}
    return {"tight": False, "order": None, "assignment": None, "orders_tried": tried}


def five_saddle_walks(count):
    """Seeded create_pair walks from the connection-free zoo fixtures to five
    saddle-type points."""
    rng = random.Random(2024)
    starts = [name for name in sorted(zoo.ZOO) if not zoo.example(name).homoclinic_edges()]
    out = []
    for _ in range(count):
        g = zoo.example(rng.choice(starts))
        while len(g.saddle_points()) < 5:
            g = create_pair(g, rng.randrange(len(g.face_table().orbits)), rng.choice((1, -1))).graph
        out.append(g)
    return out


@pytest.fixture(scope="module")
def walks():
    return five_saddle_walks(12)


def reversed_saddle_ids(g):
    ids = sorted(p.id for p in g.saddle_points())
    return relabel(g, dict(zip(ids, ids[::-1])), {})


def test_search_matches_the_permutation_loop(universe_list, walks):
    # the universe numbers its positive saddles first, and joins first always
    # tame its tight classes; with the ids reversed, splits that need a join
    # below them come first, and the first taming order moves off rank 0
    # the fixtures include embryos and saddle connections
    fixtures = [zoo.example(name) for name in sorted(zoo.ZOO)]
    graphs = universe_list + [reversed_saddle_ids(g) for g in universe_list] + fixtures + walks
    expected = [reference_oracle(g) for g in graphs]
    assert [oracle_tightness(g) for g in graphs] == expected
    assert sorted({out["orders_tried"] for out in expected if out["tight"]}) == [1, 2, 3, 4, 5]
    walk_verdicts = [out["tight"] for out in expected[-len(walks) :]]
    assert 0 < sum(walk_verdicts) < len(walks)


def test_search_reads_each_saddle_once_per_set_below_it(monkeypatch, walks):
    reads = {"search": 0, "final": 0}

    def counting(key, read):
        def wrapped(region, hid):
            reads[key] += 1
            return read(region, hid)

        return wrapped

    monkeypatch.setattr(tightness, "stable_circles", counting("search", taming.stable_circles))
    monkeypatch.setattr(taming, "stable_circles", counting("final", taming.stable_circles))
    most = 0
    for g in walks:
        saddles = [p for p in g.points.values() if p.kind == HYPERBOLIC]
        reads.update(search=0, final=0)
        out = oracle_tightness(g)
        assert reads["search"] <= 5 * 2**4
        # the final check reads every saddle once: the forest of a level
        # reuses the readings of its joins
        assert reads["final"] == (len(saddles) if out["tight"] else 0)
        most = max(most, reads["search"])
    # an overtwisted walk makes the search read far past one order's worth
    assert most > 5 * 5


def test_the_search_frees_its_graph_without_the_cycle_collector(universe_list, walks):
    # a tight universe class and an overtwisted walk: neither the regions
    # the search reads nor those its verifying walk caches may keep the
    # graph alive
    tight = next(
        g for g in universe_list if len(g.saddle_points()) == 3 and oracle_tightness(g)["tight"]
    )
    overtwisted = next(g for g in walks if not oracle_tightness(g)["tight"])
    gc.disable()
    try:
        for source in (tight, overtwisted):
            g = from_data(source.to_data())
            out = oracle_tightness(g)
            assert out == oracle_tightness(source)
            graph_ref = weakref.ref(g)
            del g, out
            assert graph_ref() is None
    finally:
        gc.enable()


def test_the_search_leaves_no_region_in_the_graphs_cache(universe_list, walks):
    # the search reads each set below a prefix once, so it keeps none of its
    # regions; a found order is verified by a level walk, whose sublevel
    # regions stay cached: one per level, from the empty set below the
    # sources up to every point but the sinks
    tight = 0
    for source in universe_list[::5] + walks:
        g = from_data(source.to_data())
        out = oracle_tightness(g)
        tight += out["tight"]
        assert len(g._regions) == (len(g.saddle_points()) + 2 if out["tight"] else 0)
    assert 0 < tight < len(universe_list[::5] + walks)


def test_the_oracle_agrees_with_decide_where_the_permutation_loop_cannot_go():
    # embryo walks, most of them with saddle connections, and the seeded
    # walks of 8 to 14 saddle-type points, all within the oracle's bound
    spheres = random.Random(33).sample(_embryo_walks(99, 40, range(10)), 200)
    spheres += [g for _, g in walk_spheres()]
    verdicts = [oracle_tightness(g)["tight"] for g in spheres]
    assert verdicts == [decide_tightness(g).tight for g in spheres]
    assert 0 < sum(verdicts) < len(spheres)
    assert sum(bool(g.homoclinic_edges()) for g in spheres) > len(spheres) // 2
