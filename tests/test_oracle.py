"""The oracle's subset search against the permutation loop it replaced.

``reference_oracle`` is ``oracle_tightness`` as it read when it ran
``verify_taming_order`` on every strict order of the saddle-type points, in
lexicographic order of sorted ids.  The search must return exactly its
result dict (verdict, order, assignment and ``orders_tried``) on every
connection-free graph below.  The seeded walks of ``conftest`` all have
more than 12 points, so five-saddle walks grown here stand in for them.
"""

import gc
import itertools
import random
import weakref

import pytest

from charfol import taming, tightness, zoo
from charfol.model import HYPERBOLIC
from charfol.moves import create_pair
from charfol.tightness import oracle_tightness, verify_taming_order
from references import from_data, relabel


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
    saddle-type points, kept when they are connection-free and have at most
    12 points."""
    rng = random.Random(2024)
    starts = [name for name in sorted(zoo.ZOO) if not zoo.example(name).homoclinic_edges()]
    out = []
    while len(out) < count:
        g = zoo.example(rng.choice(starts))
        while len(g.saddle_points()) < 5:
            g = create_pair(g, rng.randrange(len(g.faces())), rng.choice((1, -1))).graph
        if len(g.points) <= tightness.MAX_ORACLE_POINTS and not g.homoclinic_edges():
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
    fixtures = [g for g in map(zoo.example, sorted(zoo.ZOO)) if not g.homoclinic_edges()]
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
    # a tight universe class and an overtwisted walk: the search caches a
    # region per set it reads, and none of them may keep the graph alive
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
