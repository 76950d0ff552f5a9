import random
import time
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    all_morphisms_oracle,
    clique_graph,
    compose_morphisms,
    model_battery,
    random_hypergraph,
    reference_isomorphism,
    reference_search,
    relation_oracle,
    search_steps,
)
from cqgraph.cospan import Cospan, term_to_cospan
from cqgraph.errors import BudgetExhausted, ModelError, SignatureError
from cqgraph.gcq import parse_gcq
from cqgraph.hypergraph import (
    HgMorphism,
    Hypergraph,
    _Search,
    find_morphisms,
    hypergraph_to_dot,
    is_isomorphic,
    join_plan,
    pushout,
    quotient,
    validate_morphism,
)
from cqgraph.sigmodel import RelModel, Signature

SIG = Signature({"R": (1, 1), "S": (2, 1)})


def single_edge():
    return Hypergraph(2, {"R": [((0,), (1,))]})


def triangle():
    return Hypergraph(3, {"R": [((0,), (1,)), ((1,), (2,)), ((2,), (0,))]})


def test_validate_identity():
    g = triangle()
    assert validate_morphism(HgMorphism((0, 1, 2), {"R": (0, 1, 2)}), g, g)


def test_validate_empty_source():
    empty = Hypergraph(0)
    assert validate_morphism(HgMorphism((), {}), empty, triangle())


def test_validate_detects_broken_square():
    g = single_edge()
    bad = HgMorphism((0, 0), {"R": (0,)})  # sends both endpoints to 0 but keeps the edge
    assert not validate_morphism(bad, g, g)


def test_validate_size_mismatch_is_error():
    g = single_edge()
    with pytest.raises(ModelError):
        validate_morphism(HgMorphism((0,), {"R": (0,)}), g, g)
    with pytest.raises(ModelError):
        validate_morphism(HgMorphism((0, 1), {}), g, g)


def test_validate_images_outside_the_target_are_errors():
    g = single_edge()
    with pytest.raises(ModelError, match="^vertex map leaves the target graph$"):
        validate_morphism(HgMorphism((0, 2), {"R": (0,)}), g, g)
    with pytest.raises(ModelError, match="^edge map for 'R' leaves the target graph$"):
        validate_morphism(HgMorphism((0, 1), {"R": (1,)}), g, g)


def test_find_morphisms_single_edge_counts():
    g = single_edge()
    h = triangle()
    found = find_morphisms(g, h)
    assert len(found) == 3
    for f in found:
        assert validate_morphism(f, g, h)


def test_find_morphisms_empty_source():
    assert len(find_morphisms(Hypergraph(0), triangle())) == 1


def test_find_morphisms_into_empty_target():
    assert find_morphisms(Hypergraph(1), Hypergraph(0)) == []


def test_find_morphisms_respects_pins():
    g = single_edge()
    h = triangle()
    found = find_morphisms(g, h, pins={0: 1})
    assert len(found) == 1
    assert found[0].vmap == (1, 2)


def test_find_morphisms_matches_naive_oracle(rng):
    for _ in range(40):
        g = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        h = random_hypergraph(rng, SIG, max_v=3, max_edges=3)
        fast = find_morphisms(g, h)
        slow = all_morphisms_oracle(g, h)
        keys = [(f.vmap, tuple(f.emaps.items())) for f in fast]
        assert sorted(keys) == sorted((f.vmap, tuple(f.emaps.items())) for f in slow)
        assert keys == sorted(keys)


def test_parallel_edges_have_independent_edge_maps():
    g = Hypergraph(2, {"R": [((0,), (1,)), ((0,), (1,))]})
    found = find_morphisms(g, g)
    # one vertex map, but each of the two edges can land on either copy
    assert len(found) == 4


def test_limit_truncates():
    g = Hypergraph(1)
    h = Hypergraph(4)
    assert len(find_morphisms(g, h, limit=2)) == 2


def test_budget_is_an_error_not_a_no():
    g = triangle()
    h = Hypergraph(6, {"R": [((i,), (j,)) for i in range(6) for j in range(6)]})
    with pytest.raises(BudgetExhausted):
        find_morphisms(g, h, budget=3)


def test_a_budget_of_exactly_the_steps_taken_is_enough():
    # a refutation takes only vertex steps
    g, h = clique_graph(6), clique_graph(5, tails=range(1, 6), tail_symbol="E")
    steps = search_steps(g, h)
    assert steps == 340
    assert find_morphisms(g, h, limit=1, budget=steps) == []
    with pytest.raises(BudgetExhausted):
        find_morphisms(g, h, limit=1, budget=steps - 1)
    # a positive search's last step is the edge map it emits
    g, h = clique_graph(7), clique_graph(8, tails=range(8, 0, -1))
    steps = search_steps(g, h)
    [f] = find_morphisms(g, h, limit=1, budget=steps)
    assert validate_morphism(f, g, h)
    with pytest.raises(BudgetExhausted):
        find_morphisms(g, h, limit=1, budget=steps - 1)


def test_isomorphism_maps_parallel_edges_in_ascending_order():
    # three parallel edges map onto h's three, the least onto the least
    g = Hypergraph(2, {"R": [((0,), (1,))] * 3 + [((1,), (0,))]})
    h = Hypergraph(2, {"R": [((1,), (0,))] + [((0,), (1,))] * 3})
    f = is_isomorphic(g, h)
    assert f.vmap == (0, 1) and f.emaps == {"R": (1, 2, 3, 0)}
    assert validate_morphism(f, g, h)


def test_isomorphic_reflexive():
    g = triangle()
    f = is_isomorphic(g, g)
    assert f is not None and validate_morphism(f, g, g)


def test_isomorphic_relabelling():
    g = single_edge()
    h = Hypergraph(2, {"R": [((1,), (0,))]})
    f = is_isomorphic(g, h)
    assert f is not None
    assert f.vmap == (1, 0)


def test_not_isomorphic_parallel_edges():
    one = single_edge()
    two = Hypergraph(2, {"R": [((0,), (1,)), ((0,), (1,))]})
    assert is_isomorphic(one, two) is None


@pytest.mark.parametrize("pins", [{5: 0}, {0: 5}, {-1: 0}, {0: -1}])
@pytest.mark.parametrize("search", [find_morphisms, is_isomorphic])
def test_pins_outside_the_graphs_are_errors(search, pins):
    g = single_edge()
    with pytest.raises(ModelError, match="pin outside the graphs"):
        search(g, g, pins)


def relabelled(rng: random.Random, g: Hypergraph):
    """A copy of g under a random vertex permutation, and the permutation."""
    perm = list(range(g.vcount))
    rng.shuffle(perm)
    return Hypergraph(g.vcount, {sym: [(tuple(perm[v] for v in s), tuple(perm[v] for v in t))
                                       for s, t in rows]
                                 for sym, rows in g.edges.items()}), perm


def test_isomorphic_symmetric_with_invertible_witness(rng):
    for _ in range(30):
        g = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        h, _ = relabelled(rng, g)
        f = is_isomorphic(g, h)
        assert f is not None
        back = is_isomorphic(h, g)
        assert back is not None
        assert validate_morphism(compose_morphisms(f, back), g, g)


def test_not_isomorphic_when_only_multiplicities_differ():
    # equal vertex degrees, and the vertex map (1, 0, 2) sends every edge of
    # g onto an edge of h, but g has a double loop at 0 and h two single loops
    g = Hypergraph(3, {"R": [((1,), (2,)), ((0,), (0,)), ((0,), (0,)), ((2,), (1,))]})
    h = Hypergraph(3, {"R": [((0,), (0,)), ((1,), (1,)), ((0,), (2,)), ((2,), (0,))]})
    assert validate_morphism(HgMorphism((1, 0, 2), {"R": (2, 1, 1, 3)}), g, h)
    assert is_isomorphic(g, h) is None
    assert is_isomorphic(g, g) is not None


def test_not_isomorphic_when_two_pins_share_an_image():
    two_loops = Hypergraph(2, {"R": [((0,), (0,)), ((1,), (1,))]})
    assert is_isomorphic(two_loops, two_loops, pins={0: 0, 1: 0}) is None
    assert is_isomorphic(two_loops, two_loops, pins={0: 1, 1: 0}) is not None


def test_sizes_that_differ_refute_an_isomorphism_before_any_set_up():
    # vertex counts, or edge counts of one symbol: the injective search is
    # infeasible at once and builds no class table or probe
    k40, k39 = clique_graph(40), clique_graph(39)
    for g, h in ((k40, k39), (k39, k40), (k40, Hypergraph(40, k39.edges)),
                 (k40, clique_graph(40, tails=(1,)))):
        search = _Search(g, h, {0: 0}, 1, None, True)
        assert search.infeasible and not hasattr(search, "h_classes")
        assert search.run() == [] and is_isomorphic(g, h) is None
    assert is_isomorphic(k40, k40) is not None
    # the pins are checked first: one outside the graphs is still an error
    with pytest.raises(ModelError, match="pin outside the graphs"):
        is_isomorphic(k40, k39, {0: 39})


def with_repeats(rng, g: Hypergraph) -> Hypergraph:
    """g with one row per symbol repeated or not, so parallel edges occur."""
    return Hypergraph(g.vcount, {sym: rows + (rng.choice(rows),) * rng.randint(0, 1)
                                 for sym, rows in g.edges.items()})


def test_isomorphism_agrees_with_brute_force(rng):
    pairs = []
    for _ in range(30):
        g = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        h = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        pairs += [(g, h), (with_repeats(rng, g), with_repeats(rng, g))]
    for g, h in pairs:
        brute = any(
            len(set(f.vmap)) == g.vcount == h.vcount
            and all(len(set(emap)) == len(emap) == len(h.edges.get(sym, ())) == len(g.edges[sym])
                    for sym, emap in f.emaps.items())
            and set(g.edges) == set(h.edges)
            for f in all_morphisms_oracle(g, h))
        assert (is_isomorphic(g, h) is not None) == brute


def symmetric_target(rng: random.Random) -> Hypergraph:
    """A clique (some vertices looped), a vertex with a twin, or copies of one
    graph side by side: targets rich in interchangeable vertices."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(1, 5)
        return Hypergraph(n, {"R": [((i,), (k,)) for i in range(n) for k in range(n)
                                    if i != k or rng.random() < 0.3]})
    h = random_hypergraph(rng, SIG, max_v=3, max_edges=3)
    if kind == 1:
        return pushout((), (), pushout((), (), h, h)[0], h)[0]
    if not h.vcount:
        return h
    a, twin = rng.randrange(h.vcount), h.vcount
    return Hypergraph(h.vcount + 1, {
        sym: list(rows) + [(tuple(twin if x == a else x for x in s),
                            tuple(twin if x == a else x for x in t))
                           for s, t in rows if a in s + t]
        for sym, rows in h.edges.items()})


def test_existence_search_finds_the_first_of_all_morphisms():
    # the pruned existence search against the unpruned enumeration
    rng = random.Random(6)
    for _ in range(3000):
        g = random_hypergraph(rng, SIG, max_v=4, max_edges=3)
        h = symmetric_target(rng) if rng.random() < 0.5 else \
            random_hypergraph(rng, SIG, max_v=5, max_edges=4)
        pins = {v: rng.randrange(h.vcount)
                for v in rng.sample(range(g.vcount), min(g.vcount, rng.randint(0, 2)))
                } if h.vcount else {}
        assert find_morphisms(g, h, pins, limit=1) == find_morphisms(g, h, pins)[:1]


def test_swap_classes_are_the_transposition_automorphisms():
    # of h restricted to the symbols g uses: h's other edges never
    # constrain a morphism from g
    def is_automorphism(h, a, b, symbols):
        sub = {a: b, b: a}
        return all(sorted((tuple(sub.get(x, x) for x in s), tuple(sub.get(x, x) for x in t))
                          for s, t in rows) == sorted(rows)
                   for sym, rows in h.edges.items() if sym in symbols)

    def checked_swap_classes(g, h):
        classes = {a: {a} for a in range(h.vcount)}  # closure of the swaps
        for a, b in combinations(range(h.vcount), 2):
            if is_automorphism(h, a, b, g.edges):
                classes[a] |= classes[b]
                for x in classes[a]:
                    classes[x] = classes[a]
        found = _Search(g, h, None, 1, None, False).swap_classes()
        assert [sorted(classes[a]) for a in range(h.vcount)] == found
        return found

    # every vertex of these cliques lies on equally many classes, and only
    # the multiplicity of a parallel edge or of a loop tells some apart;
    # a lone loop tells its vertex from the isolated ones by the count alone
    k4 = list(clique_graph(4).edges["E"])
    loops = [((v,), (v,)) for v in range(4)]
    for rows, want in ((k4 + [((0,), (1,))], [[0], [1], [2, 3], [2, 3]]),
                       (k4 + loops + [((0,), (0,))], [[0], [1, 2, 3], [1, 2, 3], [1, 2, 3]]),
                       (k4 + loops + loops[2:], [[0, 1], [0, 1], [2, 3], [2, 3]]),
                       (loops[:1], [[0], [1, 2, 3], [1, 2, 3], [1, 2, 3]])):
        assert checked_swap_classes(clique_graph(2), Hypergraph(4, {"E": rows})) == want

    rng = random.Random(7)
    seen = Counter()
    for _ in range(300):
        g = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        h = with_parallel(rng, symmetric_target(rng) if rng.random() < 0.5 else
                          random_hypergraph(rng, SIG, max_v=5, max_edges=5))
        found = checked_swap_classes(g, h)
        seen["restricted"] += bool(set(h.edges) - set(g.edges))
        seen["merged"] += any(not is_automorphism(h, a, b, h.edges)
                              for a in range(h.vcount) for b in found[a])
        seen["parallel"] += has_parallel(h, g.edges)  # multiplicities decide some swaps
    assert min(seen["restricted"], seen["merged"], seen["parallel"]) >= 40, seen


def with_loops(rng: random.Random, g: Hypergraph) -> Hypergraph:
    """g plus, at random, an ``R(v, v)`` and an ``S(v, v; w)`` edge."""
    if not g.vcount:
        return g
    edges = {sym: list(rows) for sym, rows in g.edges.items()}
    v, w = rng.randrange(g.vcount), rng.randrange(g.vcount)
    if rng.random() < 0.5:
        edges.setdefault("R", []).append(((v,), (v,)))
    if rng.random() < 0.5:
        edges.setdefault("S", []).append(((v, v), (w,)))
    return Hypergraph(g.vcount, edges)


def with_parallel(rng: random.Random, g: Hypergraph) -> Hypergraph:
    """g plus, at random, a copy of one of its edges: a parallel edge."""
    if not g.edges or rng.random() < 0.5:
        return g
    edges = {sym: list(rows) for sym, rows in g.edges.items()}
    rows = edges[rng.choice(sorted(edges))]
    rows.append(rng.choice(rows))
    return Hypergraph(g.vcount, edges)


def has_parallel(g: Hypergraph, symbols) -> bool:
    return any(len(set(rows)) < len(rows) for sym, rows in g.edges.items() if sym in symbols)


def test_search_matches_the_reference_search():
    # the candidate-filtered search against plain backtracking: same answer
    # lists in the same order, the same first witness, never more steps
    rng = random.Random(10)
    seen = Counter()
    for _ in range(400):
        g = with_parallel(rng, with_loops(rng, random_hypergraph(rng, SIG, max_v=4, max_edges=3)))
        h = with_parallel(rng, with_loops(rng, symmetric_target(rng) if rng.random() < 0.3 else
                                          random_hypergraph(rng, SIG, max_v=4, max_edges=5)))
        pins = {v: rng.randrange(h.vcount)
                for v in rng.sample(range(g.vcount), min(g.vcount, rng.randint(0, 2)))
                } if h.vcount else {}
        seen.update(pins=bool(pins), S="S" in g.edges,
                    loop=any(len(set(s + t)) < len(s + t) for rows in g.edges.values()
                             for s, t in rows),
                    unused=bool(set(h.edges) - set(g.edges)),
                    parallel=has_parallel(g, g.edges) or has_parallel(h, g.edges))
        for limit in (None, 1):
            expected, most = reference_search(g, h, pins, limit)
            search = _Search(g, h, pins, limit, None, injective=False)
            assert search.run() == expected
            assert search.steps <= most
            seen["found"] += bool(expected)
        k, perm = relabelled(rng, h)
        one = {u: perm[u] for u in rng.sample(range(h.vcount), min(h.vcount, 1))}
        tries = [(g, h, pins)] + [(h, k, {}), (h, k, one)] * (h.vcount <= 6)
        for a, b, at in tries:  # the reference tries every bijection
            f, vmap = is_isomorphic(a, b, at or None), reference_isomorphism(a, b, at)
            assert (f is None) == (vmap is None)
            if f is not None:
                assert f.vmap == vmap and validate_morphism(f, a, b)
                seen["iso"] += 1
    assert min(seen[key] for key in ("pins", "S", "loop", "found", "iso", "unused",
                                     "parallel")) >= 40, seen


def test_search_set_up_builds_one_class_table_and_every_rule_a_probe():
    # every search, plain or injective, builds h|g's class table once, at
    # set-up, and files each edge of g under the vertex where it becomes
    # checkable; with 0 and 1 pinned, E(0,1) and E(1,0) are kept apart.  A
    # plain search runs K_5 -> K_4, an injective one K_4 -> K_4, as unequal
    # sizes leave it nothing to build
    h = clique_graph(4)
    table = {(a, b): [i] for i, ((a,), (b,)) in enumerate(h.edges["E"])}
    for g, injective, found in ((clique_graph(5), False, (0, 0)), (h, True, (2, 1))):
        n = g.vcount
        for limit, count in zip((None, 1), found):
            search = _Search(g, h, {0: 0, 1: 1}, limit, None, injective)
            built = search.h_classes
            assert built == {"E": table}
            assert [verts for verts, _ in search.ready] == [(0, 1), (1, 0)]
            # rule (a)'s targets: a plain search's are the table's dicts, an
            # injective search's its keys filed by class size (here all 1)
            for _, fset in search.ready:
                assert fset is built["E"] if not injective else fset == set(table)
            # probes[v]: exactly the edges whose largest unpinned tentacle is
            # v, each keyed by its other tentacle
            for v in range(n):
                assert sorted(key(range(n)) for _, key in search.probes[v]) == sorted(
                    min(a, b) for (a,), (b,) in g.edges["E"] if max(a, b) == v > 1)
            assert search.allowed == [-1] * n
            assert len(search.run()) == count and search.h_classes is built
    # classes of 1 and 2 parallel edges: an injective search files each
    # edge's targets under its own class size
    k = Hypergraph(2, {"R": [((1,), (0,))] + [((0,), (1,))] * 2})
    search = _Search(k, k, {0: 0, 1: 1}, 1, None, True)
    assert search.ready == [((1, 0), {(1, 0)}), ((0, 1), {(0, 1)}), ((0, 1), {(0, 1)})]
    # an edge with every tentacle at v allows the same images always: its
    # bitset is folded into allowed[v], and v holds no probe for it
    loop = Hypergraph(1, {"R": [((0,), (0,))]})
    search = _Search(loop, Hypergraph(3, {"R": [((2,), (2,)), ((0,), (1,)), ((1,), (1,))]}),
                     None, None, None, False)
    assert search.allowed == [0b110] and search.probes == [[]]
    assert [f.vmap for f in search.run()] == [(1,), (2,)]
    parallel = _Search(single_edge(), Hypergraph(2, {"R": [((1,), (0,))] + [((0,), (1,))] * 2}),
                       None, None, None, False)
    assert [f.emaps for f in parallel.run()] == [{"R": (1,)}, {"R": (2,)}, {"R": (0,)}]
    assert parallel.h_classes == {"R": {(1, 0): [0], (0, 1): [1, 2]}}
    # classes of 1, 2 and 3 parallel edges: an isomorphism matches class sizes
    rng, seen = random.Random(3), Counter()
    g = Hypergraph(4, {"R": [((0,), (1,))] + [((1,), (2,))] * 2 + [((2,), (3,))] * 3,
                       "S": [((3, 0), (0,))] * 2})
    for _ in range(20):
        rows = [((0,), (1,)), ((1,), (2,)), ((2,), (3,))]
        rng.shuffle(rows)  # the class sizes on other edges, most often not an isomorphic copy
        k = Hypergraph(4, {"R": [rows[0]] + [rows[1]] * 2 + [rows[2]] * 3,
                           "S": g.edges["S"]})
        h, _ = relabelled(rng, k)
        for a, b in ((g, h), (h, g), (k, h)):
            f, vmap = is_isomorphic(a, b), reference_isomorphism(a, b)
            assert (f is None) == (vmap is None)
            assert f is None or f.vmap == vmap and validate_morphism(f, a, b)
            seen[f is not None] += 1
    assert min(seen[True], seen[False]) >= 10, seen


def test_search_step_counts():
    # steps do not depend on the machine: a clique target leaves one
    # image per swap class to try at each depth
    assert search_steps(clique_graph(10), clique_graph(9)) <= 200
    assert search_steps(clique_graph(15), clique_graph(14)) <= 200
    # K_n has no F-edge, so F-tails hide no symmetry from rule (b): one
    # image per swap class at each depth
    tailed = [search_steps(clique_graph(n), clique_graph(n - 1, tails=range(1, n)))
              for n in range(4, 9)]
    assert tailed == [4, 5, 6, 7, 8]
    # E-tails leave no interchangeable vertex of the target, so each vertex
    # tries only the images that every edge checkable there allows
    tailed = [search_steps(clique_graph(n),
                           clique_graph(n - 1, tails=range(1, n), tail_symbol="E"))
              for n in range(4, 9)]
    assert tailed == [21, 74, 340, 1_977, 13_727]
    # swap classes are compared within neighbourhood buckets, not pair by pair
    path = Hypergraph(200, {"R": [((i,), (i + 1,)) for i in range(199)]})
    start = time.perf_counter()
    assert find_morphisms(path, path, limit=1)
    assert time.perf_counter() - start < 0.1


def test_clique_search_steps_and_witnesses():
    # the instances of the clique_search benchmark: K_n -> K_(n-1) and back,
    # and both with F-tails of distinct lengths on the target
    down = [(clique_graph(n), clique_graph(n - 1)) for n in range(4, 10)]
    up = [(clique_graph(n - 1), clique_graph(n)) for n in range(4, 13)]
    down_tailed = [(clique_graph(n), clique_graph(n - 1, tails=range(1, n))) for n in range(4, 9)]
    up_tailed = [(clique_graph(n - 1), clique_graph(n, tails=range(n, 0, -1))) for n in range(4, 9)]
    for cases, first in ((down, 3), (up, 4), (down_tailed, 4), (up_tailed, 4)):
        assert [search_steps(g, h) for g, h in cases] == list(range(first, first + len(cases)))
    for g, h in down + down_tailed:
        assert find_morphisms(g, h, limit=1) == []
    for g, h in up + up_tailed:
        [f] = find_morphisms(g, h, limit=1)
        assert f.vmap == tuple(range(g.vcount)) and validate_morphism(f, g, h)


def test_union_counts():
    k, inl, inr = pushout((), (), triangle(), single_edge())
    assert (k.vcount, len(k.edges["R"]), inl, inr) == (5, 4, (0, 1, 2), (3, 4))


def test_pushout_legs_must_share_their_source():
    with pytest.raises(ModelError, match="^pushout legs must share their source ordinal$"):
        pushout((0,), (), single_edge(), single_edge())


def test_union_with_empty_is_isomorphic():
    g = triangle()
    k, _, _ = pushout((), (), g, Hypergraph(0))
    assert is_isomorphic(g, k) is not None


def test_morphisms_out_of_a_union_multiply(rng):
    for _ in range(10):
        g = random_hypergraph(rng, SIG, max_v=2, max_edges=1)
        h = random_hypergraph(rng, SIG, max_v=2, max_edges=1)
        k = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        u, _, _ = pushout((), (), g, h)
        assert len(find_morphisms(u, k)) == \
            len(find_morphisms(g, k)) * len(find_morphisms(h, k))


def test_composition_of_morphisms_is_valid(rng):
    for _ in range(20):
        g = random_hypergraph(rng, SIG, max_v=2, max_edges=2)
        h = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        k = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        for f1 in find_morphisms(g, h, limit=3):
            for f2 in find_morphisms(h, k, limit=3):
                assert validate_morphism(compose_morphisms(f1, f2), g, k)


@pytest.mark.parametrize("vcount, edges", [
    ("2", {}),  # vcount not a natural
    (-1, {}),
    (None, {}),
    (1, [1]),  # edges not a mapping
    (1, []),  # only None means no edges
    (1, 0),
    (1, ""),
    (1, False),
    (2, {"R": [((0,), (2,))]}),  # a tentacle out of range
    (2, {"R": [(("0",), (1,))]}),  # a tentacle not a vertex id
    (2, {"R": [((0,), (1,)), ((0, 1), ())]}),  # one symbol at two sorts
    (2, {"R": [((0,),)]}),  # an edge not a pair
    (2, {"R": 5}),
])
def test_hypergraph_rejects_bad_input(vcount, edges):
    with pytest.raises(ModelError):
        Hypergraph(vcount, edges)


@pytest.mark.parametrize("edges", [{1: [((0,), (1,))]}, {1: [((0,), (1,))], "R": [((0,), (1,))]}])
def test_hypergraph_rejects_symbols_that_are_not_strings(edges):
    with pytest.raises(ModelError) as caught:
        Hypergraph(2, edges)
    assert str(caught.value) == "edge symbols must be strings"


@pytest.mark.parametrize("sym, message", [
    ("a b", "symbol 'a b' is not an identifier"),
    ("9", "symbol '9' is not an identifier"),
    ("", "symbol names must be non-empty"),
    ("copy", "symbol 'copy' is the name of a wiring constant"),
])
def test_hypergraph_rejects_symbols_that_no_text_can_spell(sym, message):
    with pytest.raises(ModelError) as caught:
        Hypergraph(1, {sym: [((0,), ())]})
    assert str(caught.value) == message
    with pytest.raises(ModelError) as caught:
        Cospan(1, 0, Hypergraph(1, {sym: [((0,), ())]}), [0], [])
    assert str(caught.value) == message


def test_no_edge_maps_onto_an_edge_of_another_sort():
    # each graph is checked on its own, so one symbol may have two sorts
    # across the two; flat tentacle tuples of equal length must not match
    cases = [(Hypergraph(2, {"R": [((0,), (1,))]}), Hypergraph(2, {"R": [((0, 1), ())]})),
             (Hypergraph(3, {"R": [((0, 1, 2), ())]}), Hypergraph(1, {"R": [((0,), ())]}))]
    for g, h in cases:
        for a, b in ((g, h), (h, g)):
            assert find_morphisms(a, b) == [] and find_morphisms(a, b, limit=1) == []


def test_quotient_and_union_reject_a_symbol_at_two_sorts():
    with pytest.raises(ModelError):
        quotient(3, [(0, 1)], {"R": [((0,), (1,)), ((0, 1), (2,))]})
    with pytest.raises(ModelError):
        pushout((), (), single_edge(), Hypergraph(2, {"R": [((0, 1), ())]}))


def test_quotient_labels_the_components_of_the_glue(rng):
    # classes are numbered by their smallest wire, whatever the order and
    # orientation of the glue pairs, exactly as a naive labelling finds them
    size = 300
    for _ in range(30):
        glue = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 400))]
        edges = {"R": [((w,), (w + 1, w + 2)) for w in rng.sample(range(size - 2), 40)]}
        label = list(range(size))  # lowered along the glue until no pair disagrees
        changed = True
        while changed:
            changed = False
            for x, y in glue:
                low = min(label[x], label[y])
                if label[x] != label[y]:
                    label[x] = label[y] = low
                    changed = True
        rank = {root: i for i, root in enumerate(sorted(set(label)))}
        number = [rank[root] for root in label]
        apex, got = quotient(size, glue, edges)
        assert got == number
        assert apex.vcount == len(rank)
        assert apex.edges == {"R": tuple(((number[s],), (number[t], number[u]))
                                         for (s,), (t, u) in edges["R"])}
        shuffled = [(y, x) if rng.random() < 0.5 else (x, y) for x, y in glue]
        rng.shuffle(shuffled)
        assert quotient(size, shuffled, edges) == (apex, got)


def test_dot_output_shape():
    dot = hypergraph_to_dot(single_edge())
    assert dot.count("shape=point") == 2
    assert dot.count("shape=box") == 1
    assert 's0"' in dot and 't0"' in dot


def test_join_plan_of_a_triangle():
    model = RelModel(SIG, ["a", "b", "c"],
                     {"R": [((0,), (1,)), ((1,), (2,)), ((2,), (0,)), ((1,), (1,))]})
    assert join_plan(triangle(), (0,))(model) == frozenset({(0,), (1,), (2,)})
    assert join_plan(triangle(), (0, 0, 1))(model) == \
        frozenset({(0, 0, 1), (1, 1, 2), (2, 2, 0), (1, 1, 1)})


def test_join_plan_witness_rule():
    # a vertex on no edge needs an image: over the empty carrier nothing
    # survives, elsewhere a boundary vertex ranges over the carrier
    empty, two = RelModel(SIG, []), RelModel(SIG, ["a", "b"])
    assert join_plan(Hypergraph(1), ())(empty) == frozenset()
    assert join_plan(Hypergraph(1), ())(two) == frozenset({()})
    assert join_plan(Hypergraph(2), (1, 1))(two) == frozenset({(0, 0), (1, 1)})
    assert join_plan(Hypergraph(0), ())(empty) == frozenset({()})


def test_join_plan_checks_sorts():
    model = RelModel(SIG, ["a"])
    with pytest.raises(SignatureError):
        join_plan(Hypergraph(1, {"R": [((0,), ())]}), (0,))(model)
    with pytest.raises(SignatureError):
        join_plan(Hypergraph(1, {"T": [((0,), ())]}), (0,))(model)


def regular_digraph(size: int = 16, steps=(1, 2, 3, 5, 7)) -> RelModel:
    """R links each element to the next ``steps`` elements round a cycle, so
    every element has len(steps) R-successors and R-predecessors; S sends
    each element, paired with itself or with the next, two elements on."""
    return RelModel(SIG, [f"x{i}" for i in range(size)], {
        "R": [((i,), ((i + d) % size,)) for i in range(size) for d in steps],
        "S": [((i, (i + d) % size), ((i + 2) % size,)) for i in range(size) for d in (0, 1)]})


@pytest.mark.parametrize("text", [
    "R ; R ; R",
    "copy ; (R (+) R) ; merge",  # two edges of one tentacle pattern
    "copy ; S ; R",  # a vertex twice on one edge
    "spawn (+) R",  # a boundary vertex on no edge
    "copy ; (id (+) R)",  # a vertex twice on the boundary
    "(spawn ; copy) (+) (copy ; merge)",  # both, the second with no edge at all
    "id0",  # Hypergraph(0)
])
def test_one_plan_runs_on_many_models(rng, text):
    """A plan keeps nothing from one run to the next: run on the battery
    (carriers 0-3) and on a carrier-16 digraph, each model twice around the
    empty model, it gives what a fresh plan gives, and the oracle's relation."""
    t = parse_gcq(text, SIG)
    c = term_to_cospan(t)
    plan, empty = join_plan(c.apex, c.iota + c.omega), RelModel(SIG, [])
    for model in model_battery(SIG, rng) + [regular_digraph()]:
        for run in (model, empty, model):
            got = plan(run)
            assert got == join_plan(c.apex, c.iota + c.omega)(run)
            if run.size <= 3:
                assert got == frozenset(a + b for a, b in relation_oracle(t, run))
    assert plan(regular_digraph()), "the carrier-16 model must not make every run empty"


def test_a_plan_reports_each_models_sort_faults_in_order():
    """Every run checks the model's sorts, one comparison per symbol in
    symbol order, and names the model's and the query's sort; an unknown
    symbol keeps its message, and an empty carrier still answers before
    any check."""
    g = Hypergraph(3, {"R": [((0,), (1,)), ((1,), (2,)), ((2,), (0,))], "T": [((0,), ())]})
    plan = join_plan(g, (0,))
    mis_sorted = RelModel(Signature({"R": (2, 0), "T": (1, 0)}), ["a"])
    no_t = RelModel(Signature({"R": (1, 1)}), ["a"])
    good = RelModel(Signature({"R": (1, 1), "T": (1, 0)}), ["a"], {"R": [((0,), (0,))]})
    bad_sort = "model interprets 'R' at sort (2, 0), query uses (1, 1)"
    for model, message in [(mis_sorted, bad_sort), (mis_sorted, bad_sort),
                           (no_t, "unknown symbol 'T'"),
                           (RelModel(Signature({"R": (1, 1), "T": (0, 1)}), ["a"]),
                            "model interprets 'T' at sort (0, 1), query uses (1, 0)")]:
        with pytest.raises(SignatureError) as err:
            plan(model)
        assert str(err.value) == message
        assert plan(good) == frozenset()  # T is empty
    for sig in (mis_sorted.signature, no_t.signature):
        assert plan(RelModel(sig, [])) == frozenset()
