import re
import time
from functools import reduce
from itertools import chain

import pytest

from conftest import model_battery, random_cospan, random_judgment, random_term
from cqgraph.ccq import parse_ccq
from cqgraph.cospan import (
    Cospan,
    compile_nodes,
    compose_cospans,
    cospan_to_dot,
    cospan_to_term,
    identity_cospan,
    is_isomorphic_cospan,
    pushout,
    tensor_cospans,
    term_to_cospan,
)
from cqgraph.errors import ModelError, SortError
from cqgraph.gcq import (
    Copy,
    Discard,
    Gen,
    Id0,
    Id1,
    Merge,
    Seq,
    Spawn,
    Swap,
    Tensor,
    eval_gcq,
    parse_gcq,
    print_gcq,
    seq,
)
from cqgraph.hypergraph import Hypergraph, find_morphisms, join_plan, quotient, validate_morphism
from cqgraph.sigmodel import Signature
from cqgraph.translate import theta

SIG = Signature({"R": (2, 0), "S": (1, 1)})


def test_base_cospans():
    assert term_to_cospan(Copy()) == Cospan(1, 2, Hypergraph(1), (0,), (0, 0))
    assert term_to_cospan(Merge()) == Cospan(2, 1, Hypergraph(1), (0, 0), (0,))
    assert term_to_cospan(Discard()) == Cospan(1, 0, Hypergraph(1), (0,), ())
    assert term_to_cospan(Spawn()) == Cospan(0, 1, Hypergraph(1), (), (0,))
    assert term_to_cospan(Id0()) == Cospan(0, 0, Hypergraph(0), (), ())
    assert term_to_cospan(Id1()) == identity_cospan(1)
    assert term_to_cospan(Swap()) == Cospan(2, 2, Hypergraph(2), (0, 1), (1, 0))


def test_box_cospan_boundary_split():
    c = term_to_cospan(Gen("S", 1, 1))
    assert c.apex.edges["S"] == (((0,), (1,)),)
    assert c.iota == (0,) and c.omega == (1,)


def test_compose_with_identity_is_isomorphic(rng):
    for _ in range(20):
        t = random_term(rng, SIG, max_nodes=6)
        c = term_to_cospan(t)
        assert is_isomorphic_cospan(compose_cospans(identity_cospan(c.n), c), c)
        assert is_isomorphic_cospan(compose_cospans(c, identity_cospan(c.m)), c)


def test_copy_then_merge_is_identity_wire():
    c = compose_cospans(term_to_cospan(Copy()), term_to_cospan(Merge()))
    assert is_isomorphic_cospan(c, identity_cospan(1))


def test_merge_then_copy_collapses_to_one_vertex():
    c = compose_cospans(term_to_cospan(Merge()), term_to_cospan(Copy()))
    assert c.apex.vcount == 1
    assert c.iota == (0, 0) and c.omega == (0, 0)


def test_tensor_unit_and_counts(rng):
    unit = term_to_cospan(Id0())
    for _ in range(10):
        c = term_to_cospan(random_term(rng, SIG, max_nodes=5))
        t = tensor_cospans(c, unit)
        assert is_isomorphic_cospan(t, c)
    a = term_to_cospan(Gen("S", 1, 1))
    b = term_to_cospan(Gen("R", 2, 0))
    both = tensor_cospans(a, b)
    assert both.apex.vcount == a.apex.vcount + b.apex.vcount
    assert len(both.apex.edges["S"]) == 1 and len(both.apex.edges["R"]) == 1


def test_compose_boundary_mismatch():
    with pytest.raises(SortError):
        compose_cospans(term_to_cospan(Copy()), term_to_cospan(Copy()))


def test_compile_is_functorial_up_to_iso(rng):
    # the one-pass compiler numbers vertices and orders edges exactly as
    # the reference pushout algebra does, so the cospans are equal
    for _ in range(30):
        t = random_term(rng, SIG, max_nodes=8)
        u = random_term(rng, SIG, max_nodes=8)
        assert term_to_cospan(Tensor(t, u)) == \
            tensor_cospans(term_to_cospan(t), term_to_cospan(u))
        if t.sort.m == u.sort.n:
            assert term_to_cospan(Seq(t, u)) == \
                compose_cospans(term_to_cospan(t), term_to_cospan(u))


def test_compile_long_chain():
    c = term_to_cospan(seq(*[Gen("S", 1, 1)] * 10_000))
    assert c.apex.vcount == 10_001
    assert c.apex.edge_count() == 10_000
    assert c.iota == (0,) and c.omega == (10_000,)


def test_composition_associative_up_to_iso(rng):
    found = 0
    while found < 10:
        a = random_term(rng, SIG, max_nodes=4)
        b = random_term(rng, SIG, max_nodes=4)
        c = random_term(rng, SIG, max_nodes=4)
        if a.sort.m != b.sort.n or b.sort.m != c.sort.n:
            continue
        found += 1
        left = term_to_cospan(Seq(Seq(a, b), c))
        right = term_to_cospan(Seq(a, Seq(b, c)))
        assert is_isomorphic_cospan(left, right)


def test_intro_term_compiles_to_four_vertices():
    R = Gen("S", 1, 1)
    psi = seq(Tensor(Copy(), Copy()),
              Tensor(Tensor(Tensor(R, R), R), R),
              Tensor(Tensor(Id1(), Swap()), Id1()),
              Tensor(Seq(Merge(), Discard()), Seq(Merge(), Discard())))
    c = term_to_cospan(psi)
    assert c.apex.vcount == 4
    assert len(c.apex.edges["S"]) == 4
    assert len(set(c.iota)) == 2


def test_iso_cospan_reflexive_and_boundary_sensitive():
    a = term_to_cospan(Seq(Copy(), Tensor(Id1(), Id1())))
    assert is_isomorphic_cospan(a, a)
    # same apex, but the legs land differently and nothing can repair that
    two = Hypergraph(2)
    left = Cospan(1, 1, two, (0,), (0,))
    right = Cospan(1, 1, two, (0,), (1,))
    assert not is_isomorphic_cospan(left, right)
    with pytest.raises(SortError):
        is_isomorphic_cospan(left, identity_cospan(2))


def test_pushout_universal_property(rng):
    # every cocone agreeing on the shared boundary factors uniquely
    from conftest import compose_morphisms, random_hypergraph
    from cqgraph.hypergraph import HgMorphism

    checked = 0
    for _ in range(300):
        if checked >= 12:
            break
        a = random_hypergraph(rng, SIG, max_v=2, max_edges=1)
        b = random_hypergraph(rng, SIG, max_v=2, max_edges=1)
        if a.vcount == 0 or b.vcount == 0:
            continue
        k = rng.randint(0, 2)
        f = tuple(rng.randrange(a.vcount) for _ in range(k))
        g = tuple(rng.randrange(b.vcount) for _ in range(k))
        p, qa, qb = pushout(f, g, a, b)
        inj_a = HgMorphism(qa, {sym: tuple(range(len(rows)))
                                for sym, rows in a.edges.items()})
        base = {sym: len(rows) for sym, rows in a.edges.items()}
        inj_b = HgMorphism(qb, {sym: tuple(base.get(sym, 0) + i for i in range(len(rows)))
                                for sym, rows in b.edges.items()})
        assert validate_morphism(inj_a, a, p) and validate_morphism(inj_b, b, p)
        q = random_hypergraph(rng, SIG, max_v=2, max_edges=2)
        all_p_to_q = find_morphisms(p, q)
        for u in find_morphisms(a, q, limit=4):
            for v in find_morphisms(b, q, limit=4):
                if any(u.vmap[f[i]] != v.vmap[g[i]] for i in range(k)):
                    continue
                mediators = [m for m in all_p_to_q
                             if compose_morphisms(inj_a, m) == u
                             and compose_morphisms(inj_b, m) == v]
                assert len(mediators) == 1
                checked += 1
    assert checked >= 12


def test_quotient_maps_are_morphisms(rng):
    for _ in range(20):
        k = rng.randint(0, 3)
        a = random_cospan(rng, SIG, max_v=4, max_edges=2)
        b = random_cospan(rng, SIG, max_v=4, max_edges=2)
        if a.apex.vcount == 0 or b.apex.vcount == 0:
            continue
        f = tuple(rng.randrange(a.apex.vcount) for _ in range(k))
        g = tuple(rng.randrange(b.apex.vcount) for _ in range(k))
        p, qa, qb = pushout(f, g, a.apex, b.apex)
        for x, y in zip(f, g):
            assert qa[x] == qb[y]
        assert p.vcount <= a.apex.vcount + b.apex.vcount


def test_decompile_identity_cospan():
    t = cospan_to_term(identity_cospan(1))
    assert is_isomorphic_cospan(term_to_cospan(t), identity_cospan(1))


def test_decompile_single_edge_uses_one_box():
    c = term_to_cospan(Gen("S", 1, 1))
    t = cospan_to_term(c)

    def boxes(u):
        if isinstance(u, Gen):
            return [u.name]
        if isinstance(u, (Seq, Tensor)):
            return boxes(u.lhs) + boxes(u.rhs)
        return []

    assert boxes(t) == ["S"]
    assert is_isomorphic_cospan(term_to_cospan(t), c)


def test_decompile_round_trip_random(rng):
    for _ in range(40):
        c = random_cospan(rng, SIG, max_v=5, max_edges=4)
        t = cospan_to_term(c)
        assert t.sort == c.sort
        assert is_isomorphic_cospan(term_to_cospan(t), c)


def test_iso_cospan_agrees_with_brute_force(rng):
    # oracle: try every vertex bijection commuting with both legs, and for
    # each demand a per-symbol edge bijection with matching tentacles
    from itertools import permutations

    def brute_iso(a, b):
        if a.apex.vcount != b.apex.vcount:
            return False
        for perm in permutations(range(b.apex.vcount)):
            if tuple(perm[v] for v in a.iota) != b.iota:
                continue
            if tuple(perm[v] for v in a.omega) != b.omega:
                continue
            if all(
                sorted((tuple(perm[v] for v in s), tuple(perm[v] for v in t))
                       for s, t in a.apex.edges.get(sym, ()))
                == sorted(b.apex.edges.get(sym, ()))
                for sym in set(a.apex.edges) | set(b.apex.edges)
            ):
                return True
        return False

    checked_true = 0
    for _ in range(120):
        a = random_cospan(rng, SIG, max_v=3, max_edges=2)
        if rng.random() < 0.5:
            # a genuine relabelling of a, sometimes
            perm = list(range(a.apex.vcount))
            rng.shuffle(perm)
            apex = Hypergraph(a.apex.vcount,
                              {sym: [(tuple(perm[v] for v in s), tuple(perm[v] for v in t))
                                     for s, t in rows]
                               for sym, rows in a.apex.edges.items()})
            b = Cospan(a.n, a.m, apex,
                       tuple(perm[v] for v in a.iota),
                       tuple(perm[v] for v in a.omega))
        else:
            b = random_cospan(rng, SIG, max_v=3, max_edges=2)
            if b.sort != a.sort:
                continue
        expected = brute_iso(a, b)
        assert is_isomorphic_cospan(a, b) == expected
        checked_true += expected
    assert checked_true > 20


@pytest.mark.parametrize("n, m, apex, iota, omega", [
    (1, 0, Hypergraph(1), (), ()),  # a boundary shorter than its ordinal
    (0, 0, Hypergraph(1), (), (0,)),  # a boundary longer than its ordinal
    (1, 0, Hypergraph(1), (1,), ()),  # a boundary vertex out of the apex
    (0, 1, Hypergraph(1), (), (-1,)),
    (1, 0, Hypergraph(1), ("0",), ()),  # a boundary entry not a vertex id
    (1, 0, Hypergraph(1), (True,), ()),
    (1, 0, Hypergraph(1), 0, ()),  # a boundary not a sequence
    (True, 0, Hypergraph(1), (0,), ()),  # an ordinal not an int
    (1, 0, "apex", (0,), ()),  # an apex not a hypergraph
    (0, 0, None, (), ()),
])
def test_cospan_rejects_bad_boundaries(n, m, apex, iota, omega):
    with pytest.raises(ModelError):
        Cospan(n, m, apex, iota, omega)


def test_tensor_chains_compile_alike_in_either_nesting():
    # a (+) moves no wire: its operands append to one list in text order,
    # so a right-nested chain gives the same cospan as a left-nested one,
    # in about the same time
    leaves = [Copy(), Gen("S", 1, 1), Spawn(), Merge(), Discard(), Swap()]
    for width in range(1, 13):
        parts = [leaves[k * 5 % len(leaves)] for k in range(width)]
        expected = reduce(tensor_cospans, map(term_to_cospan, parts))
        assert term_to_cospan(reduce(Tensor, parts)) == expected
        assert term_to_cospan(reduce(lambda t, u: Tensor(u, t), reversed(parts))) == expected

    def chain(right: bool):
        t = Spawn()
        for _ in range(31_999):
            t = Tensor(Spawn(), t) if right else Tensor(t, Spawn())
        return t

    compiled, best = {}, {}
    for right in (False, True):
        t = chain(right)
        for _ in range(3):
            start = time.perf_counter()
            compiled[right] = term_to_cospan(t)
            elapsed = time.perf_counter() - start
            best[right] = min(best.get(right, elapsed), elapsed)
    assert compiled[True] == compiled[False]
    assert compiled[True].sort == (0, 32_000)
    assert best[True] < 4 * best[False], best


def test_seq_chains_compile_alike_in_either_nesting():
    # a right-nested chain nests 32,000 groups, each the only item of the
    # operand around it, down to a 32,000-wide layer, and compiles in about
    # the time of the left-nested chain
    layer = reduce(Tensor, [Id1()] + [Spawn()] * 31_999)
    parts = [Gen("R", 1, 1)] * 32_000 + [layer]
    compiled, best = {}, {}
    for right in (False, True):
        t = reduce(lambda t, u: Seq(u, t), reversed(parts)) if right else reduce(Seq, parts)
        for _ in range(3):
            start = time.perf_counter()
            compiled[right] = term_to_cospan(t)
            elapsed = time.perf_counter() - start
            best[right] = min(best.get(right, elapsed), elapsed)
    assert compiled[True] == compiled[False]
    assert compiled[True].sort == (1, 32_000)
    assert compiled[True].apex.vcount == 64_000
    assert best[True] < 4 * best[False], best


def test_groups_after_short_lists_compile_as_fast_as_groups_before_them():
    # in spawn (+) (spawn ; (id (+) ...)) each group is its operand's last
    # item, after one-wire items; in the mirror image,
    # (spawn ; (... (+) id)) (+) spawn, each group is its operand's first
    def nest(mirror: bool):
        t = Spawn()
        for _ in range(10_666):
            t = (Tensor(Seq(Spawn(), Tensor(t, Id1())), Spawn()) if mirror
                 else Tensor(Spawn(), Seq(Spawn(), Tensor(Id1(), t))))
        return t

    compiled, best = {}, {}
    for mirror in (False, True):
        t = nest(mirror)
        for _ in range(3):
            start = time.perf_counter()
            compiled[mirror] = term_to_cospan(t)
            elapsed = time.perf_counter() - start
            best[mirror] = min(best.get(mirror, elapsed), elapsed)
    for c in compiled.values():
        assert c.sort == (0, 21_333) and c.apex.vcount == 21_333
        assert sorted(c.omega) == list(range(21_333))
    assert best[False] < 4 * best[True], best


_LEAVES = {(1, 2): Copy(), (2, 1): Merge(), (1, 0): Discard(), (0, 1): Spawn(),
           (0, 0): Id0(), (1, 1): Id1(), (2, 2): Swap()}


def random_tree(rng, leaves: int, n: int, m: int):
    """A term of sort (n, m) with the given number of leaves, bracketed at
    random: each inner node a ; or a (+), with either operand the larger."""
    if leaves == 1:
        if (n, m) in _LEAVES and rng.random() < 0.5:
            return _LEAVES[n, m]
        return Gen(f"B{n}_{m}", n, m)
    k = rng.randint(1, leaves - 1)
    if rng.random() < 0.5:
        w = rng.randint(0, 3)
        return Seq(random_tree(rng, k, n, w), random_tree(rng, leaves - k, w, m))
    i, j = rng.randint(0, n), rng.randint(0, m)
    return Tensor(random_tree(rng, k, i, j), random_tree(rng, leaves - k, n - i, m - j))


def reference_fold(t):
    """The cospan of t folded from its leaves' through the reference algebra."""
    if isinstance(t, Seq):
        return compose_cospans(reference_fold(t.lhs), reference_fold(t.rhs))
    if isinstance(t, Tensor):
        return tensor_cospans(reference_fold(t.lhs), reference_fold(t.rhs))
    return term_to_cospan(t)


def group_joins(t, moves) -> bool:
    """Whether t ends in a ``;`` with wires between its sides, counting in
    moves, for each (+) whose right operand does, whether the (+)'s left
    operand has fewer outputs than its right one (``"left"``) or not
    (``"right"``), so that the trees nest both ways.  ``|``, not ``or``, so
    every subtree is counted."""
    if isinstance(t, Seq):
        return group_joins(t.lhs, moves) | (t.lhs.sort.m > 0) | group_joins(t.rhs, moves)
    if isinstance(t, Tensor):
        left_glued, right_glued = group_joins(t.lhs, moves), group_joins(t.rhs, moves)
        if right_glued and t.lhs.sort.m < t.rhs.sort.m:
            moves["left"] += 1
            return True
        moves["right"] += right_glued
        return left_glued
    return False


def test_compile_is_the_reference_fold_of_whole_trees(rng):
    # random nestings of both operators, where a group closes after fewer
    # outputs than its own many times, and after as many or more many times
    moves = {"left": 0, "right": 0}
    for _ in range(300):
        t = random_tree(rng, rng.randint(1, 40), rng.randint(0, 4), rng.randint(0, 4))
        assert term_to_cospan(t) == reference_fold(t)
        group_joins(t, moves)
    assert min(moves.values()) >= 50, moves
    # and compiled straight from text: printed random terms, and printed
    # theta terms, with their wide bundles of id
    rel = Signature({"R": (2, 0)})
    texts = ([print_gcq(random_term(rng, SIG, max_nodes=12)) for _ in range(100)]
             + [print_gcq(theta(random_judgment(rng, rel, max_ctx=8))) for _ in range(50)]
             # a group after four one-wire items, holding a group after one
             + ["spawn (+) spawn (+) spawn (+) spawn (+) (spawn ; id (+) (spawn ; id (+) spawn))"])
    for text in texts:
        assert parse_gcq(text, SIG, compile_nodes) == reference_fold(parse_gcq(text, SIG)), text
    bundles = [run.count("(+)") + 1 for text in texts for run in re.findall(r"\bid(?: \(\+\) id\b)*", text)]
    assert max(bundles) >= 6, max(bundles)


def test_only_merge_glues_wires(monkeypatch, rng):
    # every other leaf moves the wires it reads, or makes new ones, so the
    # quotient gets one glue pair per merge: none for the printed theta term
    # of a 50-atom path, whose bundles of id are wide, and so one wire per vertex
    names = ["x0"] + [f"z{i}" for i in range(1, 50)] + ["x1"]
    formula = ("2 |- " + "".join(f"exists {x}. " for x in names[1:-1])
               + " /\\ ".join(f"R({a}, {b})" for a, b in zip(names, names[1:])))
    rel = Signature({"R": (2, 0)})
    texts = [print_gcq(theta(parse_ccq(formula, rel)))]
    texts += [print_gcq(random_term(rng, SIG, max_nodes=12)) for _ in range(100)]
    seen = []

    def recording(size, glue, edges):
        seen.append((size, list(glue)))
        return quotient(size, seen[-1][1], edges)

    monkeypatch.setattr("cqgraph.cospan.quotient", recording)
    merges = 0
    for text in texts:
        c = parse_gcq(text, SIG, compile_nodes)
        size, glue = seen.pop()
        assert len(glue) == len(re.findall(r"\bmerge\b", text)), text
        merges += len(glue)
        if text is texts[0]:
            assert c.apex.vcount == size == 51 and text.count("id") > 1000
    assert merges >= 20


def test_compile_rejects_a_symbol_at_two_sorts():
    with pytest.raises(ModelError):
        term_to_cospan(Tensor(Gen("R", 1, 1), Gen("R", 2, 0)))
    with pytest.raises(ModelError):
        compose_cospans(term_to_cospan(Gen("R", 1, 1)), term_to_cospan(Seq(Gen("R", 1, 0), Spawn())))
    with pytest.raises(SortError):
        Gen("R", -1, 0)


def test_join_over_compiled_cospan_is_relational_evaluation(rng):
    # the battery's empty and one-element models exercise the witness rule,
    # most of all on the fixed terms, whose vertices no edge constrains
    bodies = ("0 |- top", "1 |- exists z0. top", "2 |- x0 = x1")
    fixed = [theta(parse_ccq(body, SIG)) for body in bodies] + [Seq(Spawn(), Discard())]
    for t in chain((random_term(rng, SIG, max_nodes=8) for _ in range(150)), fixed):
        c = term_to_cospan(t)
        for model in model_battery(SIG, rng, sizes=(0, 1, 2, 3)):
            flat = join_plan(c.apex, c.iota + c.omega)(model)
            assert flat == frozenset(a + b for a, b in eval_gcq(t, model).pairs)


def test_dot_marks_interfaces():
    c = term_to_cospan(Seq(Copy(), Tensor(Discard(), Id1())))
    dot = cospan_to_dot(c)
    assert dot.count("style=dotted") == c.n + c.m
