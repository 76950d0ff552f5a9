import gc
import importlib
import random
import re
import time
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from conftest import (
    REFERENCE_TOKEN,
    STRAY,
    generator_count,
    identity_relation,
    model_battery,
    mutate,
    random_judgment,
    random_term,
    reference_tokenize,
    relation_oracle,
)
from cqgraph.ccq import _CCQ_CUTS, _CCQ_TOKEN, _CCQ_WHOLE, Top, eval_ccq, parse_ccq, print_ccq
from cqgraph.cospan import compile_nodes, term_to_cospan
from cqgraph.errors import CqError, ParseError, SignatureError, SortError
from cqgraph.gcq import (
    _CUTS,
    _TOKEN,
    _WHOLE,
    Branch,
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
    build_term,
    eval_gcq,
    n_copy,
    n_discard,
    n_merge,
    n_spawn,
    n_swap,
    parse_gcq,
    parse_nodes,
    postorder,
    print_gcq,
    seq,
    term_nodes,
    tokenize,
)
from cqgraph.hypergraph import join_plan
from cqgraph.sigmodel import (
    Record,
    RelModel,
    Signature,
    Sort,
    random_model,
    relation_compose,
    relation_tensor,
)
from cqgraph.translate import lambda_term, theta, theta_model

SIG = Signature({"R": (2, 0), "S": (1, 1)})


def test_sorts_of_constants():
    assert Copy().sort == Sort(1, 2)
    assert Discard().sort == Sort(1, 0)
    assert Merge().sort == Sort(2, 1)
    assert Spawn().sort == Sort(0, 1)
    assert Id0().sort == Sort(0, 0)
    assert Id1().sort == Sort(1, 1)
    assert Swap().sort == Sort(2, 2)


# each wiring constant with its text and the text of its lambda_term
CONSTANTS = [
    (Copy, "copy", "1,2 |- (x0 = y0) /\\ (x0 = y1)"),
    (Discard, "discard", "1,0 |- top"),
    (Merge, "merge", "2,1 |- (x0 = y0) /\\ (x1 = y0)"),
    (Spawn, "spawn", "0,1 |- top"),
    (Id1, "id", "1,1 |- x0 = y0"),
    (Id0, "id0", "0,0 |- top"),
    (Swap, "swap", "2,2 |- (x0 = y1) /\\ (x1 = y0)"),
]


@pytest.mark.parametrize("cls, text, judgment", CONSTANTS, ids=[c[1] for c in CONSTANTS])
def test_each_constant_reads_its_wiring_off_its_class(cls, text, judgment):
    """The class's name prints and parses back, its boundaries give lambda's
    text, and the compiler's cospan evaluates to the oracle's own relation
    of the constant on carriers 0-3."""
    c = cls()
    assert print_gcq(c) == text and parse_gcq(text, SIG) == c
    assert str(lambda_term(c)) == judgment
    compiled = term_to_cospan(c)
    assert compiled.sort == c.sort == (len(cls.iota), len(cls.omega))
    for size in range(4):
        model = RelModel(Signature(), [f"e{i}" for i in range(size)], {})
        flat = join_plan(compiled.apex, compiled.iota + compiled.omega)(model)
        assert flat == frozenset(a + b for a, b in eval_gcq(c, model).pairs)


def test_example_term_sort():
    # ((id (+) copy) (+) id0) ; (R (+) S) with R: (2,0), S: (1,1)
    t = Seq(Tensor(Tensor(Id1(), Copy()), Id0()),
            Tensor(Gen("R", 2, 0), Gen("S", 1, 1)))
    assert t.sort == Sort(2, 1)


def test_ill_sorted_composition():
    with pytest.raises(SortError):
        Seq(Copy(), Copy())


def test_eval_bone():
    bone = Seq(Spawn(), Discard())
    empty = RelModel(SIG, [])
    two = RelModel(SIG, ["a", "b"])
    assert eval_gcq(bone, empty).pairs == frozenset()
    assert eval_gcq(bone, two).pairs == frozenset({((), ())})
    # id0 denotes the unit relation on every model, including the empty one
    assert eval_gcq(Id0(), empty).pairs == frozenset({((), ())})


def test_eval_identity():
    two = RelModel(SIG, ["a", "b"])
    assert eval_gcq(Id1(), two).pairs == frozenset({((0,), (0,)), ((1,), (1,))})


def test_eval_box_is_interpretation():
    model = RelModel(SIG, ["a", "b"], {"S": [((0,), (1,))]})
    assert eval_gcq(Gen("S", 1, 1), model) == model.relation("S")


def test_eval_of_a_long_chain_is_the_relational_power():
    pairs = {(0, 1), (1, 0), (2, 0)}
    model = RelModel(SIG, ["a", "b", "c"], {"S": [((x,), (y,)) for x, y in pairs]})
    power = {(x, x) for x in range(3)}
    for _ in range(1200):
        power = {(x, z) for x, y in power for y2, z in pairs if y == y2}
    chain = Gen("S", 1, 1)
    for _ in range(1199):
        chain = Seq(chain, Gen("S", 1, 1))
    assert eval_gcq(chain, model).pairs == {((x,), (z,)) for x, z in power}


def test_eval_unknown_symbol():
    model = RelModel(Signature({}), ["a"])
    with pytest.raises(SignatureError):
        eval_gcq(Gen("S", 1, 1), model)


def test_eval_of_repeated_subterms_agrees_with_the_oracle(rng):
    """Terms that repeat a leaf or a composite, side by side and in sequence."""
    narrow = [t for t in (random_term(rng, SIG, max_nodes=3, width_cap=2) for _ in range(60))
              if max(t.sort) <= 2]
    for t in narrow[:20]:
        u = Seq(t, rng.choice([v for v in narrow if v.sort.n == t.sort.m] or [n_discard(t.sort.m)]))
        terms = [Tensor(t, t), Tensor(u, u), Seq(Tensor(t, t), Tensor(u.rhs, u.rhs))]
        if t.sort.n == t.sort.m:
            terms += [Seq(t, t), Seq(Tensor(t, Seq(t, t)), Tensor(Seq(t, t), t))]
        if t.sort.n == t.sort.m <= 1:  # the same children under ; and (+)
            terms.append(Tensor(Seq(t, t), Tensor(t, t)))
        for model in model_battery(SIG, rng, sizes=(1, 2)):
            for term in terms:
                assert eval_gcq(term, model).pairs == relation_oracle(term, model)


def test_eval_frees_each_relation_after_its_last_use(monkeypatch):
    """Every prefix of a left-nested chain is distinct: each composite's
    relation is dropped once the next one is built, not kept to the end."""
    alive: list = []  # weak references to every composite built so far
    peaks: list = []  # how many of them are alive at each call

    def tracking(r, s):
        peaks.append(sum(ref() is not None for ref in alive))
        out = relation_compose(r, s)
        alive.append(weakref.ref(out))
        return out

    pairs = {(0, 1), (1, 0), (2, 0)}
    model = RelModel(SIG, ["a", "b", "c"], {"S": [((x,), (y,)) for x, y in pairs]})
    square = eval_gcq(seq(Gen("S", 1, 1), Gen("S", 1, 1)), model)  # S^2 = S^1200 here
    monkeypatch.setattr("cqgraph.gcq.relation_compose", tracking)
    assert eval_gcq(seq(*([Gen("S", 1, 1)] * 1200)), model) == square
    assert len(peaks) == 1199 and max(peaks) <= 2


def test_eval_of_wirings_around_boxes_agrees_with_the_oracle_and_the_join(rng):
    """Box-free wirings on either side of a ``;`` with a box, on carriers
    0-3: the fold equals the oracle and the join over the compiled cospan,
    and copying a pair then merging it is the identity on pairs."""
    box, pair = Gen("S", 1, 1), Tensor(Gen("S", 1, 1), Gen("S", 1, 1))
    terms = [Seq(Copy(), pair), Seq(pair, Merge()), Seq(Spawn(), box), Seq(box, Discard()),
             Seq(n_copy(1), pair), Seq(pair, seq(Swap(), n_merge(1))),
             seq(Copy(), pair, Merge(), Copy(), Tensor(box, Id1()), Merge()),
             Seq(Tensor(box, Id1()), Gen("R", 2, 0))]  # boxes on both sides
    loop = seq(n_copy(2), n_merge(2))
    compiled = [(t, term_to_cospan(t)) for t in terms + [loop]]
    for model in model_battery(SIG, rng):
        for t, c in compiled:
            rel = eval_gcq(t, model)
            assert rel.pairs == relation_oracle(t, model)
            assert join_plan(c.apex, c.iota + c.omega)(model) == \
                frozenset(a + b for a, b in rel.pairs)
        assert eval_gcq(loop, model).pairs == identity_relation(model.size, 2).pairs


def test_eval_of_theta_of_a_star_is_the_formula():
    """theta spawns every variable first and filters by atoms after, so its
    output for a 4-atom star repeats wide wirings: on carriers 0-3 the fold
    and the join over the compiled cospan both give the formula's rows."""
    sig = Signature({"E": (2, 0)})
    phi = parse_ccq("1 |- exists z0. exists z1. exists z2. exists z3. "
                    "E(x0, z0) /\\ E(x0, z1) /\\ E(x0, z2) /\\ E(x0, z3)", sig)
    t = theta(phi)
    c = term_to_cospan(t)
    for size in (0, 1, 2, 3):
        model = random_model(sig, size, random.Random(size))
        rel = eval_gcq(t, theta_model(model))
        assert frozenset(a for a, _ in rel.pairs) == eval_ccq(phi, model) == \
            join_plan(c.apex, c.iota)(theta_model(model))


@pytest.mark.parametrize("term, message", [
    (Tensor(Gen("T", 1, 1), Gen("T", 1, 1)), "model does not interpret symbol 'T'"),
    (Seq(Seq(Gen("S", 1, 1), Gen("T", 1, 1)), Gen("T", 1, 1)),
     "model does not interpret symbol 'T'"),
    (Tensor(Gen("S", 1, 1), Gen("S", 2, 0)),
     "model interprets 'S' at sort Sort(n=1, m=1), term uses Sort(n=2, m=0)"),
    # the first failing leaf in postorder raises, whichever error the next one has
    (Tensor(Tensor(Gen("S", 2, 0), Gen("T", 1, 1)), Gen("S", 2, 0)),
     "model interprets 'S' at sort Sort(n=1, m=1), term uses Sort(n=2, m=0)"),
])
def test_eval_errors_name_the_first_failing_leaf(term, message):
    model = RelModel(Signature({"S": (1, 1)}), ["a"])
    with pytest.raises(SignatureError, match=f"^{re.escape(message)}$"):
        eval_gcq(term, model)


def test_eval_refuses_what_is_not_a_term():
    with pytest.raises(TypeError, match=r"^not a term: Top\(\)$"):
        eval_gcq(Top(), RelModel(Signature({}), ["a"]))


@pytest.mark.parametrize("n, m", [(1.5, 0), ("a", 0), (True, 0), (0, None)])
def test_boxes_refuse_sorts_that_are_not_naturals(n, m):
    with pytest.raises(SortError):
        Gen("R", n, m)


def test_boxes_refuse_the_empty_name():
    # its printed text, the empty string, would not read back as a term
    with pytest.raises(SignatureError, match="^symbol names must be non-empty$"):
        Gen("", 1, 1)


def test_sugar_base_cases():
    assert n_copy(0) == Id0()
    assert n_discard(1) == Discard()
    assert n_spawn(1) == Spawn()
    assert n_swap(1, 1) == Swap()
    assert n_swap(0, 3).sort == Sort(3, 3)


def test_sugar_sorts():
    for n in range(6):
        assert n_copy(n).sort == Sort(n, 2 * n)
        assert n_discard(n).sort == Sort(n, 0)
        assert n_merge(n).sort == Sort(2 * n, n)
        assert n_spawn(n).sort == Sort(0, n)
        for m in range(6):
            assert n_swap(n, m).sort == Sort(n + m, m + n)


def test_n_copy_duplicates_the_bundle(rng):
    model = RelModel(SIG, ["a", "b", "c"])
    rel = eval_gcq(n_copy(2), model)
    expected = frozenset(((x, y), (x, y, x, y))
                         for x in range(3) for y in range(3))
    assert rel.pairs == expected


def test_n_merge_n_discard_semantics():
    model = RelModel(SIG, ["a", "b"])
    assert eval_gcq(n_merge(2), model).pairs == frozenset(
        ((x, y, x, y), (x, y)) for x in range(2) for y in range(2))
    assert eval_gcq(n_discard(2), model).pairs == frozenset(
        ((x, y), ()) for x in range(2) for y in range(2))


def test_n_swap_blocks():
    model = RelModel(SIG, ["a", "b", "c"])
    rel = eval_gcq(n_swap(2, 1), model)
    assert rel.pairs == frozenset(((a, b, c), (c, a, b))
                                  for a in range(3) for b in range(3) for c in range(3))


def test_parse_basic():
    t = parse_gcq("copy ; (S (+) id)", SIG)
    assert t == Seq(Copy(), Tensor(Gen("S", 1, 1), Id1()))


def test_parse_sort_error():
    with pytest.raises(SortError):
        parse_gcq("merge ; merge", SIG)


def test_parse_syntax_error():
    with pytest.raises(ParseError):
        parse_gcq("copy ;", SIG)
    with pytest.raises(ParseError):
        parse_gcq("copy extra", SIG)


def test_parse_precedence():
    # tensor binds tighter than composition, both associate left
    t = parse_gcq("copy ; S (+) S ; merge", SIG)
    assert t == Seq(Seq(Copy(), Tensor(Gen("S", 1, 1), Gen("S", 1, 1))), Merge())


def test_print_parse_round_trip(rng):
    example = Seq(Tensor(Tensor(Id1(), Copy()), Id0()),
                  Tensor(Gen("R", 2, 0), Gen("S", 1, 1)))
    assert parse_gcq(print_gcq(example), SIG) == example
    for _ in range(60):
        t = random_term(rng, SIG, max_nodes=9)
        assert parse_gcq(print_gcq(t), SIG) == t


def nested_term(rng: random.Random, n: int, depth: int):
    """A random term of left width n, each ``;`` and ``(+)`` nesting either
    way: ``random_term`` builds its trees to the left only."""
    leaves = [a for a in (*(cls() for cls, _, _ in CONSTANTS), Gen("R", 2, 0), Gen("S", 1, 1))
              if a.sort.n == n]
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves) if leaves else Tensor(nested_term(rng, 1, 0),
                                                        nested_term(rng, n - 1, 0))
    if rng.random() < 0.5:
        k = rng.randint(0, n)
        return Tensor(nested_term(rng, k, depth - 1), nested_term(rng, n - k, depth - 1))
    first = nested_term(rng, n, depth - 1)
    return Seq(first, nested_term(rng, first.sort.m, depth - 1))


def test_term_nodes_are_the_events_of_the_printed_text():
    """A tree's events fold back into it, and are, event for event, those
    its printed text parses to, at any nesting of ``;`` and ``(+)``."""
    rng = random.Random(37)
    rel = Signature({"R": (2, 0)})
    thetas = [theta(random_judgment(rng, rel, max_depth=4)) for _ in range(20)]
    thetas.append(theta(parse_ccq("2 |- exists z0. R(x0, z0) /\\ R(z0, x1)", rel)))
    terms = [nested_term(rng, rng.randint(0, 3), rng.randint(1, 6)) for _ in range(500)]
    for t in [Tensor(Id1(), Tensor(Id1(), Id1())), *thetas, *terms]:
        nodes = term_nodes(t)
        assert build_term(nodes) == t
        assert nodes == list(parse_nodes(print_gcq(t), SIG))
        assert compile_nodes(nodes) == term_to_cospan(parse_gcq(print_gcq(t), SIG))
    assert term_nodes(Tensor(Id1(), Tensor(Id1(), Id1()))) == \
        [Id1(), "(", Id1(), Id1(), ")", ")"]


def test_eval_is_compositional(rng):
    for _ in range(25):
        t = random_term(rng, SIG, max_nodes=7, width_cap=4)
        for model in model_battery(SIG, rng, sizes=(1, 2, 2)):
            assert eval_gcq(t, model).pairs == relation_oracle(t, model)


def test_seq_tensor_agree_with_relation_algebra(rng):
    for _ in range(25):
        a = random_term(rng, SIG, max_nodes=4, width_cap=3)
        b = random_term(rng, SIG, max_nodes=4, width_cap=3)
        model = model_battery(SIG, rng, sizes=(2,))[1]
        assert eval_gcq(Tensor(a, b), model) == \
            relation_tensor(eval_gcq(a, model), eval_gcq(b, model))
        if a.sort.m == b.sort.n:
            assert eval_gcq(Seq(a, b), model) == \
                relation_compose(eval_gcq(a, model), eval_gcq(b, model))


def test_precongruence_on_models(rng):
    # pointwise inclusion of parts gives inclusion of composites
    bone = Seq(Spawn(), Discard())
    pairs = [(bone, Id0()), (Seq(Merge(), Copy()), Tensor(Id1(), Id1()))]
    for (c, c2), (d, d2) in [(pairs[0], pairs[0]), (pairs[1], pairs[1]),
                             (pairs[0], pairs[1])]:
        for model in model_battery(SIG, rng, sizes=(1, 2, 3)):
            assert eval_gcq(c, model).pairs <= eval_gcq(c2, model).pairs
            assert eval_gcq(d, model).pairs <= eval_gcq(d2, model).pairs
            assert eval_gcq(Tensor(c, d), model).pairs <= \
                eval_gcq(Tensor(c2, d2), model).pairs
            if c.sort.m == d.sort.n:
                assert eval_gcq(Seq(c, d), model).pairs <= \
                    eval_gcq(Seq(c2, d2), model).pairs


def test_composites_compare_hash_and_print_like_dataclasses():
    a, b = Seq(Copy(), Merge()), Seq(Copy(), Merge())
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert Tensor(Copy(), Merge()) != a
    assert Seq(Copy(), Seq(Merge(), Copy())) != Seq(Seq(Copy(), Merge()), Copy())
    assert Seq(Gen("S", 1, 1), Id1()) != Seq(Gen("T", 1, 1), Id1())
    assert repr(Seq(Copy(), Tensor(Gen("S", 1, 1), Id1()))) == \
        "Seq(lhs=Copy(), rhs=Tensor(lhs=Gen(name='S', n=1, m=1), rhs=Id1()))"


def test_long_chain_counts_compares_hashes_and_prints():
    chain = seq(*([Gen("S", 1, 1)] * 1200))
    again = seq(*([Gen("S", 1, 1)] * 1200))
    assert generator_count(chain) == 1200
    assert chain == again and hash(chain) == hash(again)
    assert chain != seq(*([Gen("S", 1, 1)] * 1199), Id1())
    assert repr(chain).count("Gen(name='S', n=1, m=1)") == 1200


def test_repr_of_a_chain_grows_about_linearly():
    # each node's text is written once, not copied again by every node above it
    best = {}
    for n in (2_000, 16_000):
        t = seq(*([Gen("R", 1, 1)] * n))
        for _ in range(3):
            start = time.perf_counter()
            text = repr(t)
            elapsed = time.perf_counter() - start
            best[n] = min(best.get(n, elapsed), elapsed)
        assert text.startswith("Seq(lhs=Seq(lhs=") and text.count("Gen(name='R', n=1, m=1)") == n
    assert best[16_000] < 16 * best[2_000], best


def test_a_branch_reads_its_children_off_its_fields():
    # a node class of three subtree fields and a tag, declared in here and
    # collected after, so that the package's Record classes stay the only ones
    def check():
        class Node(Record):
            children = ()

        class Leaf(Node):
            label: str

        class Tri(Branch, Node):
            left: Node
            mid: Node
            right: Node
            mark: int
            tags = ("mark",)

        a, b, c = Leaf("a"), Leaf("b"), Leaf("c")
        t = Tri(a, b, c, 0)
        assert t.children == (a, b, c) and postorder(t) == [a, b, c, t]
        local = Tri.__qualname__.removesuffix("Tri")  # the prefix a class declared in here gets
        assert repr(t).replace(local, "") == \
            "Tri(left=Leaf(label='a'), mid=Leaf(label='b'), right=Leaf(label='c'), mark=0)"

        def tower(bottom):  # 3,000 deep, past the default recursion limit
            for i in range(3000):
                bottom = Tri(a, bottom, c, i)
            return bottom

        deep = tower(a)
        assert len(postorder(deep)) == 9001
        assert deep == tower(Leaf("a")) and hash(deep) == hash(tower(Leaf("a")))
        assert deep != tower(b) and deep != Tri(a, deep.mid, c, 0)
        assert repr(deep).count("mark=") == 3000
        return weakref.ref(Tri)

    tri = check()
    gc.collect()
    assert tri() is None


def test_wide_sugar_builds_without_recursion():
    assert generator_count(n_discard(1500)) == 1500
    assert n_spawn(1500).sort == Sort(0, 1500)
    assert n_copy(40).sort == Sort(40, 80)
    assert n_merge(40).sort == Sort(80, 40)


GCQ_VOCAB = ["copy", "merge", "discard", "spawn", "id", "id0", "swap", "R", "S", "T",
             ";", "(+)", "(", ")"]
CCQ_VOCAB = ["x0", "x1", "y0", "z0", "exists", "top", "=", "/\\", "(", ")", ",", ".",
             "|-", "R", "S", "2"]


def _outcome(parse, *args):
    """What a parse gives: ("ok", value) or ("error", type, message)."""
    try:
        return ("ok", parse(*args))
    except CqError as exc:
        return ("error", type(exc), str(exc))


def _printed_terms(rng: random.Random) -> list[str]:
    """Printed random terms over SIG and printed theta terms over R."""
    rel = Signature({"R": (2, 0)})
    return ([print_gcq(random_term(rng, SIG, max_nodes=12)) for _ in range(40)]
            + [print_gcq(theta(random_judgment(rng, rel, max_depth=4))) for _ in range(20)])


def test_both_folds_of_the_parser_agree_on_mutated_terms():
    """Parsing straight into the cospan gives the cospan of the parsed tree,
    or the same error, on about 2,000 mutated printed terms."""
    rng = random.Random(11)
    texts = _printed_terms(rng)
    seen = Counter()
    for _ in range(2000):
        text = mutate(rng, rng.choice(texts), GCQ_VOCAB)
        direct = _outcome(parse_gcq, text, SIG, compile_nodes)
        via_tree = _outcome(lambda: term_to_cospan(parse_gcq(text, SIG)))
        assert direct == via_tree, text
        seen[direct[0] if direct[0] == "ok" else direct[1]] += 1
    # every kind of outcome turns up, and none of them rarely
    assert min(seen[kind] for kind in ("ok", ParseError, SortError, SignatureError)) >= 100


def test_a_cospan_passes_through_the_compiler():
    c = parse_gcq("copy ; (S (+) id) ; merge", SIG, compile_nodes)
    assert term_to_cospan(c) is c
    assert c == term_to_cospan(parse_gcq("copy ; (S (+) id) ; merge", SIG))


def test_width_mismatch_reads_the_same_from_both_folds():
    for text in ("merge ; merge", "copy ; (S (+) id) ; (swap (+) id)", "(R ; copy) (+) id",
                 # lists moved in front of a group's, before and in the failing operand
                 "spawn (+) (spawn ; id (+) (spawn ; id (+) spawn)) ; id",
                 "spawn (+) spawn ; id (+) (spawn ; id (+) (spawn ; id (+) spawn))"):
        with pytest.raises(SortError) as tree:
            parse_gcq(text, SIG)
        with pytest.raises(SortError) as direct:
            parse_gcq(text, SIG, compile_nodes)
        assert str(tree.value) == str(direct.value)
    with pytest.raises(SortError, match=r"^cannot compose Sort\(n=2, m=1\) ; "
                                        r"Sort\(n=2, m=1\): 1 != 2$"):
        parse_gcq("merge ; merge", SIG, compile_nodes)


NO_TOKEN = re.compile(r"(?!)")  # fullmatches no chunk, so tokenize takes its findall path


@pytest.mark.parametrize("grammar", ["gcq", "ccq"])
def test_tokenize_matches_the_reference_loop(grammar):
    """One findall gives the tokens of the re.match loop, or its error."""
    rng = random.Random(23)
    if grammar == "gcq":
        token, vocab, texts = _TOKEN, GCQ_VOCAB, _printed_terms(rng)
    else:
        rel = Signature({"R": (2, 0), "S": (1, 0)})
        token, vocab = _CCQ_TOKEN, CCQ_VOCAB
        texts = [print_ccq(random_judgment(rng, rel)) for _ in range(60)]
    seen = Counter()
    for _ in range(1500):
        text = mutate(rng, rng.choice(texts), vocab)
        got = _outcome(tokenize, token, text, (), NO_TOKEN)
        assert got == _outcome(reference_tokenize, REFERENCE_TOKEN[grammar], text), repr(text)
        seen[got[0]] += 1
    assert min(seen["ok"], seen["error"]) >= 100


GRAMMARS = {"gcq": (_TOKEN, _CUTS, _WHOLE), "ccq": (_CCQ_TOKEN, _CCQ_CUTS, _CCQ_WHOLE)}
# texts where cutting at the punctuation could go wrong: "(+)" broken up or
# overlapping, the placeholder "\0", whitespace other than the space, a
# letter outside ASCII, and (formulas) two tokens unspaced or "|-" and "/\" doubled
CUT_EDGES = ["R(+)S", "((+)", "(+ )", "( +)", "(+)+)", "R\0S", "\0", "R\u00a0S", "R\x1cS",
             "R\u2028S", "R\u00e9"]
FORMULA_EDGES = ["0x", "x\u0663", "||-", "//\\"]


@pytest.mark.parametrize("grammar", ["gcq", "ccq"])
def test_the_cut_tokenizer_matches_the_reference_loop(grammar):
    """The tokens of the parsers' str.split shortcut are the re.match loop's,
    or its error: on the edge cases alone and around a valid text, and on
    mutated texts whose stray characters include the placeholder."""
    token, cuts, whole = GRAMMARS[grammar]
    rng = random.Random(29)
    if grammar == "gcq":
        edges, vocab, texts = CUT_EDGES, GCQ_VOCAB, _printed_terms(rng)
    else:
        edges, vocab = CUT_EDGES + FORMULA_EDGES, CCQ_VOCAB
        rel = Signature({"R": (2, 0), "S": (1, 0)})
        texts = [print_ccq(random_judgment(rng, rel)) for _ in range(60)]
    cases = [f"{a}{edge}{b}" for edge in edges for a, b in
             (("", ""), (texts[0] + " ", ""), ("", texts[0]), (texts[0], texts[0]))]
    cases += [mutate(rng, rng.choice(texts), vocab, STRAY + "\0") for _ in range(1500)]
    seen = Counter()
    for text in cases:
        got = _outcome(tokenize, token, text, cuts, whole)
        assert got == _outcome(reference_tokenize, REFERENCE_TOKEN[grammar], text), repr(text)
        seen[got[0]] += 1
    assert min(seen["ok"], seen["error"]) >= 100


def test_the_cut_tokenizer_reads_the_benchmark_queries_without_a_regex_scan(monkeypatch):
    """Each path, cycle and star formula of the ccq_check benchmark, at every
    size it uses (2 to 16 atoms) and with its atoms also reversed, and its
    printed theta term, are cut into the reference's tokens by str.split
    alone: the findall pattern given is None."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    sig = Signature({"E": (2, 0)})
    for shape, j, reverse in product(workloads.CCQ_SHAPES, range(2, 17), (False, True)):
        edges, free = workloads.shape_edges(shape, j)
        formula = workloads.formula_text(edges, free, {v: f"z{v}" for v in range(j + 1)}, reverse)
        term = print_gcq(theta(parse_ccq(formula, sig)))
        for grammar, text in (("ccq", formula), ("gcq", term)):
            _, cuts, whole = GRAMMARS[grammar]
            assert tokenize(None, text, cuts, whole) == \
                reference_tokenize(REFERENCE_TOKEN[grammar], text), text


def test_parsers_see_the_catch_all_character():
    with pytest.raises(ParseError, match="unexpected character '\\+'"):
        parse_gcq("copy ; (+ id", SIG)
    with pytest.raises(ParseError, match="unexpected character '@'"):
        parse_ccq("1 |- R(x0, @)", Signature({"R": (2, 0)}))
