import pytest

from cqgraph.axioms import (
    EQUALITY,
    LEFT_LEQ_RIGHT,
    AxiomEntry,
    CpComp,
    CpConverse,
    CpId,
    CpMeet,
    CpRel,
    CpTop,
    axiom_catalog,
    encode_cp,
    reversed_entry,
    verify_axiom_graphical,
    verify_axiom_semantic,
)
from cqgraph.containment import decide_equivalence, decide_inclusion
from cqgraph.errors import SignatureError
from cqgraph.gcq import (
    Copy, Discard, Gen, Id1, Merge, Seq, Spawn, Tensor, eval_gcq, n_discard, seq,
)
from cqgraph.sigmodel import Signature, Sort, full_relation, random_model

SIG = Signature({"E": (1, 1), "J": (2, 1), "P": (2, 0), "D": (1, 0)})


def entry(cat, name):
    return next(e for e in cat if e.name == name)


def test_catalog_is_complete():
    cat = axiom_catalog(SIG)
    assert len(cat) == 8 + 8 + 4 + 2 * len(SIG)
    names = [e.name for e in cat]
    for expected in ("smc-i", "smc-viii", "A", "Cop", "S", "F",
                     "UC", "CU", "MC", "CM", "L1[E]", "L2[J]"):
        assert expected in names


def test_catalog_shapes():
    cat = axiom_catalog(SIG)
    special = entry(cat, "S")
    assert special.kind == EQUALITY
    assert special.lhs == Seq(Copy(), Merge()) and special.rhs == Id1()
    cm = entry(cat, "CM")
    assert cm.kind == LEFT_LEQ_RIGHT
    assert cm.lhs == Id1() and cm.rhs == Seq(Copy(), Merge())
    l1 = entry(cat, "L1[J]")
    assert l1.lhs == Seq(Gen("J", 2, 1), n_discard(1))
    assert l1.rhs == n_discard(2)


def test_every_entry_verifies_both_ways():
    cat = axiom_catalog(SIG)
    for e in cat:
        semantic = verify_axiom_semantic(e, trials=40, max_carrier=3, seed=5, sig=SIG)
        assert semantic.passed, f"{e.name}: {semantic.detail}"
        graphical = verify_axiom_graphical(e)
        assert graphical.passed, e.name


def test_reversed_inequalities_fail_with_countermodels():
    cat = axiom_catalog(SIG)
    for name in ("MC", "UC", "L1[E]", "L2[E]", "L1[J]", "L2[J]"):
        rev = reversed_entry(entry(cat, name))
        report = verify_axiom_semantic(rev, trials=60, max_carrier=3, seed=5, sig=SIG)
        assert not report.passed, name
        counter = report.countermodel
        assert counter is not None
        assert not (eval_gcq(rev.lhs, counter).pairs
                    <= eval_gcq(rev.rhs, counter).pairs)


def test_reversed_unit_counit_needs_the_empty_model():
    cat = axiom_catalog(SIG)
    rev = reversed_entry(entry(cat, "UC"))  # id0 <= spawn;discard
    report = verify_axiom_semantic(rev, trials=10, seed=5, sig=SIG)
    assert not report.passed
    assert report.countermodel.size == 0


def test_sharing_a_box_through_copy_merge():
    # copy ; (E (+) E) ; merge asks for the same pair twice: equivalent to E
    e = Gen("E", 1, 1)
    doubled = Seq(Seq(Copy(), Tensor(e, e)), Merge())
    assert decide_equivalence(e, doubled).holds
    # discarding the output of E is strictly below discarding the input
    assert decide_inclusion(Seq(e, Discard()), Discard()).holds
    assert not decide_inclusion(Discard(), Seq(e, Discard())).holds


def eval_cp(t, model):
    size = model.size
    if isinstance(t, CpTop):
        return full_relation(size, 1, 1)
    if isinstance(t, CpId):
        return eval_gcq(Id1(), model)
    if isinstance(t, CpMeet):
        a, b = eval_cp(t.lhs, model), eval_cp(t.rhs, model)
        return type(a)(Sort(1, 1), size, a.pairs & b.pairs)
    if isinstance(t, CpComp):
        from cqgraph.sigmodel import relation_compose
        return relation_compose(eval_cp(t.lhs, model), eval_cp(t.rhs, model))
    if isinstance(t, CpConverse):
        inner = eval_cp(t.arg, model)
        return type(inner)(Sort(1, 1), size,
                           frozenset((b, a) for a, b in inner.pairs))
    if isinstance(t, CpRel):
        return model.relation(t.symbol)
    raise TypeError(t)


def random_cp(rng, depth):
    if depth <= 0:
        return rng.choice([CpTop(), CpId(), CpRel("E"), CpRel("F")])
    kind = rng.choice(["meet", "comp", "conv", "leaf"])
    if kind == "meet":
        return CpMeet(random_cp(rng, depth - 1), random_cp(rng, depth - 1))
    if kind == "comp":
        return CpComp(random_cp(rng, depth - 1), random_cp(rng, depth - 1))
    if kind == "conv":
        return CpConverse(random_cp(rng, depth - 1))
    return random_cp(rng, 0)


CP_SIG = Signature({"E": (1, 1), "F": (1, 1)})


def test_encode_cp_base_identities(rng):
    for _ in range(25):
        model = random_model(CP_SIG, rng.randint(0, 3), rng)
        assert eval_gcq(encode_cp(CpTop()), model) == full_relation(model.size, 1, 1)
        meet = encode_cp(CpMeet(CpRel("E"), CpRel("F")))
        assert eval_gcq(meet, model).pairs == \
            model.rho["E"] & model.rho["F"]
        conv = encode_cp(CpConverse(CpRel("E")))
        assert eval_gcq(conv, model).pairs == \
            frozenset((b, a) for a, b in model.rho["E"])


def test_encode_cp_matches_direct_evaluation(rng):
    for _ in range(30):
        t = random_cp(rng, rng.randint(1, 3))
        term = encode_cp(t)
        assert term.sort == Sort(1, 1)
        for size in (0, 1, 2, 3):
            model = random_model(CP_SIG, size, rng)
            assert eval_gcq(term, model) == eval_cp(t, model)


def test_encode_cp_is_compositional():
    a, b = CpRel("E"), CpConverse(CpRel("F"))
    assert encode_cp(CpComp(a, b)) == Seq(encode_cp(a), encode_cp(b))


def test_converse_is_an_involution(rng):
    for _ in range(10):
        t = random_cp(rng, 2)
        doubled = encode_cp(CpConverse(CpConverse(t)))
        assert decide_equivalence(doubled, encode_cp(t)).holds


def test_encode_a_deep_composition_chain():
    chain = CpRel("E")
    for _ in range(1199):
        chain = CpComp(chain, CpRel("E"))
    assert encode_cp(chain) == seq(*([Gen("E", 1, 1)] * 1200))


def test_entries_and_encodings_refuse_what_they_cannot_read():
    with pytest.raises(SignatureError, match=r"^axiom bad: sides have different sorts$"):
        AxiomEntry("bad", Copy(), Id1(), "eq")
    with pytest.raises(TypeError, match=r"^not a converse-algebra term: Copy\(\)$"):
        encode_cp(Copy())


def test_a_semantic_check_names_the_direction_that_fails():
    # id <= discard ; spawn holds; the carrier-2 model of the battery refutes >=
    report = verify_axiom_semantic(AxiomEntry("bone", Id1(), Seq(Discard(), Spawn()), EQUALITY))
    assert (report.passed, report.detail) == (False, "right not included in left")
    assert report.countermodel.size == 2
