"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded stress timings.
"""

import random
import time

import pytest

from conftest import (
    clique_graph,
    model_battery,
    random_cospan,
    random_hypergraph,
    random_judgment,
    random_term,
    random_term_pairs,
    search_steps,
)
from cqgraph.axioms import (
    CpComp,
    CpConverse,
    CpMeet,
    CpRel,
    CpTop,
    axiom_catalog,
    encode_cp,
    reversed_entry,
    verify_axiom_graphical,
    verify_axiom_semantic,
)
from cqgraph.ccq import eval_ccq, parse_ccq
from cqgraph.containment import (
    decide_equivalence,
    decide_inclusion,
    hypergraph_as_model,
    natural_model_check,
    span_semantics,
)
from cqgraph.cospan import cospan_to_term, is_isomorphic_cospan, term_to_cospan, tensor_cospans, compose_cospans
from cqgraph.errors import BudgetExhausted
from cqgraph.gcq import (
    Copy,
    Discard,
    Gen,
    Id1,
    Merge,
    Seq,
    Swap,
    Tensor,
    eval_gcq,
    seq,
    tensor,
)
from cqgraph.hypergraph import Hypergraph, find_morphisms, validate_morphism
from cqgraph.sigmodel import RelModel, Signature, full_relation, random_model, relation_compose
from cqgraph.translate import lambda_model, lambda_term, theta, theta_model

CORPUS_SIG = Signature({"R": (1, 1), "S": (2, 1), "P": (2, 0), "D": (1, 0)})


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(91)
    return random_term_pairs(rng, CORPUS_SIG, want=300, max_nodes=10, apex_cap=8)


def intro_terms_one_one():
    """The worked example over a single (1,1) symbol, drawn as diagrams."""
    r = Gen("R", 1, 1)
    cap = Seq(Merge(), Discard())
    psi = seq(Tensor(Copy(), Copy()),
              tensor(r, r, r, r),
              tensor(Id1(), Swap(), Id1()),
              Tensor(cap, cap))
    phi = seq(Merge(), r, Discard())
    return phi, psi


def test_criterion_1_intro_example():
    phi, psi = intro_terms_one_one()
    start = time.perf_counter()
    forward = decide_inclusion(phi, psi)
    backward = decide_inclusion(psi, phi)
    elapsed = time.perf_counter() - start
    assert forward.holds
    assert validate_morphism(forward.witness,
                             term_to_cospan(psi).apex, term_to_cospan(phi).apex)
    assert not backward.holds
    counter = backward.countermodel
    assert counter is not None and counter.size == 4
    assert not eval_gcq(psi, counter).pairs <= eval_gcq(phi, counter).pairs
    assert elapsed < 0.1, f"intro decision took {elapsed:.3f}s"

    # the same judgments encoded from their logical form agree
    ccq_sig = Signature({"R": (2, 0)})
    tphi = theta(parse_ccq("2 |- exists z0. (x0 = x1) /\\ R(x0, z0)", ccq_sig))
    tpsi = theta(parse_ccq(
        "2 |- exists z0. exists z1. R(x0,z0) /\\ R(x1,z0) /\\ R(x0,z1) /\\ R(x1,z1)",
        ccq_sig))
    assert decide_inclusion(tphi, tpsi).holds
    assert not decide_inclusion(tpsi, tphi).holds
    report(1, f"intro pair decided both ways in {elapsed * 1000:.1f}ms")


def test_criterion_2_axiom_suite():
    start = time.perf_counter()
    catalog = axiom_catalog(CORPUS_SIG)
    assert len(catalog) == 8 + 8 + 4 + 2 * len(CORPUS_SIG)
    for entry in catalog:
        semantic = verify_axiom_semantic(entry, trials=100, max_carrier=3,
                                         seed=11, sig=CORPUS_SIG)
        assert semantic.passed, f"{entry.name} failed semantically: {semantic.detail}"
        graphical = verify_axiom_graphical(entry)
        assert graphical.passed, f"{entry.name} failed graphically"
    flipped = ["MC", "UC"]
    flipped += [f"L1[{s}]" for s in CORPUS_SIG]
    # for coarity-0 symbols the lax-copy law degenerates to an equality,
    # so only positive-coarity instances can catch a direction flip
    flipped += [f"L2[{s}]" for s, sort in CORPUS_SIG.items() if sort.m > 0]
    for name in flipped:
        entry = next(e for e in catalog if e.name == name)
        rev = verify_axiom_semantic(reversed_entry(entry), trials=100,
                                    max_carrier=3, seed=11, sig=CORPUS_SIG)
        assert not rev.passed, f"reversed {name} unexpectedly held"
        assert rev.countermodel is not None
        assert not (eval_gcq(entry.rhs, rev.countermodel).pairs
                    <= eval_gcq(entry.lhs, rev.countermodel).pairs)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"axiom suite took {elapsed:.1f}s"
    report(2, f"{len(catalog)} laws verified two ways, "
              f"{len(flipped)} direction guards, in {elapsed:.1f}s")


def test_criterion_3_oracle_agreement(corpus):
    start = time.perf_counter()
    disagreements = 0
    for c, d in corpus:
        if decide_inclusion(c, d).holds != natural_model_check(c, d):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"
    report(3, f"{len(corpus)} pairs, morphism search vs natural-model "
              f"evaluation, zero disagreements, {elapsed:.1f}s")


def test_criterion_4_soundness_sweep(corpus):
    rng = random.Random(92)
    held = 0
    for c, d in corpus:
        if not decide_inclusion(c, d).holds:
            continue
        held += 1
        models = [RelModel(CORPUS_SIG, [])]
        models += [random_model(CORPUS_SIG, rng.randint(1, 3), rng)
                   for _ in range(49)]
        for model in models:
            assert eval_gcq(c, model).pairs <= eval_gcq(d, model).pairs, \
                f"violation for a held inclusion on |X|={model.size}"
    assert held > 0
    report(4, f"{held} held inclusions respected on 50 models each "
              f"(empty model included)")


def test_criterion_5_translation_fidelity():
    rng = random.Random(93)
    sig = Signature({"R": (2, 0), "S": (1, 0)})
    for k in range(100):
        j = random_judgment(rng, sig, max_ctx=3, max_depth=5)
        term = theta(j)
        round_trip = lambda_term(term)
        assert (round_trip.left, round_trip.right) == (j.context, 0)
        flat = round_trip.as_judgment()
        for model in model_battery(sig, rng, sizes=(1, 1, 2, 2, 2, 3, 3)):
            direct = eval_ccq(j, model)
            as_diagram = eval_gcq(term, theta_model(model))
            assert direct == frozenset(a for a, _ in as_diagram.pairs)
            translated_model = lambda_model(theta_model(model))
            assert direct == eval_ccq(flat, translated_model)
    report(5, "100 judgments: judgment = diagram = round-trip on all "
              "sampled models up to carrier 3")


def test_criterion_6_compiler_round_trips():
    rng = random.Random(94)
    for _ in range(100):
        c = random_cospan(rng, CORPUS_SIG, max_v=5, max_edges=4)
        t = cospan_to_term(c)
        assert is_isomorphic_cospan(term_to_cospan(t), c)
    pairs = 0
    while pairs < 100:
        t = random_term(rng, CORPUS_SIG, max_nodes=6)
        u = random_term(rng, CORPUS_SIG, max_nodes=6)
        assert is_isomorphic_cospan(
            term_to_cospan(Tensor(t, u)),
            tensor_cospans(term_to_cospan(t), term_to_cospan(u)))
        pairs += 1
        if t.sort.m == u.sort.n:
            assert is_isomorphic_cospan(
                term_to_cospan(Seq(t, u)),
                compose_cospans(term_to_cospan(t), term_to_cospan(u)))
    report(6, "100 decompile round trips and 100 functoriality checks, exact")


def test_criterion_7_worked_derivation_replay():
    r = Gen("R", 1, 1)
    cap = Seq(Merge(), Discard())
    dd = Tensor(Discard(), Discard())
    d1 = seq(Tensor(Copy(), Copy()), tensor(r, r, r, r),
             tensor(Id1(), Swap(), Id1()), Tensor(cap, cap))
    d2 = seq(Tensor(r, r), Tensor(Copy(), Copy()),
             tensor(Id1(), Swap(), Id1()), Tensor(cap, cap))
    d3 = seq(Tensor(r, r), Merge(), Copy(), dd)
    d4 = seq(Merge(), Copy(), Tensor(r, r), Merge(), Copy(), dd)
    d5 = seq(Merge(), r, Copy(), Merge(), Copy(), dd)
    d6 = seq(Merge(), r, Copy(), dd)
    d7 = seq(Merge(), r, Discard())
    steps = [
        ("lax copy", d2, d1, "leq"),
        ("spider fusion", d2, d3, "eq"),
        ("merge-copy adjunction", d4, d3, "leq"),
        ("lax copy again", d5, d4, "leq"),
        ("specialness", d5, d6, "eq"),
        ("counit law", d6, d7, "eq"),
    ]
    for label, lo, hi, kind in steps:
        if kind == "eq":
            assert decide_equivalence(lo, hi).holds, label
        else:
            assert decide_inclusion(lo, hi).holds, label
    assert decide_inclusion(d7, d1).holds
    assert not decide_inclusion(d1, d7).holds
    report(7, "all six rewrite steps and the end-to-end inclusion confirmed")


def test_criterion_8_span_relational_bridge():
    rng = random.Random(95)
    for _ in range(100):
        t = random_term(rng, CORPUS_SIG, max_nodes=8, width_cap=4)
        g = random_hypergraph(rng, CORPUS_SIG, max_v=3, max_edges=2)
        counts = span_semantics(t, g)
        rel = eval_gcq(t, hypergraph_as_model(g, CORPUS_SIG))
        assert frozenset(counts) == rel.pairs
        assert all(k > 0 for k in counts.values())
    report(8, "100 (term, graph) pairs: homomorphism-count support equals "
              "relational evaluation, exact")


def test_criterion_9_converse_algebra_encoding():
    rng = random.Random(96)
    sig = Signature({"E": (1, 1), "F": (1, 1)})
    e, f = CpRel("E"), CpRel("F")
    for _ in range(100):
        model = random_model(sig, rng.randint(0, 3), rng)
        size = model.size
        assert eval_gcq(encode_cp(CpTop()), model) == full_relation(size, 1, 1)
        assert eval_gcq(encode_cp(CpMeet(e, f)), model).pairs == \
            model.rho["E"] & model.rho["F"]
        assert eval_gcq(encode_cp(CpConverse(e)), model).pairs == \
            frozenset((b, a) for a, b in model.rho["E"])
        assert eval_gcq(encode_cp(CpComp(e, f)), model) == \
            relation_compose(model.relation("E"), model.relation("F"))
    report(9, "100 models: top/meet/converse/composition identities, exact")


def test_stress_budgeted_clique_growth():
    def clique(n):
        return Hypergraph(n, {"E": [((i,), (j,))
                                    for i in range(n) for j in range(n) if i != j]})

    timings = []
    for n in range(4, 11):
        start = time.perf_counter()
        found = find_morphisms(clique(n), clique(n - 1), limit=1)
        elapsed = time.perf_counter() - start
        assert found == []
        assert elapsed < 5, f"K{n} refutation took {elapsed:.1f}s"
        timings.append((n, elapsed))
    # a search that needs more steps than its budget cancels instead of
    # answering; E-tails leave K7 no interchangeable vertices to prune
    tailed = clique_graph(7, tails=range(1, 8), tail_symbol="E")
    assert search_steps(clique(8), tailed) == 13_727
    with pytest.raises(BudgetExhausted):
        find_morphisms(clique(8), tailed, limit=1, budget=10_000)
    trace = ", ".join(f"K{n}:{t * 1000:.0f}ms" for n, t in timings)
    print(f"\nSTRESS: clique refutations under 5s each ({trace})")
