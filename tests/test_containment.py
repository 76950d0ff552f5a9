import pytest

from conftest import (
    clique,
    compose_morphisms,
    inclusion_steps,
    model_battery,
    random_hypergraph,
    random_term,
    random_term_pairs,
)
from cqgraph.ccq import parse_ccq
from cqgraph.containment import (
    decide_equivalence,
    decide_inclusion,
    hypergraph_as_model,
    natural_model_check,
    span_semantics,
)
from cqgraph.cospan import term_to_cospan
from cqgraph.errors import BudgetExhausted, ModelError, SignatureError, SortError
from cqgraph.gcq import (
    Copy,
    Discard,
    Gen,
    Id0,
    Id1,
    Merge,
    Seq,
    Spawn,
    Tensor,
    eval_gcq,
    parse_gcq,
    print_gcq,
    seq,
)
from cqgraph.hypergraph import Hypergraph, validate_morphism
from cqgraph.sigmodel import Signature
from cqgraph.translate import theta

SIG = Signature({"R": (1, 1), "S": (2, 1)})
BONE = Seq(Spawn(), Discard())


def intro_pair():
    ccq_sig = Signature({"R": (2, 0)})
    phi = theta(parse_ccq("2 |- exists z0. (x0 = x1) /\\ R(x0, z0)", ccq_sig))
    psi = theta(parse_ccq(
        "2 |- exists z0. exists z1. R(x0,z0) /\\ R(x1,z0) /\\ R(x0,z1) /\\ R(x1,z1)",
        ccq_sig))
    return phi, psi


def test_intro_inclusion_with_witness():
    phi, psi = intro_pair()
    verdict = decide_inclusion(phi, psi)
    assert verdict.holds
    lo, hi = term_to_cospan(phi), term_to_cospan(psi)
    witness = verdict.witness
    assert validate_morphism(witness, hi.apex, lo.apex)
    # the witness commutes with both interface legs
    assert tuple(witness.vmap[v] for v in hi.iota) == lo.iota
    assert tuple(witness.vmap[v] for v in hi.omega) == lo.omega


def test_intro_refutation_with_countermodel():
    phi, psi = intro_pair()
    verdict = decide_inclusion(psi, phi)
    assert not verdict.holds
    counter = verdict.countermodel
    # the countermodel is the lhs's own natural model and separates the two
    assert counter.size == term_to_cospan(psi).apex.vcount
    assert not eval_gcq(psi, counter).pairs <= eval_gcq(phi, counter).pairs


def test_bone_below_unit_but_not_conversely():
    assert decide_inclusion(BONE, Id0()).holds
    assert not decide_inclusion(Id0(), BONE).holds


def test_equivalence_examples():
    c = Seq(Gen("R", 1, 1), Copy())
    assert decide_equivalence(c, c).holds
    assert decide_equivalence(Seq(Copy(), Merge()), Id1()).holds
    assert not decide_equivalence(BONE, Id0()).holds


def test_equivalence_compiles_each_side_once(monkeypatch):
    compiled = []

    def counting(t):
        compiled.append(t)
        return term_to_cospan(t)

    monkeypatch.setattr("cqgraph.containment.term_to_cospan", counting)
    c = Seq(Gen("R", 1, 1), Copy())
    for lhs, rhs, holds in [(c, c, True), (BONE, Id0(), False),
                            (parse_ccq(clique(4, False), CCQ_SIG),
                             parse_ccq(clique(4, True), CCQ_SIG), True)]:
        compiled.clear()
        verdict = decide_equivalence(lhs, rhs)
        assert compiled == [lhs, rhs]
        assert verdict.holds == holds
        assert verdict.forward == decide_inclusion(lhs, rhs)
        assert verdict.backward == decide_inclusion(rhs, lhs)


def test_model_of_a_hypergraph_checks_the_signature():
    with pytest.raises(ModelError):
        hypergraph_as_model(Hypergraph(2, {"R": [((0,), (1,))]}), Signature({"R": (2, 0)}))


def test_sort_mismatch_is_an_error():
    with pytest.raises(SortError):
        decide_inclusion(Id1(), Id0())
    with pytest.raises(SortError):
        natural_model_check(Id1(), Id0())


CCQ_SIG = Signature({"R": (2, 0)})


def test_deep_clique_formulas_are_equivalent():
    # K8 with x0 free: 56 atoms, a derivation about a thousand rules deep
    k8 = theta(parse_ccq(clique(8, False), CCQ_SIG))
    k8_reversed = theta(parse_ccq(clique(8, True), CCQ_SIG))
    assert decide_equivalence(k8, k8_reversed).holds


def test_deep_clique_term_prints_and_parses_back():
    # theta(K8) prints with parentheses nested about a thousand deep
    k8 = theta(parse_ccq(clique(8, False), CCQ_SIG))
    assert parse_gcq(print_gcq(k8), CCQ_SIG) == k8


def test_long_chain_is_included_in_itself():
    chain = seq(*([Gen("R", 1, 1)] * 1200))
    assert decide_inclusion(chain, chain).holds
    # each box's image is read off the edge index: no n^2/2 scan over images
    assert inclusion_steps(chain, chain) <= 2400


def test_hypergraph_as_model():
    g = Hypergraph(2, {"R": [((0,), (1,)), ((0,), (1,))]})
    model = hypergraph_as_model(g, SIG)
    assert model.size == 2
    assert model.rho["R"] == frozenset({((0,), (1,))})  # duplicates collapse
    assert model.rho["S"] == frozenset()
    assert hypergraph_as_model(Hypergraph(0), SIG).size == 0


def test_natural_model_reflexive(rng):
    for _ in range(25):
        c = random_term(rng, SIG, max_nodes=8)
        assert natural_model_check(c, c)


def test_natural_model_intro_pair():
    phi, psi = intro_pair()
    assert natural_model_check(phi, psi)
    assert not natural_model_check(psi, phi)


def test_natural_model_unit_vs_bone():
    assert not natural_model_check(Id0(), BONE)
    assert natural_model_check(BONE, Id0())


def test_span_semantics_of_a_box(rng):
    for _ in range(15):
        g = random_hypergraph(rng, SIG, max_v=3, max_edges=3)
        counts = span_semantics(Gen("R", 1, 1), g)
        expected = {}
        for src, tgt in g.edges.get("R", ()):
            expected[(src, tgt)] = expected.get((src, tgt), 0) + 1
        assert counts == expected


def test_span_semantics_identity_diagonal():
    g = Hypergraph(3)
    counts = span_semantics(Id1(), g)
    assert counts == {((v,), (v,)): 1 for v in range(3)}


def test_span_semantics_support_is_relational_evaluation(rng):
    for _ in range(25):
        t = random_term(rng, SIG, max_nodes=7, width_cap=4)
        g = random_hypergraph(rng, SIG, max_v=3, max_edges=2)
        counts = span_semantics(t, g)
        rel = eval_gcq(t, hypergraph_as_model(g, SIG))
        assert frozenset(counts) == rel.pairs


def test_span_semantics_multiplies_over_tensor(rng):
    for _ in range(10):
        t = random_term(rng, SIG, max_nodes=4, width_cap=3)
        u = random_term(rng, SIG, max_nodes=4, width_cap=3)
        g = random_hypergraph(rng, SIG, max_v=2, max_edges=2)
        ct, cu = span_semantics(t, g), span_semantics(u, g)
        combined = span_semantics(Tensor(t, u), g)
        expected = {}
        for (a1, b1), k1 in ct.items():
            for (a2, b2), k2 in cu.items():
                expected[(a1 + a2, b1 + b2)] = k1 * k2
        assert combined == expected


def test_oracle_agreement(rng):
    pairs = random_term_pairs(rng, SIG, want=60, max_nodes=8)
    for c, d in pairs:
        assert decide_inclusion(c, d).holds == natural_model_check(c, d)


def test_soundness_on_models(rng):
    pairs = random_term_pairs(rng, SIG, want=40, max_nodes=8)
    for c, d in pairs:
        if not decide_inclusion(c, d).holds:
            continue
        for model in model_battery(SIG, rng, sizes=(1, 2, 3)):
            assert eval_gcq(c, model).pairs <= eval_gcq(d, model).pairs


def test_refutation_reports_separating_model(rng):
    pairs = random_term_pairs(rng, SIG, want=40, max_nodes=8)
    seen = 0
    for c, d in pairs:
        verdict = decide_inclusion(c, d)
        if verdict.holds:
            continue
        seen += 1
        counter = verdict.countermodel
        assert counter.size <= term_to_cospan(c).apex.vcount
        cosp = term_to_cospan(c)
        assert (cosp.iota, cosp.omega) in eval_gcq(c, counter)
        assert (cosp.iota, cosp.omega) not in eval_gcq(d, counter)
    assert seen > 0


def test_inclusion_is_a_preorder(rng):
    terms = [t for t, _ in random_term_pairs(rng, SIG, want=30, max_nodes=6)]
    for t in terms[:10]:
        assert decide_inclusion(t, t).holds
    # transitivity with composed witnesses
    checked = 0
    pairs = random_term_pairs(rng, SIG, want=60, max_nodes=6)
    for c, d in pairs:
        v1 = decide_inclusion(c, d)
        v2 = decide_inclusion(d, c)
        if not (v1.holds and v2.holds):
            continue
        checked += 1
        # witnesses compose: apex(c) <- apex(d) <- apex(c)
        loop = compose_morphisms(v2.witness, v1.witness)
        assert validate_morphism(loop, term_to_cospan(c).apex, term_to_cospan(c).apex)
    assert checked > 0


def test_decisions_are_precongruent(rng):
    # c <= c' and d <= d' lift through both operations
    cases = [(BONE, Id0()), (Seq(Merge(), Copy()), Tensor(Id1(), Id1())),
             (Id1(), Seq(Discard(), Spawn()))]
    for c, c2 in cases:
        for d, d2 in cases:
            assert decide_inclusion(Tensor(c, d), Tensor(c2, d2)).holds
            if c.sort.m == d.sort.n:
                assert decide_inclusion(Seq(c, d), Seq(c2, d2)).holds


def test_budget_exhaustion_is_distinct_from_false():
    c, d = (theta(parse_ccq(clique(n, False), CCQ_SIG)) for n in (4, 5))
    assert inclusion_steps(c, d) == 3
    with pytest.raises(BudgetExhausted):
        decide_inclusion(c, d, budget=2)
    verdict = decide_inclusion(c, d)  # the unbudgeted run settles it
    assert not verdict.holds


def test_verdict_json_shape():
    phi, psi = intro_pair()
    doc = decide_inclusion(phi, psi).to_json_dict()
    assert doc["holds"] and "vmap" in doc["witness"]
    doc = decide_inclusion(psi, phi).to_json_dict()
    assert not doc["holds"] and "carrier" in doc["countermodel"]


def test_a_symbol_at_two_sorts_across_the_sides_is_a_signature_error():
    # the search finds no morphism between edges of two sorts, so the
    # countermodel's signature reports the clash, whichever side is larger
    wide = seq(Tensor(Tensor(Spawn(), Spawn()), Spawn()), Gen("R", 3, 0))
    narrow = seq(Spawn(), Gen("R", 1, 0))
    for c, d in ((wide, narrow), (narrow, wide)):
        with pytest.raises(SignatureError, match="'R' used at two sorts"):
            decide_inclusion(c, d)
