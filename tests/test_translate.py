import hashlib
import random
import time

import pytest

from conftest import clique, model_battery, random_cospan, random_judgment, random_term
from cqgraph.ccq import (
    CcqJudgment,
    Conj,
    Eq,
    Exists,
    RelAtom,
    Top,
    derive,
    eval_ccq,
    parse_ccq,
    parse_ccq_two_sided,
)
from cqgraph.cospan import cospan_to_term
from cqgraph.errors import SignatureError
from cqgraph.gcq import (
    Copy,
    Discard,
    Gen,
    Id0,
    Id1,
    Merge,
    Seq,
    Spawn,
    eval_gcq,
    postorder,
    print_gcq,
    seq,
)
from cqgraph.sigmodel import RelModel, Signature, Sort
from cqgraph.translate import (
    TwoSidedJudgment,
    lambda_model,
    lambda_term,
    relational_signature,
    theta,
    theta_model,
)

SIG = Signature({"R": (2, 0), "S": (1, 0)})
DIAG_SIG = Signature({"R": (1, 1), "S": (2, 1)})


def test_theta_top():
    assert theta(CcqJudgment(0, Top())) == Id0()


def test_theta_equality_is_the_cup():
    assert theta(CcqJudgment(2, Eq(0, 1))) == Seq(Merge(), Discard())


def test_theta_exists_top():
    j = CcqJudgment(0, Exists(Top()))
    assert theta(j) == Seq(Spawn(), Discard())


def test_theta_atom():
    assert theta(CcqJudgment(2, RelAtom("R", (0, 1)))) == Gen("R", 2, 0)


def test_theta_sort_is_context_by_zero(rng):
    for _ in range(30):
        j = random_judgment(rng, SIG)
        assert theta(j).sort == Sort(j.context, 0)


def test_lambda_base_cases():
    assert lambda_term(Copy()) == TwoSidedJudgment(1, 2, Conj(Eq(0, 1), Eq(0, 2)))
    assert lambda_term(Id0()) == TwoSidedJudgment(0, 0, Top())
    assert lambda_term(Id1()) == TwoSidedJudgment(1, 1, Eq(0, 1))
    assert str(lambda_term(Copy())) == "1,2 |- (x0 = y0) /\\ (x0 = y1)"


def test_lambda_of_bone_and_unit():
    bone = Seq(Spawn(), Discard())
    assert lambda_term(bone) == TwoSidedJudgment(0, 0, Exists(Conj(Top(), Top())))
    assert str(lambda_term(bone)) == "0,0 |- exists z0. top /\\ top"
    assert lambda_term(Id0()) == TwoSidedJudgment(0, 0, Top())


def test_lambda_theta_of_equality():
    t = theta(CcqJudgment(2, Eq(0, 1)))
    out = lambda_term(t)
    expected = Exists(Conj(Conj(Eq(0, 2), Eq(1, 2)), Top()))
    assert out == TwoSidedJudgment(2, 0, expected)
    assert str(out) == "2,0 |- exists z0. ((x0 = z0) /\\ (x1 = z0)) /\\ top"


def test_model_translation_rebrackets():
    model = RelModel(DIAG_SIG, ["a", "b"], {"R": [((0,), (1,))], "S": [((0, 1), (0,))]})
    flat = lambda_model(model)
    assert flat.signature.sort("R") == Sort(2, 0)
    assert flat.rho["R"] == frozenset({((0, 1), ())})
    assert flat.rho["S"] == frozenset({((0, 1, 0), ())})


def test_model_translation_round_trip(rng):
    for size in (0, 1, 2):
        model = RelModel(SIG, [f"e{i}" for i in range(size)],
                         {"R": [((i, i), ()) for i in range(size)]})
        assert lambda_model(theta_model(model)) == model


def test_theta_preserves_semantics(rng):
    # satisfaction of the judgment matches the compiled term paired with
    # the empty output tuple
    for _ in range(40):
        j = random_judgment(rng, SIG, max_ctx=3, max_depth=4)
        t = theta(j)
        for model in model_battery(SIG, rng, sizes=(1, 2, 2, 3)):
            left = eval_ccq(j, model)
            rel = eval_gcq(t, theta_model(model))
            assert left == frozenset(a for a, _ in rel.pairs)


def test_lambda_preserves_semantics(rng):
    for _ in range(30):
        t = random_term(rng, DIAG_SIG, max_nodes=8, width_cap=4)
        tsj = lambda_term(t)
        assert (tsj.left, tsj.right) == tuple(t.sort)
        for model in model_battery(DIAG_SIG, rng, sizes=(1, 2, 2)):
            rel = eval_gcq(t, model)
            flat = eval_ccq(tsj.as_judgment(), lambda_model(model))
            assert flat == frozenset(a + b for a, b in rel.pairs)


def test_lambda_after_theta_preserves_semantics(rng):
    for _ in range(30):
        j = random_judgment(rng, SIG, max_ctx=3, max_depth=3)
        round_trip = lambda_term(theta(j)).as_judgment()
        for model in model_battery(SIG, rng, sizes=(1, 2, 2)):
            translated = lambda_model(theta_model(model))
            assert eval_ccq(j, model) == eval_ccq(round_trip, translated)


def test_intro_example_via_theta():
    phi = parse_ccq("2 |- exists z0. (x0 = x1) /\\ R(x0, z0)", SIG)
    model = RelModel(SIG, ["a", "b"], {"R": [((0, 0), ())]})
    rel = eval_gcq(theta(phi), theta_model(model))
    assert frozenset(a for a, _ in rel.pairs) == frozenset({(0, 0)})


def test_relational_signature():
    assert relational_signature(DIAG_SIG) == Signature({"R": (2, 0), "S": (3, 0)})


def test_two_sided_judgments_reparse(rng):
    # the printed form of any translated term parses back structurally
    flat = relational_signature(DIAG_SIG)
    for _ in range(40):
        t = random_term(rng, DIAG_SIG, max_nodes=8, width_cap=4)
        tsj = lambda_term(t)
        left, right, formula = parse_ccq_two_sided(str(tsj), flat)
        assert (left, right, formula) == (tsj.left, tsj.right, tsj.formula)


def test_theta_of_a_long_path():
    body = " /\\ ".join(f"R(z{i}, z{i + 1})" for i in range(200))
    j = parse_ccq("0 |- " + "".join(f"exists z{i}. " for i in range(201)) + body, SIG)
    t = theta(j)
    assert t.sort == Sort(0, 0)
    assert sum(isinstance(u, Gen) for u in postorder(t)) == 200


def test_theta_builds_each_identity_bundle_once():
    # an n-atom path 2 |- exists z1. ... R(x0, z1) /\ ... /\ R(z(n-1), x1):
    # read as a tree, its term has 71,081, 282,181 and 1,124,381 nodes at
    # n = 100, 200 and 400, as each rule holds an identity as wide as its
    # context; built once per call, those bundles leave linearly many nodes
    def distinct_nodes(t):
        seen, todo = set(), [t]
        while todo:
            u = todo.pop()
            if id(u) not in seen:
                seen.add(id(u))
                todo += u.children
        return len(seen)

    terms = []
    for n in (100, 200, 400):
        names = ["x0"] + [f"z{i}" for i in range(1, n)] + ["x1"]
        terms.append(theta(parse_ccq("2 |- " + "".join(f"exists {v}. " for v in names[1:-1])
                                     + " /\\ ".join(f"R({a}, {b})" for a, b in zip(names, names[1:])),
                                     SIG)))
    assert [distinct_nodes(t) for t in terms] == [2_376, 4_776, 9_576]
    assert len(postorder(terms[0])) == 71_081  # the same tree as unshared


def test_theta_of_a_long_conjunction_of_truths():
    j = parse_ccq("0 |- " + " /\\ ".join(["top"] * 600), SIG)
    assert theta(j) == Id0()


def test_lambda_of_a_long_chain_prints_and_parses_back():
    tsj = lambda_term(seq(*([Gen("R", 1, 1)] * 600)))
    assert (tsj.left, tsj.right) == (1, 1)
    flat = relational_signature(DIAG_SIG)
    assert parse_ccq_two_sided(str(tsj), flat) == (1, 1, tsj.formula)


def test_lambda_text_of_a_chain_grows_about_linearly():
    # the text of each nested exists is written once, not copied again by
    # every binder around it
    best = {}
    for n in (8_000, 32_000):
        t = seq(*([Gen("R", 1, 1)] * n))
        for _ in range(3):
            start = time.perf_counter()
            text = str(lambda_term(t))
            elapsed = time.perf_counter() - start
            best[n] = min(best.get(n, elapsed), elapsed)
        assert text.startswith("1,1 |- exists z0. (exists z1. ")
        assert text.count("R(") == n
    assert best[32_000] < 8 * best[8_000], best


def test_translations_build_each_formula_once(rng):
    k8 = Signature({"R": (2, 0)})
    cases = [parse_ccq(clique(8, reverse), k8) for reverse in (False, True)]
    cases += [random_judgment(rng, SIG, max_ctx=4, max_depth=6) for _ in range(60)]
    for j in cases:
        assert derive(j).conclusion == j
        assert theta(j).sort == Sort(j.context, 0)
    tsj = lambda_term(seq(*([Gen("R", 1, 1)] * 1200)))
    assert (tsj.left, tsj.right) == (1, 1)
    names = ["x0"] + [f"z{i}" for i in range(999)] + ["x1"]
    path = parse_ccq("2 |- " + "".join(f"exists {v}. " for v in names[1:-1])
                     + " /\\ ".join(f"R({a}, {b})" for a, b in zip(names, names[1:])), k8)
    d = derive(path)
    assert len(postorder(d)) == 7993
    assert d.conclusion == path


def test_translations_print_the_pinned_bytes():
    # SHA-256 over derive's and θ's output for 2,000 seeded judgments, and
    # over the decompiled term of 1,000 seeded cospans: every swap, merge
    # and weakening stays where it is
    rng = random.Random(35)
    sig = Signature({"R": (2, 0), "S": (1, 0), "T": (3, 0)})
    digest = hashlib.sha256()
    for _ in range(2000):
        j = random_judgment(rng, sig, max_ctx=4)
        digest.update(f"{print_gcq(theta(j))}\n{derive(j)!r}\n".encode())
    assert digest.hexdigest() == "70f5130a811c0977ae10a8d2c29a6e5ba6531fdcc241322363b0395cbc6468e0"
    rng = random.Random(35)
    sig = Signature({"R": (2, 0), "S": (1, 1), "Q": (0, 2)})
    digest = hashlib.sha256()
    for _ in range(1000):
        digest.update(f"{cospan_to_term(random_cospan(rng, sig))!r}\n".encode())
    assert digest.hexdigest() == "e88389a5d20833940de6a0883a7ef5d99db27b0cd2a18062a855eb94baf7bf4b"


def test_theta_model_hands_back_the_model():
    model = RelModel(SIG, ["a", "b"], {"R": [((0, 1), ())]})
    assert theta_model(model) is model
    wide = RelModel(Signature({"R": (1, 1)}), ["a"])
    with pytest.raises(SignatureError, match=r"^theta_model needs a relational \(coarity-0\) signature$"):
        theta_model(wide)
