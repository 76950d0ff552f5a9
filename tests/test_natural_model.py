"""A judgment compiles straight to its natural model, and theta preserves it.

``term_to_cospan(j)`` reads the natural model of a judgment; the paper's
translation ``theta`` gives a term whose compiled cospan must be isomorphic
to it under the free-variable pins, and inclusion decided on judgments must
agree with inclusion decided on their theta terms.
"""

from conftest import clique, random_formula, random_judgment
from cqgraph.ccq import CcqJudgment, Conj, eval_ccq, parse_ccq
from cqgraph.containment import decide_inclusion
from cqgraph.cospan import boundary_pins, is_isomorphic_cospan, term_to_cospan
from cqgraph.hypergraph import validate_morphism
from cqgraph.sigmodel import Signature, Sort
from cqgraph.translate import theta

SIG = Signature({"R": (2, 0), "P": (1, 0), "T": (3, 0)})


def test_judgment_compiles_to_its_natural_model():
    j = parse_ccq("2 |- exists z0. (x0 = x1) /\\ R(x0, z0)", SIG)
    c = term_to_cospan(j)
    assert c.sort == Sort(2, 0)
    assert (c.iota, c.omega) == ((0, 0), ())
    assert (c.apex.vcount, c.apex.edges) == (2, {"R": (((0, 1), ()),)})


def test_theta_preserves_the_natural_model(rng):
    judgments = [random_judgment(rng, SIG) for _ in range(500)]
    judgments += [parse_ccq(clique(n, reverse), SIG) for n in range(4, 9)
                  for reverse in (False, True)]
    for j in judgments:
        assert is_isomorphic_cospan(term_to_cospan(theta(j)), term_to_cospan(j)), j


def _check_verdict(c, d):
    """The verdict on c <= d, with its witness or countermodel checked."""
    verdict = decide_inclusion(c, d)
    ca, da = term_to_cospan(c), term_to_cospan(d)
    if verdict.holds:
        assert validate_morphism(verdict.witness, da.apex, ca.apex)
        pins = boundary_pins(da, ca)
        assert all(verdict.witness.vmap[v] == w for v, w in pins.items())
    elif isinstance(c, CcqJudgment):
        # the natural model of c, at its free variables, does not satisfy d
        assert ca.iota not in eval_ccq(d, verdict.countermodel)
    return verdict.holds


def test_judgments_decide_like_their_theta_terms(rng):
    held = 0
    for _ in range(500):
        j1 = random_judgment(rng, SIG)
        extra = random_formula(rng, SIG, j1.context, rng.randint(0, 5))
        # a conjunct added half the time makes j2 <= j1 hold
        j2 = CcqJudgment(j1.context, Conj(j1.formula, extra) if rng.random() < 0.5 else extra)
        for c, d in ((j1, j2), (j2, j1)):
            holds = _check_verdict(c, d)
            assert holds == _check_verdict(theta(c), theta(d)), (c, d)
            held += holds
    assert held >= 250
