"""What the algebra builds without re-checking passes its checked constructor.

``eval_gcq``'s relations, compiled apexes and cospans, the reference cospan
algebra, ``hypergraph_as_model``, the models of ``load_model``,
``random_model`` and ``lambda_model``, the signatures read off terms and
apexes (``term_signature``, ``Hypergraph.signature``, ``merged``) and the
judgments of ``parse_ccq`` build their values through
``sigmodel._trusted``.  Each value must come back unchanged, down to the
types of its fields, from the public constructor that checks it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_judgment, random_term
from cqgraph.ccq import CcqJudgment, parse_ccq, print_ccq
from cqgraph.containment import hypergraph_as_model
from cqgraph.cospan import Cospan, compose_cospans, identity_cospan, tensor_cospans, term_to_cospan
from cqgraph.gcq import Seq, Tensor, eval_gcq, postorder, term_signature
from cqgraph.hypergraph import Hypergraph, pushout
from cqgraph.sigmodel import Relation, RelModel, Signature, dump_model, load_model, random_model
from cqgraph.translate import lambda_model

SIG = Signature({"R": (1, 1), "S": (2, 1), "Q": (0, 2), "U": (2, 0)})
CCQ_SIG = Signature({"R": (2, 0), "P": (1, 0), "T": (3, 0)})


def same(a, b):
    """Equal, with equal hashes, field types (a ``Sort`` is not a plain
    tuple) and dict key orders, which output follows."""
    assert a == b
    if type(a).__hash__ is not None:
        assert hash(a) == hash(b)
    assert vars(a).keys() == vars(b).keys()
    for key, value in vars(a).items():
        assert type(value) is type(vars(b)[key])
        if isinstance(value, dict):
            assert list(value) == list(vars(b)[key])


def assert_checked_hypergraph(g: Hypergraph):
    same(Hypergraph(g.vcount, g.edges), g)


def assert_checked_cospan(c: Cospan):
    assert_checked_hypergraph(c.apex)
    same(Cospan(c.n, c.m, c.apex, c.iota, c.omega), c)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=150, deadline=None)
def test_trusted_values_pass_their_constructors(seed):
    rng = random.Random(seed)
    t = random_term(rng, SIG, max_nodes=10)
    models = [random_model(SIG, size, rng) for size in (0, 1, 2, 3)]
    cospans = {}
    for u in postorder(t):
        c = cospans[id(u)] = term_to_cospan(u)
        assert_checked_cospan(c)
        if isinstance(u, (Seq, Tensor)):
            lhs, rhs = cospans[id(u.lhs)], cospans[id(u.rhs)]
            glued = (compose_cospans if isinstance(u, Seq) else tensor_cospans)(lhs, rhs)
            assert_checked_cospan(glued)
            assert_checked_hypergraph(pushout((), (), lhs.apex, rhs.apex)[0])
        for model in models:
            r = eval_gcq(u, model)
            same(Relation(r.sort, r.carrier_size, r.pairs), r)
    assert_checked_cospan(identity_cospan(rng.randint(0, 3)))

    apex = cospans[id(t)].apex
    model = hypergraph_as_model(apex, SIG)
    carrier = [f"v{i}" for i in range(apex.vcount)]
    checked = RelModel(SIG, carrier, {sym: rows for sym, rows in apex.edges.items()})
    same(model, checked)
    for name in SIG:
        same(checked.relation(name), model.relation(name))
    signatures = [term_signature(t), apex.signature, SIG]
    signatures += [a.merged(b) for a in signatures for b in signatures]
    for sig in signatures:
        same(Signature(dict(sig.items())), sig)

    j = random_judgment(rng, CCQ_SIG)
    assert_checked_cospan(term_to_cospan(j))
    parsed = parse_ccq(print_ccq(j), CCQ_SIG)
    same(CcqJudgment(parsed.context, parsed.formula), parsed)


def assert_checked_model(model: RelModel):
    same(RelModel(model.signature, model.carrier, model.rho), model)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_built_models_pass_the_checked_constructor(seed):
    rng = random.Random(seed)
    for size in (0, 1, 2, 3):
        model = random_model(SIG, size, rng)
        assert_checked_model(model)
        assert_checked_model(lambda_model(model))
        loaded = load_model(dump_model(model), SIG)
        assert_checked_model(loaded)
        same(loaded, model)
