import json
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dump_signature, identity_relation, model_battery, refuses_5000_digits, unit_relation,
)
from cqgraph.errors import ModelError, SignatureError
from cqgraph.gcq import _KEYWORDS, Gen, Tensor, term_signature
from cqgraph.sigmodel import (
    Relation,
    RelModel,
    Signature,
    Sort,
    dump_model,
    load_model,
    load_signature,
    random_model,
    relation_compose,
    relation_tensor,
)


def test_load_signature_basic():
    sig = load_signature('{"R": [2, 1], "S": [1, 0]}')
    assert sig.sort("R") == Sort(2, 1)
    assert sig.sort("S") == Sort(1, 0)
    assert list(sig) == ["R", "S"]


def test_signature_repr_lists_each_sort():
    assert repr(Signature({"R": (2, 0), "S": (1, 1)})) == "Signature({R:2,0, S:1,1})"


def test_load_signature_empty():
    assert len(load_signature("{}")) == 0


def test_load_signature_duplicate_symbol():
    with pytest.raises(SignatureError):
        load_signature('{"R": [2, 1], "R": [1, 1]}')


def test_load_signature_negative_arity():
    with pytest.raises(SignatureError):
        load_signature('{"R": [-1, 0]}')


def test_load_signature_malformed():
    with pytest.raises(SignatureError):
        load_signature("[1, 2]")
    with pytest.raises(SignatureError):
        load_signature("{nope")


def test_signatures_read_off_terms_keep_their_errors():
    with pytest.raises(SignatureError, match="used at two sorts"):
        Signature({"R": (1, 1)}).merged(Signature({"R": (2, 0)}))
    with pytest.raises(SignatureError, match="used at two sorts"):
        term_signature(Tensor(Gen("R", 1, 1), Gen("R", 2, 1)))
    with pytest.raises(SignatureError, match="non-empty"):
        term_signature(Gen("", 1, 1))
    merged = term_signature(Tensor(Gen("S", 1, 0), Gen("R", 1, 1))).merged(Signature({"P": (0, 2)}))
    assert list(merged.items()) == [("P", Sort(0, 2)), ("R", Sort(1, 1)), ("S", Sort(1, 0))]


@pytest.mark.parametrize("name", ["a b", "9", "9R", "R'", "\u00e9", "R\n", " R", "a-b"])
def test_names_that_text_cannot_spell_are_refused(name):
    # neither term nor formula text reads such a name back as one symbol
    message = f"^symbol {re.escape(repr(name))} is not an identifier$"
    with pytest.raises(SignatureError, match=message):
        Signature({"R": (1, 0), name: (1, 0)})
    with pytest.raises(SignatureError, match=message):
        load_signature(json.dumps({name: [1, 0]}))
    with pytest.raises(SignatureError, match=message):
        Gen(name, 1, 1)


def test_names_of_letters_digits_and_underscores_stay_legal():
    names = ["top", "exists", "_", "_9", "R2D2", "copy_", "ID"]
    assert list(Signature({name: (1, 1) for name in names})) == sorted(names)
    assert [Gen(name, 1, 1).name for name in names] == names


@refuses_5000_digits
def test_numbers_too_long_for_int_are_load_errors():
    nines = "9" * 5000
    with pytest.raises(SignatureError, match="^malformed signature JSON: "):
        load_signature(f'{{"R": [1, {nines}]}}')
    with pytest.raises(ModelError, match="^malformed model JSON: "):
        load_model(f'{{"carrier": [], "size": {nines}}}', Signature())


@pytest.mark.parametrize("name", ["copy", "discard", "merge", "spawn", "id", "id0", "swap"])
def test_signatures_reject_the_names_of_wiring_constants(name):
    # term text would read a box of that name as the constant
    with pytest.raises(SignatureError, match=f"symbol '{name}' is the name of a wiring constant"):
        Signature({"R": (2, 0), name: (1, 0)})
    with pytest.raises(SignatureError, match=f"'{name}'"):
        load_signature(json.dumps({name: [1, 1]}))
    with pytest.raises(SignatureError, match=f"^symbol '{name}' is the name of a wiring constant$"):
        Gen(name, 1, 1)  # it would print as the constant
    assert _KEYWORDS[name].name == name  # the constant the term parser reads by that name
    assert Signature({name + "_": (1, 0), name.upper(): (1, 0)}).sort(name + "_") == Sort(1, 0)


def test_load_model_basic():
    sig = load_signature('{"R": [2, 1]}')
    model = load_model('{"carrier": ["a", "b"], "relations": {"R": [[["a","b"],["a"]]]}}', sig)
    assert model.carrier == ("a", "b")
    assert model.rho["R"] == frozenset({((0, 1), (0,))})
    assert load_model('{"carrier": ["a"]}', sig).rho == {"R": frozenset()}  # no "relations"


def test_load_model_empty_carrier_is_legal():
    sig = load_signature('{"R": [2, 1]}')
    model = load_model('{"carrier": [], "relations": {}}', sig)
    assert model.size == 0
    assert model.rho["R"] == frozenset()


def test_load_model_unknown_element():
    sig = load_signature('{"R": [2, 0]}')
    with pytest.raises(ModelError):
        load_model('{"carrier": ["a"], "relations": {"R": [[["a","c"],[]]]}}', sig)


def test_load_model_unknown_symbol_and_arity_mismatch():
    sig = load_signature('{"R": [2, 0]}')
    with pytest.raises(SignatureError):
        load_model('{"carrier": ["a"], "relations": {"Q": []}}', sig)
    with pytest.raises(ModelError):
        load_model('{"carrier": ["a"], "relations": {"R": [[["a"],[]]]}}', sig)


def test_load_signature_rejects_boolean_arities():
    with pytest.raises(SignatureError):
        load_signature('{"P": [true, false]}')


@pytest.mark.parametrize("symbols", [
    {"R": (1.5, 0)},  # an arity not an int
    {"R": (True, 0)},
    {"R": (1, False)},
    {"R": ("1", 0)},
    {1: (1, 0)},  # a name not a string
    {1: (1, 0), "R": (1, 0)},
])
def test_signature_rejects_non_natural_sorts_and_non_string_names(symbols):
    with pytest.raises(SignatureError):
        Signature(symbols)


@pytest.mark.parametrize("pairs", [[((1.0,), ())], [((True,), ())], [(("0",), ())]])
def test_relation_rejects_elements_that_are_not_carrier_indices(pairs):
    with pytest.raises(ModelError):
        Relation(Sort(1, 0), 2, pairs)


@pytest.mark.parametrize("pairs", [[((0.0,), ())], [((False,), ())], [(("a",), ())]])
def test_model_rejects_elements_that_are_not_carrier_indices(pairs):
    with pytest.raises(ModelError):
        RelModel(Signature({"R": (1, 0)}), ["a"], {"R": pairs})


@pytest.mark.parametrize("sort, size, pairs, message", [
    ((1.5, 0), 2, [], "sort (1.5, 0) must be a pair of naturals"),
    (Sort(-1, 0), 2, [], "sort Sort(n=-1, m=0) must be a pair of naturals"),
    ((1, 0, 0), 2, [], "sort (1, 0, 0) must be a pair of naturals"),
    (Sort(1, 0), -1, [], "carrier size -1 must be a natural"),
    (Sort(1, 0), 1.5, [((1,), ())], "carrier size 1.5 must be a natural"),
    (Sort(1, 0), True, [], "carrier size True must be a natural"),
])
def test_relation_rejects_a_bad_sort_or_carrier_size(sort, size, pairs, message):
    with pytest.raises(ModelError) as caught:
        Relation(sort, size, pairs)
    assert str(caught.value) == message


@pytest.mark.parametrize("carrier", [[1, 2], ["a", 0], [None]])
def test_model_rejects_carrier_ids_that_are_not_strings(carrier):
    with pytest.raises(ModelError) as caught:
        RelModel(Signature({"R": (1, 0)}), carrier)
    assert str(caught.value) == "carrier must be a list of string ids"


@pytest.mark.parametrize("relations", [
    '[1]',  # relations not an object
    '{"R": 5}',  # a relation not a list
    '{"R": [[1, ["a"]]]}',  # a tuple side not a list
    '{"P": [["ab", []]]}',  # a string is not a tuple of ids
    '{"P": [[[["a"]], []]]}',  # an element not a string id
])
def test_load_model_rejects_malformed_structure(relations):
    sig = load_signature('{"R": [1, 1], "P": [2, 0]}')
    with pytest.raises(ModelError):
        load_model('{"carrier": ["a", "b"], "relations": %s}' % relations, sig)


@pytest.mark.parametrize("carrier, relations, error, message", [
    # each input is malformed twice; the error named is the one raised first
    ('["a", "a"]', '{"P": [[["a", "c"], []]]}', ModelError, "element 'c' not in carrier"),
    ('["a", "a"]', '{"Q": [], "P": [[["a", "a"], []]]}', ModelError, "carrier ids must be unique"),
    ('["a"]', '{"Q": [], "P": [5]}', ModelError, "each tuple of 'P' must be a pair [ins, outs]"),
    ('["a"]', '{"P": [[["a", "a"], []], ["a"]], "Q": []}', ModelError,
     "each tuple of 'P' must be a pair [ins, outs]"),
    ('["a"]', '{"Q": [], "P": [[["a"], []]]}', SignatureError, "unknown symbol 'Q' in model"),
    # two symbols at the wrong arity: the first in signature order is named
    ('["a"]', '{"R": [[["a"], []]], "P": [[["a"], []]]}', ModelError,
     "tuple for 'P' does not match sort Sort(n=2, m=0)"),
    ('["a"]', '{"P": [[["a"], []]], "R": [[["a", "z"], ["a"]]]}', ModelError,
     "element 'z' not in carrier"),
    ('["a"]', '{"P": [[["a", 1], []]]}', ModelError, "element 1 not in carrier"),
    ('["a"]', '{"P": [[["a", true], []]]}', ModelError, "element True not in carrier"),
    ('["a"]', '{"P": [[[null, "a"], []]]}', ModelError, "element None not in carrier"),
    ('["a"]', '{"R": [[["a"], [[1]]]]}', ModelError, "element [1] not in carrier"),
    # only a missing "relations" key means no relations
    *(('["a", "a"]', relations, ModelError,
       "relations must be an object mapping symbols to tuple lists")
      for relations in ("[]", "false", "0", '""', "null")),
    # a symbol listed twice is refused as the JSON is read, not kept at its last list
    ('["a", "a"]', '{"R": [[["a"], ["a"]]], "R": []}', ModelError, "duplicate key 'R'"),
    ('["a"]', '{"R": [], "P": [5], "R": [[["a"], ["z"]]]}', ModelError, "duplicate key 'R'"),
])
def test_load_model_names_the_first_of_two_faults(carrier, relations, error, message):
    sig = load_signature('{"R": [1, 1], "P": [2, 0]}')
    with pytest.raises(error) as caught:
        load_model('{"carrier": %s, "relations": %s}' % (carrier, relations), sig)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("build, error, message", [
    (lambda sig: RelModel(sig, ["a", "a"]), ModelError, "carrier ids must be unique"),
    (lambda sig: RelModel(sig, ["a"], {"Q": []}), SignatureError, "unknown symbol 'Q' in model"),
    (lambda sig: RelModel(sig, ["a"], {"R": [((0,), (0,))]}), ModelError,
     "tuple for 'R' does not match sort Sort(n=1, m=0)"),
    (lambda sig: load_model("[]", sig), ModelError,
     'model JSON must be an object with a "carrier" field'),
    (lambda sig: load_model("{}", sig), ModelError,
     'model JSON must be an object with a "carrier" field'),
    (lambda sig: load_model('{"carrier": "ab"}', sig), ModelError,
     "carrier must be a list of string ids"),
    (lambda sig: Relation(Sort(1, 0), 2, [((0, 1), ())]), ModelError,
     "tuple lengths 2,0 do not match sort Sort(n=1, m=0)"),
    (lambda sig: relation_compose(identity_relation(2), identity_relation(3)), ModelError,
     "compose over different carriers"),
])
def test_checked_models_and_relations_name_each_fault(build, error, message):
    with pytest.raises(error) as caught:
        build(Signature({"R": (1, 0)}))
    assert type(caught.value) is error and str(caught.value) == message


def test_model_dump_is_canonical():
    sig = load_signature('{"R": [1, 1]}')
    m1 = load_model('{"carrier": ["a","b"], "relations": {"R": [[["b"],["a"]], [["a"],["b"]]]}}', sig)
    doc = json.loads(dump_model(m1))
    assert doc["relations"]["R"] == [[["a"], ["b"]], [["b"], ["a"]]]
    assert load_model(dump_model(m1), sig) == m1
    assert load_signature(dump_signature(sig)) == sig


def test_dumped_models_load_back(rng):
    sig = Signature({"R": (1, 1), "P": (2, 0), "U": (0, 0), "Q": (0, 2)})
    for model in model_battery(sig, rng) + [RelModel(sig, ["b", "a"], {"R": [((1,), (0,))]})]:
        assert load_model(dump_model(model), sig) == model


def test_compose_one_step_chase():
    r = Relation(Sort(1, 1), 3, {((0,), (1,))})
    s = Relation(Sort(1, 1), 3, {((1,), (2,))})
    assert relation_compose(r, s).pairs == frozenset({((0,), (2,))})


def test_compose_identity_unit():
    r = Relation(Sort(1, 1), 3, {((0,), (1,)), ((2,), (2,))})
    ident = identity_relation(3)
    assert relation_compose(r, ident) == r
    assert relation_compose(ident, r) == r


def test_compose_middle_witnesses():
    # two paths from 0 through distinct middles both land on 3
    r = Relation(Sort(1, 1), 4, {((0,), (1,)), ((0,), (2,))})
    s = Relation(Sort(1, 1), 4, {((1,), (3,)), ((2,), (3,))})
    assert relation_compose(r, s).pairs == frozenset({((0,), (3,))})


def test_compose_sort_mismatch():
    r = Relation(Sort(1, 2), 2, set())
    s = Relation(Sort(1, 1), 2, set())
    with pytest.raises(ModelError):
        relation_compose(r, s)


def test_tensor_concatenates():
    r = Relation(Sort(1, 1), 2, {((0,), (0,))})
    s = Relation(Sort(1, 1), 2, {((1,), (1,))})
    assert relation_tensor(r, s).pairs == frozenset({((0, 1), (0, 1))})


def test_tensor_unit():
    r = Relation(Sort(1, 1), 2, {((0,), (1,))})
    assert relation_tensor(r, unit_relation(2)) == r
    assert relation_tensor(unit_relation(2), r) == r


def test_tensor_carrier_mismatch():
    with pytest.raises(ModelError):
        relation_tensor(unit_relation(2), unit_relation(3))


@st.composite
def relations(draw, size=None, max_dim=2):
    size = draw(st.integers(0, 4)) if size is None else size
    n = draw(st.integers(0, max_dim))
    m = draw(st.integers(0, max_dim))
    space = [(a, b)
             for a in product(range(size), repeat=n)
             for b in product(range(size), repeat=m)]
    pairs = draw(st.sets(st.sampled_from(space))) if space else set()
    return Relation(Sort(n, m), size, pairs)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tensor_counts_multiply(data):
    size = data.draw(st.integers(0, 4))
    r = data.draw(relations(size=size))
    s = data.draw(relations(size=size))
    assert len(relation_tensor(r, s)) == len(r) * len(s)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_compose_associative(data):
    size = data.draw(st.integers(0, 4))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))

    def rand_rel(n, m):
        space = [(a, b)
                 for a in product(range(size), repeat=n)
                 for b in product(range(size), repeat=m)]
        return Relation(Sort(n, m), size,
                        {p for p in space if rng.random() < 0.4})

    dims = [data.draw(st.integers(0, 2)) for _ in range(4)]
    r = rand_rel(dims[0], dims[1])
    s = rand_rel(dims[1], dims[2])
    t = rand_rel(dims[2], dims[3])
    assert relation_compose(relation_compose(r, s), t) == \
        relation_compose(r, relation_compose(s, t))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_tensor_associative(data):
    size = data.draw(st.integers(0, 3))
    r = data.draw(relations(size=size, max_dim=1))
    s = data.draw(relations(size=size, max_dim=1))
    t = data.draw(relations(size=size, max_dim=1))
    assert relation_tensor(relation_tensor(r, s), t) == \
        relation_tensor(r, relation_tensor(s, t))


def test_empty_carrier_relations():
    # over the empty carrier only sort (0,0) can be inhabited
    assert unit_relation(0).pairs == frozenset({((), ())})
    assert identity_relation(0, 1).pairs == frozenset()
    with pytest.raises(ModelError):
        Relation(Sort(1, 0), 0, {((0,), ())})


def test_random_model_respects_signature(rng):
    sig = Signature({"R": (2, 1), "S": (0, 1)})
    for _ in range(20):
        model = random_model(sig, rng.randint(0, 3), rng)
        for name, pairs in model.rho.items():
            sort = sig.sort(name)
            for a, b in pairs:
                assert len(a) == sort.n and len(b) == sort.m
