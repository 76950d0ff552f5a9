"""The value classes: one ``sigmodel.Record`` base gives each its
constructor, ``==``, ``hash``, ``repr`` and immutability, with the results
the ``dataclasses`` defaults give, unless the class defines its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cqgraph
from cqgraph.axioms import (
    AxiomEntry, AxiomReport, CpComp, CpConverse, CpId, CpMeet, CpRel, CpTerm, CpTop,
)
from cqgraph.ccq import (
    AddVar, CcqDerivation, CcqFormula, CcqJudgment, Conj, ConjIntro, Eq, EqIntro, Exists,
    ExistsIntro, MergeVars, RelAtom, RelIntro, SwapVars, Top, TopIntro, _Step,
)
from cqgraph.containment import EquivalenceVerdict, InclusionVerdict
from cqgraph.cospan import Cospan
from cqgraph.gcq import (
    Branch, Copy, Discard, GcqTerm, Gen, Id0, Id1, Merge, Seq, Spawn, Swap, Tensor, Wiring,
)
from cqgraph.hypergraph import HgMorphism, Hypergraph
from cqgraph.sigmodel import Record, Relation, RelModel, Signature, Sort
from cqgraph.translate import TwoSidedJudgment

# one instance of every value class, built by a call, and its repr
VALUES = [
    (lambda: AxiomEntry("frob", Copy(), Copy(), "eq"),
     "AxiomEntry(name='frob', lhs=Copy(), rhs=Copy(), kind='eq', symbol=None)"),
    (lambda: AxiomReport("frob", False, "differs"),
     "AxiomReport(name='frob', passed=False, detail='differs', countermodel=None)"),
    (lambda: CpTerm(), "CpTerm()"),
    (lambda: CpTop(), "CpTop()"),
    (lambda: CpMeet(CpTop(), CpId()), "CpMeet(lhs=CpTop(), rhs=CpId())"),
    (lambda: CpId(), "CpId()"),
    (lambda: CpComp(CpRel("R"), CpId()), "CpComp(lhs=CpRel(symbol='R'), rhs=CpId())"),
    (lambda: CpConverse(CpRel("R")), "CpConverse(arg=CpRel(symbol='R'))"),
    (lambda: CpRel("R"), "CpRel(symbol='R')"),
    (lambda: CcqFormula(), "CcqFormula()"),
    (lambda: Top(), "Top()"),
    (lambda: Conj(Top(), Eq(0, 1)), "Conj(lhs=Top(), rhs=Eq(i=0, j=1))"),
    (lambda: Eq(0, 1), "Eq(i=0, j=1)"),
    (lambda: RelAtom("R", [0, 1]), "RelAtom(symbol='R', args=(0, 1))"),
    (lambda: Exists(RelAtom("R", (0, 1))), "Exists(body=RelAtom(symbol='R', args=(0, 1)))"),
    (lambda: CcqJudgment(2, Eq(0, 1)), "CcqJudgment(context=2, formula=Eq(i=0, j=1))"),
    (lambda: CcqDerivation(), "CcqDerivation()"),
    (lambda: TopIntro(), "TopIntro()"),
    (lambda: EqIntro(), "EqIntro()"),
    (lambda: RelIntro("R", 2), "RelIntro(symbol='R', arity=2)"),
    (lambda: ConjIntro(TopIntro(), EqIntro()), "ConjIntro(left=TopIntro(), right=EqIntro())"),
    (lambda: _Step(TopIntro()), "_Step(child=TopIntro())"),
    (lambda: ExistsIntro(RelIntro("R", 2)), "ExistsIntro(child=RelIntro(symbol='R', arity=2))"),
    (lambda: SwapVars(EqIntro(), 0), "SwapVars(child=EqIntro(), k=0)"),
    (lambda: MergeVars(EqIntro()), "MergeVars(child=EqIntro())"),
    (lambda: AddVar(TopIntro()), "AddVar(child=TopIntro())"),
    (lambda: InclusionVerdict(True), "InclusionVerdict(holds=True, witness=None, countermodel=None)"),
    (lambda: EquivalenceVerdict(False, InclusionVerdict(True), InclusionVerdict(False)),
     "EquivalenceVerdict(holds=False, forward=InclusionVerdict(holds=True, witness=None, "
     "countermodel=None), backward=InclusionVerdict(holds=False, witness=None, countermodel=None))"),
    (lambda: Cospan(1, 0, Hypergraph(1), [0], []),
     "Cospan(n=1, m=0, apex=Hypergraph(1 vertices, 0 edges), iota=(0,), omega=())"),
    (lambda: GcqTerm(), "GcqTerm()"),
    (lambda: Wiring(), "Wiring()"),
    (lambda: Copy(), "Copy()"),
    (lambda: Discard(), "Discard()"),
    (lambda: Merge(), "Merge()"),
    (lambda: Spawn(), "Spawn()"),
    (lambda: Id0(), "Id0()"),
    (lambda: Id1(), "Id1()"),
    (lambda: Swap(), "Swap()"),
    (lambda: Gen("S", 1, 1), "Gen(name='S', n=1, m=1)"),
    (lambda: Seq(Copy(), Merge()), "Seq(lhs=Copy(), rhs=Merge())"),
    (lambda: Tensor(Id1(), Gen("S", 1, 1)), "Tensor(lhs=Id1(), rhs=Gen(name='S', n=1, m=1))"),
    (lambda: Hypergraph(2, {"E": [([0], [1])]}), "Hypergraph(2 vertices, 1 edges)"),
    (lambda: HgMorphism([0], {"E": [0]}), "HgMorphism(vmap=(0,), emaps={'E': (0,)})"),
    (lambda: Relation(Sort(1, 0), 2, [([0], [])]),
     "Relation(sort=Sort(n=1, m=0), carrier_size=2, pairs=frozenset({((0,), ())}))"),
    (lambda: RelModel(Signature({"E": (1, 0)}), ["a"], {"E": [([0], [])]}),
     "RelModel(|X|=1, 1 tuples)"),
    (lambda: TwoSidedJudgment(1, 1, Eq(0, 1)),
     "TwoSidedJudgment(left=1, right=1, formula=Eq(i=0, j=1))"),
]


def test_every_value_class_is_listed():
    # the package's own classes: one that a test declares is not counted
    classes, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.partition(".")[0] == "cqgraph":
                classes.add(sub)
            todo.append(sub)
    assert classes == {type(build()) for build, _ in VALUES}


@pytest.mark.parametrize("build, text", VALUES, ids=[text.split("(")[0] for _, text in VALUES])
def test_values_compare_hash_and_print_like_dataclasses(build, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    assert a != object() and a != text
    fields = tuple(getattr(a, name) for name in a.__match_args__)
    if isinstance(a, RelModel):  # a dict field, and no hash
        assert type(a).__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b) and {a: 1}[b] == 1
    if isinstance(a, (Hypergraph, HgMorphism)):  # a dict field, hashed by its items
        assert hash(a) == hash((fields[0], tuple(fields[1].items())))
    elif not isinstance(a, Branch):  # which hashes its postorder key
        assert hash(a) == hash(fields)


@pytest.mark.parametrize("build, text", VALUES, ids=[text.split("(")[0] for _, text in VALUES])
def test_values_are_immutable(build, text):
    a = build()
    for name in (*a.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text


def test_values_of_different_classes_or_fields_differ():
    assert Top() != TopIntro() and Copy() != Merge() and CpTop() != CpId()
    assert Eq(0, 1) != Eq(1, 0) and hash(Eq(0, 1)) == hash((0, 1))
    assert Gen("S", 1, 1) != Gen("S", 1, 2) and RelAtom("R", (0,)) != RelAtom("S", (0,))
    assert hash(CpRel("R")) == hash(("R",)) and hash(Top()) == hash(())


def test_keyword_and_default_construction():
    assert InclusionVerdict(True) == InclusionVerdict(holds=True, witness=None, countermodel=None)
    assert InclusionVerdict(countermodel=None, holds=False).holds is False
    report = AxiomReport("frob", True)
    assert (report.detail, report.countermodel) == ("", None)
    assert AxiomReport(passed=True, name="frob") == report
    assert AxiomEntry("frob", Copy(), Copy(), "eq").symbol is None
    assert Gen(name="S", m=1, n=1) == Gen("S", 1, 1)
    assert Relation(Sort(1, 0), 2, pairs=[((0,), ())]).pairs == frozenset({((0,), ())})
    assert SwapVars(EqIntro(), k=0) == SwapVars(EqIntro(), 0)


@pytest.mark.parametrize("call", [
    lambda: Gen("S", 1),  # a field missing
    lambda: Gen("S", 1, 1, 1),  # one argument too many
    lambda: Gen("S", 1, 1, name="T"),  # a field given twice
    lambda: Gen("S", 1, size=1),  # no such field
    lambda: AxiomReport(passed=True),
    lambda: Top(0),
])
def test_bad_calls_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses generates and compiles code for each class it decorates,
    # and pulls in inspect, ast, dis and tokenize: start-up pays for both
    src = str(Path(cqgraph.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys; before = set(sys.modules); import cqgraph.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    added = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "cqgraph.cli" in added
    assert "dataclasses" not in added and "inspect" not in added
