"""Query inclusion and equivalence, decided on compiled cospans.

The ordering is fixed once and for all: ``c <= d`` holds iff there is an
interface-preserving morphism from the apex of ``d``'s cospan to the apex
of ``c``'s.  The normative instance is the pair from the worked example in
the test-suite: the single-box query with its two inputs merged sits below
the four-box query, witnessed by a morphism out of the four-box graph.

``natural_model_check`` decides the same relation along a disjoint code
path: read ``c``'s own apex as a model, evaluate ``d`` on it relationally,
and test whether the canonical boundary assignment satisfies it.  The two
deciders agree everywhere; the suite enforces that.
"""

from __future__ import annotations

from .ccq import CcqJudgment
from .cospan import Cospan, boundary_pins, term_to_cospan
from .errors import ModelError, SortError
from .gcq import GcqTerm, eval_gcq, term_signature
from .hypergraph import HgMorphism, Hypergraph, find_morphisms
from .sigmodel import Record, RelModel, Signature, _trusted, model_json_dict


class InclusionVerdict(Record):
    holds: bool
    witness: HgMorphism | None = None
    countermodel: RelModel | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = {"vmap": list(self.witness.vmap),
                              "emaps": {sym: list(e) for sym, e in self.witness.emaps.items()}}
        if self.countermodel is not None:
            out["countermodel"] = model_json_dict(self.countermodel)
        return out


class EquivalenceVerdict(Record):
    holds: bool
    forward: InclusionVerdict
    backward: InclusionVerdict


def hypergraph_as_model(g: Hypergraph, sig: Signature) -> RelModel:
    """Read a hypergraph as a relational model: vertices become the carrier,
    the tentacle tuples of each symbol become its relation (a set, so
    parallel duplicate edges collapse).  Each symbol's sort in g is checked
    against ``sig``."""
    for sym, sort in g.signature.items():
        if sym in sig and sort != sig.sort(sym):
            raise ModelError(f"tuple for {sym!r} does not match sort {sig.sort(sym)}")
    return _trusted(RelModel, signature=sig, carrier=tuple(f"v{i}" for i in range(g.vcount)),
                    rho={name: frozenset(g.edges.get(name, ())) for name in sig})


Query = GcqTerm | CcqJudgment | Cospan  # anything term_to_cospan compiles


def decide_inclusion(c: Query, d: Query, budget: int | None = None) -> InclusionVerdict:
    """Decide c <= d for terms, judgments or their cospans: a witness
    morphism when it holds, the natural model of c as a countermodel when not."""
    return _decide(term_to_cospan(c), term_to_cospan(d), budget)


def decide_equivalence(c: Query, d: Query, budget: int | None = None) -> EquivalenceVerdict:
    ca, da = term_to_cospan(c), term_to_cospan(d)
    forward = _decide(ca, da, budget)
    backward = _decide(da, ca, budget)
    return EquivalenceVerdict(forward.holds and backward.holds, forward, backward)


def _decide(ca: Cospan, da: Cospan, budget: int | None) -> InclusionVerdict:
    """Decide inclusion between the compiled sides."""
    if ca.sort != da.sort:
        raise SortError(f"cannot compare sorts {ca.sort} and {da.sort}")
    pins = boundary_pins(da, ca)
    if pins is not None:
        found = find_morphisms(da.apex, ca.apex, pins, limit=1, budget=budget)
        if found:
            return InclusionVerdict(True, found[0], None)
    sig = ca.apex.signature.merged(da.apex.signature)
    return InclusionVerdict(False, None, hypergraph_as_model(ca.apex, sig))


def natural_model_check(c: GcqTerm, d: GcqTerm) -> bool:
    """The evaluation oracle for c <= d: never searches for morphisms.

    Compile c, read its apex as a model, and ask whether the boundary
    assignment of c satisfies d there.  The apex has one edge per box of c,
    so it spans c's signature; compiling c refused a symbol at two sorts.
    """
    if c.sort != d.sort:
        raise SortError(f"cannot compare sorts {c.sort} and {d.sort}")
    ca = term_to_cospan(c)
    sig = ca.apex.signature.merged(term_signature(d))
    return (ca.iota, ca.omega) in eval_gcq(d, hypergraph_as_model(ca.apex, sig))


def span_semantics(t: GcqTerm, g: Hypergraph) -> dict:
    """Homomorphism-counting semantics of t over g.

    For each pair (a, b) of boundary assignments into g's vertices, the
    number of morphisms from t's apex to g restricting to a and b on the
    two interfaces.  Pairs with count zero are omitted; the support equals
    the relational evaluation of t over g read as a model.
    """
    cosp = term_to_cospan(t)
    counts: dict = {}
    for hom in find_morphisms(cosp.apex, g):
        key = (tuple(hom.vmap[v] for v in cosp.iota),
               tuple(hom.vmap[v] for v in cosp.omega))
        counts[key] = counts.get(key, 0) + 1
    return counts
