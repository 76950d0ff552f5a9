"""The complete law catalog for diagram terms, with two verification routes.

Entries cover the strict symmetric-monoidal laws, the special Frobenius
bimonoid laws, the two adjunctions between the (co)monoid halves, and the
two lax-naturality inequalities instantiated per signature symbol.
Schematic laws are catalogued as representative closed instances built
from the wiring constants alone, so the catalog works over any signature.

Each entry can be verified semantically (inclusion of evaluations over a
battery of random models, the empty model always included) and
graphically (equalities become cospan isomorphisms, inequalities become
reversed interface-preserving morphisms).  A reading of a law that fails
semantic verification is a transcription bug by definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import attrgetter

from .containment import decide_inclusion
from .cospan import is_isomorphic_cospan, term_to_cospan
from .errors import SignatureError
from .gcq import (
    Branch,
    Copy,
    Discard,
    Gen,
    GcqTerm,
    Id1,
    Merge,
    Seq,
    Spawn,
    Tensor,
    eval_gcq,
    n_copy,
    n_discard,
    parse_gcq,
    postorder,
    seq,
    subtrees,
    tensor,
    term_signature,
)
from .sigmodel import RelModel, Signature, random_model

EQUALITY = "eq"
LEFT_LEQ_RIGHT = "leq"


@dataclass(frozen=True)
class AxiomEntry:
    name: str
    lhs: GcqTerm
    rhs: GcqTerm
    kind: str  # EQUALITY or LEFT_LEQ_RIGHT
    symbol: str | None = None  # set for the per-symbol law families

    def __post_init__(self):
        if self.lhs.sort != self.rhs.sort:
            raise SignatureError(f"axiom {self.name}: sides have different sorts")


def _laws(kind: str, *rows: tuple[str, str, str]) -> list[AxiomEntry]:
    """Entries of one kind from (name, lhs, rhs) rows in the term syntax."""
    wiring = Signature()
    return [AxiomEntry(name, parse_gcq(lhs, wiring), parse_gcq(rhs, wiring), kind)
            for name, lhs, rhs in rows]


def _smc_entries() -> list[AxiomEntry]:
    return _laws(
        EQUALITY,
        # associativity and unitality of composition
        ("smc-i", "copy ; swap ; merge", "copy ; (swap ; merge)"),
        ("smc-ii", "id ; copy", "copy ; id (+) id"),
        # associativity and unitality of tensor
        ("smc-iii", "copy (+) discard (+) swap", "copy (+) (discard (+) swap)"),
        ("smc-iv", "id0 (+) merge", "merge (+) id0"),
        # interchange of ; and (+)
        ("smc-v", "(copy ; swap) (+) (merge ; discard)", "copy (+) merge ; swap (+) discard"),
        # naturality of the crossing, on both sides (the 2-over-1 and
        # 1-over-2 block crossings spelled out as swaps)
        ("smc-vi", "merge (+) id ; swap", "id (+) swap ; swap (+) id ; id (+) merge"),
        ("smc-vii", "id (+) copy ; (swap (+) id ; id (+) swap)", "swap ; copy (+) id"),
        # the crossing is involutive
        ("smc-viii", "swap ; swap", "id (+) id"),
    )


def _frobenius_entries() -> list[AxiomEntry]:
    return _laws(
        EQUALITY,
        ("A", "merge (+) id ; merge", "id (+) merge ; merge"),
        ("C", "swap ; merge", "merge"),
        ("U", "spawn (+) id ; merge", "id"),
        ("Aop", "copy ; copy (+) id", "copy ; id (+) copy"),
        ("Cop", "copy ; swap", "copy"),
        ("Uop", "copy ; discard (+) id", "id"),
        ("S", "copy ; merge", "id"),
        ("F", "id (+) copy ; merge (+) id", "merge ; copy"),
    )


def _adjointness_entries() -> list[AxiomEntry]:
    return _laws(
        LEFT_LEQ_RIGHT,
        ("UC", "spawn ; discard", "id0"),
        ("CU", "id", "discard ; spawn"),
        ("MC", "merge ; copy", "id (+) id"),
        ("CM", "id", "copy ; merge"),
    )


def _lax_entries(sig: Signature) -> list[AxiomEntry]:
    out = []
    for name, sort in sig.items():
        box = Gen(name, sort.n, sort.m)
        out.append(AxiomEntry(f"L1[{name}]",
                              Seq(box, n_discard(sort.m)),
                              n_discard(sort.n),
                              LEFT_LEQ_RIGHT, symbol=name))
        out.append(AxiomEntry(f"L2[{name}]",
                              Seq(box, n_copy(sort.m)),
                              Seq(n_copy(sort.n), Tensor(box, box)),
                              LEFT_LEQ_RIGHT, symbol=name))
    return out


def axiom_catalog(sig: Signature) -> list[AxiomEntry]:
    """All laws: 8 monoidal equalities, 8 (co)monoid/Frobenius equalities,
    4 adjointness inequalities, and 2 lax-naturality inequalities per
    signature symbol."""
    return (_smc_entries() + _frobenius_entries() + _adjointness_entries()
            + _lax_entries(sig))


@dataclass
class AxiomReport:
    name: str
    passed: bool
    detail: str = ""
    countermodel: RelModel | None = None


def _axiom_signature(entry: AxiomEntry, sig: Signature | None) -> Signature:
    spanned = term_signature(entry.lhs).merged(term_signature(entry.rhs))
    return spanned if sig is None else sig.merged(spanned)


def verify_axiom_semantic(entry: AxiomEntry, trials: int = 100,
                          max_carrier: int = 3, seed: int = 0,
                          sig: Signature | None = None) -> AxiomReport:
    """Check the claimed inclusion(s) of evaluations on random models.

    The first trials are a fixed battery (the empty model, then all-empty
    interpretations over one and two elements); the rest are random with
    carriers up to max_carrier.  Any violation is reported together with
    the offending model.
    """
    full_sig = _axiom_signature(entry, sig)
    rng = random.Random(seed)
    canned = [RelModel(full_sig, [f"e{i}" for i in range(size)]) for size in range(3)]
    for k in range(trials):
        model = canned[k] if k < len(canned) else \
            random_model(full_sig, rng.randint(0, max_carrier), rng)
        lhs = eval_gcq(entry.lhs, model)
        rhs = eval_gcq(entry.rhs, model)
        if not lhs.pairs <= rhs.pairs:
            return AxiomReport(entry.name, False, "left not included in right", model)
        if entry.kind == EQUALITY and not rhs.pairs <= lhs.pairs:
            return AxiomReport(entry.name, False, "right not included in left", model)
    return AxiomReport(entry.name, True, f"{trials} models")


def verify_axiom_graphical(entry: AxiomEntry) -> AxiomReport:
    """Check the combinatorial form of the law on compiled cospans.

    An equality must compile to isomorphic cospans; an inequality must be
    witnessed by an interface-preserving morphism from the right-hand
    apex to the left-hand one.
    """
    if entry.kind == EQUALITY:
        ok = is_isomorphic_cospan(term_to_cospan(entry.lhs), term_to_cospan(entry.rhs))
        return AxiomReport(entry.name, ok, "cospan isomorphism")
    verdict = decide_inclusion(entry.lhs, entry.rhs)
    return AxiomReport(entry.name, verdict.holds, "reversed morphism witness")


def reversed_entry(entry: AxiomEntry) -> AxiomEntry:
    """The converse inequality, used as a direction-flip guard."""
    return AxiomEntry(f"{entry.name}-reversed", entry.rhs, entry.lhs,
                      entry.kind, entry.symbol)


# -- the relational algebra with converse, encoded as diagram terms ----------

@dataclass(frozen=True)
class CpTerm:
    children = ()


@dataclass(frozen=True)
class CpTop(CpTerm):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class CpMeet(Branch, CpTerm):
    lhs: CpTerm
    rhs: CpTerm

    children = property(attrgetter("lhs", "rhs"))


@dataclass(frozen=True)
class CpId(CpTerm):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class CpComp(Branch, CpTerm):
    lhs: CpTerm
    rhs: CpTerm

    children = property(attrgetter("lhs", "rhs"))


@dataclass(frozen=True, eq=False, repr=False)
class CpConverse(Branch, CpTerm):
    arg: CpTerm

    @property
    def children(self):
        return (self.arg,)


@dataclass(frozen=True)
class CpRel(CpTerm):
    symbol: str


def encode_cp(t: CpTerm) -> GcqTerm:
    """Encode a converse-algebra term as a diagram term of sort (1, 1).

    Relation symbols are read at sort (1, 1).  Converse conjugates by the
    wire-bending pair: a spawn-copy cap on the left and a merge-discard
    cup on the right.
    """
    done: list[GcqTerm] = []  # encodings of finished subterms
    for u in postorder(t, subtrees):
        if isinstance(u, CpTop):
            out = Seq(Discard(), Spawn())
        elif isinstance(u, CpMeet):
            rhs, lhs = done.pop(), done.pop()
            out = seq(Copy(), Tensor(lhs, rhs), Merge())
        elif isinstance(u, CpId):
            out = Id1()
        elif isinstance(u, CpComp):
            rhs, lhs = done.pop(), done.pop()
            out = Seq(lhs, rhs)
        elif isinstance(u, CpConverse):
            cap = Seq(Spawn(), Copy())
            cup = Seq(Merge(), Discard())
            out = seq(Tensor(cap, Id1()),
                      tensor(Id1(), done.pop(), Id1()),
                      Tensor(Id1(), cup))
        elif isinstance(u, CpRel):
            out = Gen(u.symbol, 1, 1)
        else:
            raise TypeError(f"not a converse-algebra term: {u!r}")
        done.append(out)
    return done.pop()
