"""Semantics-preserving translations between query formulas and diagram terms.

``theta`` turns a judgment ``n |- f`` into a term of sort ``(n, 0)`` by
induction on its canonical derivation: each of the eight judgment rules has
a fixed wiring.  ``lambda_term`` goes the other way, producing a two-sided
judgment whose left variables are the term's inputs and right variables its
outputs; composition introduces existentially quantified middle variables.

The translations are inverse only up to logical equivalence, never
syntactically, so all round-trip guarantees here are semantic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ccq import (
    AddVar,
    CcqFormula,
    CcqJudgment,
    Conj,
    ConjIntro,
    Eq,
    EqIntro,
    Exists,
    ExistsIntro,
    MergeVars,
    RelAtom,
    RelIntro,
    SwapVars,
    Top,
    TopIntro,
    derive,
    format_formula,
    rename,
)
from .errors import SignatureError
from .gcq import (
    Copy,
    Discard,
    Gen,
    GcqTerm,
    Id0,
    Id1,
    Merge,
    Seq,
    Spawn,
    Swap,
    Tensor,
    identity,
    postorder,
    subtrees,
)
from .sigmodel import RelModel, Signature


@dataclass(frozen=True)
class TwoSidedJudgment:
    """A formula over left variables x0..x{left-1} and right ones y0..y{right-1}.

    Stored over a single context of size left+right, with the y block at
    indices left..left+right-1; bound variables sit above that.
    """

    left: int
    right: int
    formula: CcqFormula

    def as_judgment(self) -> CcqJudgment:
        return CcqJudgment(self.left + self.right, self.formula)

    def __str__(self) -> str:
        return f"{self.left},{self.right} |- " + \
            format_formula(self.formula, self.left, self.right)


def _seq(a: GcqTerm, b: GcqTerm) -> GcqTerm:
    # a is a rule's wiring layer, which holds a constant and so is never an
    # identity; b has sort (k, 0), an identity only as id0
    return a if isinstance(b, Id0) else Seq(a, b)


def _tens(a: GcqTerm, b: GcqTerm) -> GcqTerm:
    if isinstance(a, Id0):
        return b
    if isinstance(b, Id0):
        return a
    return Tensor(a, b)


def theta(j: CcqJudgment) -> GcqTerm:
    """Translate a judgment to a term of sort (n, 0).

    Requires a relational reading of the symbols: each arity-k symbol is
    used as a box of sort (k, 0).  Each rule's wiring is applied bottom-up
    over the canonical derivation.
    """
    done: list[GcqTerm] = []  # translations of finished subderivations
    for e in postorder(derive(j), subtrees):
        if isinstance(e, TopIntro):
            out = Id0()
        elif isinstance(e, EqIntro):
            out = Seq(Merge(), Discard())
        elif isinstance(e, RelIntro):
            out = Gen(e.symbol, e.arity, 0)
        elif isinstance(e, ConjIntro):
            right = done.pop()
            out = _tens(done.pop(), right)
        elif isinstance(e, ExistsIntro):
            out = _seq(_tens(identity(e.conclusion.context), Spawn()), done.pop())
        elif isinstance(e, AddVar):
            out = _seq(_tens(identity(e.child.conclusion.context), Discard()), done.pop())
        elif isinstance(e, MergeVars):
            out = _seq(_tens(identity(e.child.conclusion.context - 2), Copy()), done.pop())
        elif isinstance(e, SwapVars):
            n = e.conclusion.context
            layer = _tens(_tens(identity(e.k), Swap()), identity(n - e.k - 2))
            out = _seq(layer, done.pop())
        else:
            raise TypeError(f"not a derivation: {e!r}")
        done.append(out)
    return done.pop()


def lambda_term(t: GcqTerm) -> TwoSidedJudgment:
    """Translate a term of sort (n, m) to a two-sided judgment n,m |- f."""
    done: list[TwoSidedJudgment] = []  # translations of finished subterms
    for u in postorder(t, subtrees):
        if isinstance(u, Tensor):
            b, a = done.pop(), done.pop()
            l1, r1, l2, r2 = a.left, a.right, b.left, b.right
            total = l1 + l2 + r1 + r2
            fa = rename(a.formula, l1 + r1, total,
                        {l1 + i: l1 + l2 + i for i in range(r1)})
            fb = rename(b.formula, l2 + r2, total,
                        {**{i: l1 + i for i in range(l2)},
                         **{l2 + i: l1 + l2 + r1 + i for i in range(r2)}})
            out = TwoSidedJudgment(l1 + l2, r1 + r2, Conj(fa, fb))
        elif isinstance(u, Seq):
            b, a = done.pop(), done.pop()
            k, mid, n = a.left, a.right, b.right
            total = k + n + mid  # middle variables become the topmost indices
            fa = rename(a.formula, k + mid, total,
                        {k + i: k + n + i for i in range(mid)})
            fb = rename(b.formula, mid + n, total,
                        {**{i: k + n + i for i in range(mid)},
                         **{mid + i: k + i for i in range(n)}})
            body: CcqFormula = Conj(fa, fb)
            for _ in range(mid):
                body = Exists(body)
            out = TwoSidedJudgment(k, n, body)
        elif isinstance(u, Copy):
            out = TwoSidedJudgment(1, 2, Conj(Eq(0, 1), Eq(0, 2)))
        elif isinstance(u, Discard):
            out = TwoSidedJudgment(1, 0, Top())
        elif isinstance(u, Merge):
            out = TwoSidedJudgment(2, 1, Conj(Eq(0, 2), Eq(1, 2)))
        elif isinstance(u, Spawn):
            out = TwoSidedJudgment(0, 1, Top())
        elif isinstance(u, Id0):
            out = TwoSidedJudgment(0, 0, Top())
        elif isinstance(u, Id1):
            out = TwoSidedJudgment(1, 1, Eq(0, 1))
        elif isinstance(u, Swap):
            out = TwoSidedJudgment(2, 2, Conj(Eq(0, 3), Eq(1, 2)))
        elif isinstance(u, Gen):
            out = TwoSidedJudgment(u.n, u.m, RelAtom(u.name, tuple(range(u.n + u.m))))
        else:
            raise TypeError(f"not a term: {u!r}")
        done.append(out)
    return done.pop()


def relational_signature(sig: Signature) -> Signature:
    """The signature Lambda expects: each (n, m) symbol read at arity n+m."""
    return Signature({name: (s.n + s.m, 0) for name, s in sig.items()})


def theta_model(model: RelModel) -> RelModel:
    """Read a relational model as a diagrammatic one.

    An arity-k symbol interpreted by k-tuples becomes a sort-(k,0) symbol
    interpreted by (k-tuple, empty-tuple) pairs; with the shared model
    representation this is the identity on the data.
    """
    if not model.signature.is_relational():
        raise SignatureError("theta_model needs a relational (coarity-0) signature")
    return RelModel(model.signature, model.carrier, model.rho)


def lambda_model(model: RelModel) -> RelModel:
    """Flatten a model over (n, m) symbols to one over arity-(n+m) symbols."""
    sig = relational_signature(model.signature)
    rho = {name: [(a + b, ()) for a, b in pairs] for name, pairs in model.rho.items()}
    return RelModel(sig, model.carrier, rho)
