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

from functools import reduce

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
    assemble,
    derive,
    format_formula,
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
    Wiring,
    postorder,
)
from .sigmodel import Record, RelModel, Signature, _trusted


class TwoSidedJudgment(Record):
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

    Every rule's wiring holds an identity bundle as wide as its context, so
    the term, read as a tree, is quadratic in the width.  Each bundle is
    built once per call, ``identity(k)`` as ``identity(k-1) (+) id``, and
    shared by every rule that uses it: terms are immutable, and every
    consumer walks them with ``postorder`` or its own stack, never by node
    identity, so a shared node reads as the same tree.
    """
    bundles: list[GcqTerm] = [Id0(), Id1()]  # bundles[k] = identity(k), for this call only

    def bundle(k: int) -> GcqTerm:
        while len(bundles) <= k:
            bundles.append(Tensor(bundles[-1], Id1()))
        return bundles[k]

    done: list[GcqTerm] = []  # translations of finished subderivations
    for e in postorder(derive(j)):
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
            out = _seq(_tens(bundle(e.context), Spawn()), done.pop())
        elif isinstance(e, AddVar):
            out = _seq(_tens(bundle(e.child.context), Discard()), done.pop())
        elif isinstance(e, MergeVars):
            out = _seq(_tens(bundle(e.child.context - 2), Copy()), done.pop())
        elif isinstance(e, SwapVars):
            n = e.context
            layer = _tens(_tens(bundle(e.k), Swap()), bundle(n - e.k - 2))
            out = _seq(layer, done.pop())
        else:
            raise TypeError(f"not a derivation: {e!r}")
        done.append(out)
    return done.pop()


def lambda_term(t: GcqTerm) -> TwoSidedJudgment:
    """Translate a term of sort (n, m) to a two-sided judgment n,m |- f.

    Walking down, each node's boundary wires are mapped to variables of
    the result, with the context ``depth`` its formula is read at: the
    middle wires of a ``;`` are bound there, as depth..depth+mid-1.
    ``assemble`` folds the walk's pre-order into the formula.
    """
    n, m = t.sort
    order = []  # the formula in pre-order: atoms, and the markers Conj and Exists
    todo = [(t, list(range(n + m)), n + m)]
    while todo:
        u, wires, depth = todo.pop()
        if isinstance(u, Seq):
            k, mid = u.lhs.sort
            middle = list(range(depth, depth + mid))
            order += [Exists] * mid + [Conj]
            todo += ((u.lhs, wires[:k] + middle, depth + mid),
                     (u.rhs, middle + wires[k:], depth + mid))
        elif isinstance(u, Tensor):
            l1, r1 = u.lhs.sort
            y = l1 + u.rhs.sort.n  # where the outputs start
            order.append(Conj)
            todo += ((u.lhs, wires[:l1] + wires[y:y + r1], depth),
                     (u.rhs, wires[l1:y] + wires[y + r1:], depth))
        elif isinstance(u, Gen):
            order.append(RelAtom(u.name, tuple(wires)))
        elif isinstance(u, Wiring):  # an input and an output on one wire are equal
            n_in = len(u.iota)
            eqs = [Eq(wires[a], wires[n_in + b]) for a, x in enumerate(u.iota)
                   for b, y in enumerate(u.omega) if x == y]
            order.append(reduce(Conj, eqs) if eqs else Top())
        else:
            raise TypeError(f"not a term: {u!r}")
    return TwoSidedJudgment(n, m, assemble(order))


def relational_signature(sig: Signature) -> Signature:
    """The signature Lambda expects: each (n, m) symbol read at arity n+m."""
    return Signature({name: (s.n + s.m, 0) for name, s in sig.items()})


def theta_model(model: RelModel) -> RelModel:
    """Read a relational model as a diagrammatic one.

    An arity-k symbol interpreted by k-tuples becomes a sort-(k,0) symbol
    interpreted by (k-tuple, empty-tuple) pairs; with the shared model
    representation the model itself is that reading.
    """
    if not model.signature.is_relational():
        raise SignatureError("theta_model needs a relational (coarity-0) signature")
    return model


def lambda_model(model: RelModel) -> RelModel:
    """Flatten a model over (n, m) symbols to one over arity-(n+m) symbols."""
    sig = relational_signature(model.signature)
    rho = {name: frozenset((a + b, ()) for a, b in pairs) for name, pairs in model.rho.items()}
    return _trusted(RelModel, signature=sig, carrier=model.carrier, rho=rho)
