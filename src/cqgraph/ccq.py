"""Conjunctive-query formulas, sorted judgments, and their semantics.

A judgment ``n |- f`` pairs a formula with a variable context: every free
variable index is below ``n``.  Bound variables are positional: an
``Exists`` node at local context ``k`` always binds index ``k`` (its body
lives at context ``k+1``), so an index is free exactly when it is below
the top-level context and alpha-conversion never arises.

Two evaluators are provided.  ``eval_ccq`` joins the atoms of the
formula's natural model (one vertex per class of variables made equal,
one edge per atom) against the model, projecting bound variables early.
``replay_eval`` replays a derivation built from the eight judgment rules
(truth, relation and equality introduction, conjunction, existential
closure, plus the structural swap / merge / weaken moves on the context)
and serves as the reference.  They agree, and the test-suite checks that.

Formulas and derivations are trees; every pass over one is a loop with an
explicit stack (``_walk`` or :func:`cqgraph.gcq.postorder`), so any depth
is handled under the default recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter

from .errors import ParseError, SignatureError
from .gcq import Branch, postorder, subtrees, tokenize
from .hypergraph import boundary_assignments, quotient
from .sigmodel import RelModel, Signature


# -- formulas ----------------------------------------------------------------

@dataclass(frozen=True)
class CcqFormula:
    children = ()


@dataclass(frozen=True)
class Top(CcqFormula):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Conj(Branch, CcqFormula):
    lhs: CcqFormula
    rhs: CcqFormula

    children = property(attrgetter("lhs", "rhs"))


@dataclass(frozen=True)
class Eq(CcqFormula):
    i: int
    j: int


@dataclass(frozen=True)
class RelAtom(CcqFormula):
    symbol: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, eq=False, repr=False)
class Exists(Branch, CcqFormula):
    body: CcqFormula

    @property
    def children(self):
        return (self.body,)


def _walk(f: CcqFormula, ctx: int) -> list:
    """Every subformula with the context it is read at, in pre-order (left
    conjunct first), from an explicit stack."""
    out, todo = [], [(f, ctx)]
    while todo:
        u, c = item = todo.pop()
        out.append(item)
        if isinstance(u, Conj):
            todo += ((u.rhs, c), (u.lhs, c))
        elif isinstance(u, Exists):
            todo.append((u.body, c + 1))
    return out


def _vars(u: CcqFormula) -> tuple:
    """The variables an equation or an atom mentions; none otherwise."""
    return (u.i, u.j) if isinstance(u, Eq) else u.args if isinstance(u, RelAtom) else ()


def _check(f: CcqFormula, ctx: int):
    for u, c in _walk(f, ctx):
        if isinstance(u, (Eq, RelAtom)):
            for x in _vars(u):
                if not 0 <= x < c:
                    raise ValueError(f"variable out of context {c} in {u}")
        elif not isinstance(u, (Top, Conj, Exists)):
            raise TypeError(f"not a formula: {u!r}")


def free_vars(f: CcqFormula, ctx: int) -> set:
    """Free variable indices of f when read at context ctx."""
    return {x for u, _ in _walk(f, ctx) for x in _vars(u) if x < ctx}


def rename(f: CcqFormula, old_ctx: int, new_ctx: int, fmap: dict) -> CcqFormula:
    """Simultaneously rename free variables and rebase bound ones.

    An index below ``old_ctx`` is free and goes through ``fmap`` (default:
    unchanged); an index at or above it was bound by some enclosing
    quantifier and is shifted by ``new_ctx - old_ctx``.
    """
    def m(i: int) -> int:
        if i < old_ctx:
            j = fmap.get(i, i)
            if not (0 <= j < new_ctx):
                raise ValueError(f"renaming sends x{i} outside context {new_ctx}")
            return j
        return i - old_ctx + new_ctx

    done: list[CcqFormula] = []  # renamed subformulas
    for u in postorder(f, subtrees):
        if isinstance(u, Conj):
            rhs = done.pop()
            done[-1] = Conj(done[-1], rhs)
        elif isinstance(u, Exists):
            done[-1] = Exists(done[-1])
        elif isinstance(u, Eq):
            done.append(Eq(m(u.i), m(u.j)))
        elif isinstance(u, RelAtom):
            done.append(RelAtom(u.symbol, tuple(m(a) for a in u.args)))
        elif isinstance(u, Top):
            done.append(u)
        else:
            raise TypeError(f"not a formula: {u!r}")
    return done.pop()


def substitute(f: CcqFormula, pairs, context: int) -> CcqFormula:
    """Simultaneous substitution on free variables.

    ``pairs`` lists ``(replacement, replaced)`` index pairs; indices below
    ``context`` are the free ones.  Bound variables are untouched.
    """
    fmap = {old: new for new, old in pairs}
    return rename(f, context, context, fmap)


@dataclass(frozen=True)
class CcqJudgment:
    context: int
    formula: CcqFormula

    def __post_init__(self):
        if self.context < 0:
            raise ValueError("context must be a natural")
        _check(self.formula, self.context)


# -- derivations -------------------------------------------------------------

@dataclass(frozen=True)
class CcqDerivation:
    children = ()  # the premises

    @property
    def conclusion(self) -> CcqJudgment:
        return self._conclusion


@dataclass(frozen=True)
class TopIntro(CcqDerivation):
    def __post_init__(self):
        object.__setattr__(self, "_conclusion", CcqJudgment(0, Top()))


@dataclass(frozen=True)
class EqIntro(CcqDerivation):
    def __post_init__(self):
        object.__setattr__(self, "_conclusion", CcqJudgment(2, Eq(0, 1)))


@dataclass(frozen=True)
class RelIntro(CcqDerivation):
    symbol: str
    arity: int

    def __post_init__(self):
        concl = CcqJudgment(self.arity, RelAtom(self.symbol, tuple(range(self.arity))))
        object.__setattr__(self, "_conclusion", concl)


@dataclass(frozen=True, eq=False, repr=False)
class ConjIntro(Branch, CcqDerivation):
    left: CcqDerivation
    right: CcqDerivation

    def __post_init__(self):
        lj, rj = self.left.conclusion, self.right.conclusion
        total = lj.context + rj.context
        # free variables of the left part keep their indices and the right
        # part's shift up; bound indices on both sides rebase to the wider
        # context (the named-variable reading leaves them untouched)
        lifted = rename(lj.formula, lj.context, total, {})
        shifted = rename(rj.formula, rj.context, total,
                         {i: lj.context + i for i in range(rj.context)})
        concl = CcqJudgment(total, Conj(lifted, shifted))
        object.__setattr__(self, "_conclusion", concl)

    children = property(attrgetter("left", "right"))


@dataclass(frozen=True, eq=False, repr=False)
class ExistsIntro(Branch, CcqDerivation):
    child: CcqDerivation

    def __post_init__(self):
        j = self.child.conclusion
        if j.context < 1:
            raise ValueError("existential closure needs a variable to bind")
        concl = CcqJudgment(j.context - 1, Exists(j.formula))
        object.__setattr__(self, "_conclusion", concl)

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True, eq=False, repr=False)
class SwapVars(Branch, CcqDerivation):
    """Swap free variables k and k+1 in the conclusion."""

    child: CcqDerivation
    k: int
    tags = ("k",)  # unannotated: a class attribute, not a field

    def __post_init__(self):
        j = self.child.conclusion
        if not (0 <= self.k < j.context - 1):
            raise ValueError(f"swap position {self.k} out of range for context {j.context}")
        swapped = rename(j.formula, j.context, j.context,
                         {self.k: self.k + 1, self.k + 1: self.k})
        object.__setattr__(self, "_conclusion", CcqJudgment(j.context, swapped))

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True, eq=False, repr=False)
class MergeVars(Branch, CcqDerivation):
    """Identify the last two free variables, shrinking the context by one."""

    child: CcqDerivation

    def __post_init__(self):
        j = self.child.conclusion
        if j.context < 2:
            raise ValueError("merging needs at least two variables")
        merged = rename(j.formula, j.context, j.context - 1,
                        {j.context - 1: j.context - 2})
        object.__setattr__(self, "_conclusion", CcqJudgment(j.context - 1, merged))

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True, eq=False, repr=False)
class AddVar(Branch, CcqDerivation):
    """Weaken: introduce a fresh last free variable."""

    child: CcqDerivation

    def __post_init__(self):
        j = self.child.conclusion
        widened = rename(j.formula, j.context, j.context + 1, {})
        object.__setattr__(self, "_conclusion", CcqJudgment(j.context + 1, widened))

    @property
    def children(self):
        return (self.child,)


# -- constructing a derivation for any valid judgment ------------------------

def adjacent_swaps(perm: list[int]) -> list[int]:
    """Positions of the adjacent swaps, in order, that move item i to
    position perm[i] (a bubble pass)."""
    k = len(perm)
    arr = list(range(k))  # arr[pos] = item currently at pos
    out = []
    changed = True
    while changed:
        changed = False
        for pos in range(k - 1):
            if perm[arr[pos]] > perm[arr[pos + 1]]:
                arr[pos], arr[pos + 1] = arr[pos + 1], arr[pos]
                out.append(pos)
                changed = True
    return out


def _apply_perm(d: CcqDerivation, perm: list[int]) -> CcqDerivation:
    """Rename free variable i to perm[i] via adjacent swaps."""
    for pos in adjacent_swaps(perm):
        d = SwapVars(d, pos)
    return d


def _merge_positions(d: CcqDerivation, a: int, b: int):
    """Identify the variables at positions a and b.

    Returns the new derivation and a translation old-position -> new.
    The merged variable lands at min(a, b); everything else keeps its
    relative order.
    """
    if a > b:
        a, b = b, a
    ctx = d.conclusion.context
    others = [p for p in range(ctx) if p not in (a, b)]
    to_end = [0] * ctx
    for rank, p in enumerate(others):
        to_end[p] = rank
    to_end[a] = ctx - 2
    to_end[b] = ctx - 1
    d = _apply_perm(d, to_end)
    d = MergeVars(d)
    # survivor is now the last variable; put it back at slot a
    back = [0] * (ctx - 1)
    for rank, p in enumerate(others):
        back[rank] = p if p < b else p - 1
    back[ctx - 2] = a
    d = _apply_perm(d, back)

    def translate(p: int) -> int:
        if p in (a, b):
            return a
        return p if p < b else p - 1

    return d, translate


def derive(j: CcqJudgment) -> CcqDerivation:
    """A derivation of j using only the eight rules; deterministic.

    Grammar nodes are introduced in their canonical shape, variables are
    aligned with swap/merge/weaken moves, conjunctions are combined and
    existentials closed last.  Subformulas are derived over their own free
    variables and weakened afterwards, which keeps derivations small.  One
    fold over the tree of premises (see ``_premise``).
    """
    done: list[tuple] = []  # (derivation, free variables) of finished premises
    for k, f, fv in postorder(_premise(j.context, j.formula), _premises):
        if isinstance(f, Conj):
            right, left = done.pop(), done.pop()
            d = _conj_derivation(k, left, right)
        elif isinstance(f, Exists):
            d = ExistsIntro(_spread(*done.pop(), k + 1))
        else:
            d = _atom_derivation(k, f)
        done.append((d, fv))
    d = _spread(*done.pop(), j.context)
    if d.conclusion != j:
        raise AssertionError(f"derivation concluded {d.conclusion}, wanted {j}")
    return d


def _premise(n: int, f: CcqFormula) -> tuple:
    """``(k, g, fv)``: f read at context n is g read at k = |fv| over
    exactly its free variables fv (sorted), renamed onto 0..k-1."""
    fv = sorted(free_vars(f, n))
    if len(fv) < n:
        f = rename(f, n, len(fv), {v: i for i, v in enumerate(fv)})
    return len(fv), f, fv


def _premises(node: tuple) -> tuple:
    """The premises a node of ``derive``'s tree is derived from: the two
    conjuncts, or the body of an existential with its variable free."""
    k, f, _ = node
    if isinstance(f, Conj):
        return _premise(k, f.lhs), _premise(k, f.rhs)
    if isinstance(f, Exists):
        return (_premise(k + 1, f.body),)
    return ()


def _spread(d: CcqDerivation, fv: list[int], n: int) -> CcqDerivation:
    """Weaken a derivation over |fv| variables to n and send its variable
    i back to position fv[i]."""
    while d.conclusion.context < n:
        d = AddVar(d)
    perm = list(fv)
    perm.extend(sorted(set(range(n)) - set(fv)))
    return _apply_perm(d, perm)


def _conj_derivation(n: int, left: tuple, right: tuple) -> CcqDerivation:
    """Derive n |- l /\\ r from the premises of the two conjuncts by
    merging their shared free variables."""
    (dl, fvl), (dr, fvr) = left, right
    d = ConjIntro(dl, dr)
    pos = {}
    for i, v in enumerate(fvl):
        pos[("l", v)] = i
    for i, v in enumerate(fvr):
        pos[("r", v)] = len(fvl) + i
    for v in sorted(set(fvl) & set(fvr)):
        d, tr = _merge_positions(d, pos[("l", v)], pos[("r", v)])
        pos = {key: tr(p) for key, p in pos.items()}
    perm = [0] * n
    for (side, v), p in pos.items():
        perm[p] = v
    return _apply_perm(d, perm)


def _atom_derivation(n: int, f: CcqFormula) -> CcqDerivation:
    """Derive n |- f for an atomic f in which every variable below n is free."""
    if isinstance(f, Top):
        return TopIntro()  # n == 0 after compaction
    if isinstance(f, Eq):
        if f.i == f.j:
            return MergeVars(EqIntro())  # 1 |- x0 = x0
        if (f.i, f.j) == (0, 1):
            return EqIntro()
        return SwapVars(EqIntro(), 0)  # 2 |- x1 = x0
    if isinstance(f, RelAtom):
        k = len(f.args)
        if f.args == tuple(range(k)):
            return RelIntro(f.symbol, k)
        d = RelIntro(f.symbol, k)
        pos = list(range(k))  # current position of argument slot s
        if n < k:  # repeated arguments: identify later slots with the first
            first: dict[int, int] = {}
            for s, v in enumerate(f.args):
                if v in first:
                    d, tr = _merge_positions(d, pos[first[v]], pos[s])
                    pos = [tr(p) for p in pos]
                else:
                    first[v] = s
        perm = [0] * n
        for s, v in enumerate(f.args):
            perm[pos[s]] = v
        return _apply_perm(d, perm)
    raise TypeError(f"not a formula: {f!r}")


# -- semantics ---------------------------------------------------------------

def natural_model(j: CcqJudgment):
    """The natural model of j: a hypergraph and its free-variable vertices.

    One wire per free variable and per ``Exists``; each ``Eq`` glues two
    wires, each atom is an edge, and one quotient numbers the classes."""
    wires = j.context
    env = list(range(wires))  # variable index -> wire, at the visited context
    glue = []
    edges: dict[str, list] = {}
    for f, ctx in _walk(j.formula, j.context):
        # drop the binders of a finished subtree: an Exists at context k
        # writes slot k only, so the slots below ctx are still this node's
        del env[ctx:]
        if isinstance(f, Exists):
            env.append(wires)
            wires += 1
        elif isinstance(f, Eq):
            glue.append((env[f.i], env[f.j]))
        elif isinstance(f, RelAtom):
            edges.setdefault(f.symbol, []).append((tuple(env[a] for a in f.args), ()))
    g, number = quotient(wires, glue, edges)
    return g, tuple(number[:j.context])


def eval_ccq(j: CcqJudgment, model: RelModel) -> frozenset:
    """The set of context tuples satisfying the judgment in the model.

    These are the images of the free variables under the homomorphisms
    from j's natural model into the model (Chandra and Merlin), found by
    one join of the atoms that checks them against the model's signature
    and projects each bound variable after its last atom.
    """
    g, free = natural_model(j)
    return boundary_assignments(g, free, model)


def replay_eval(d: CcqDerivation, model: RelModel) -> frozenset:
    """Evaluate by induction on a derivation, one clause per rule, in one
    pass over ``postorder``."""
    size = model.size
    done: list[frozenset] = []  # values of finished subderivations
    for e in postorder(d, subtrees):
        if isinstance(e, TopIntro):
            out = frozenset({()})
        elif isinstance(e, EqIntro):
            out = frozenset((v, v) for v in range(size))
        elif isinstance(e, RelIntro):
            sort = model.signature.sort(e.symbol)
            if sort != (e.arity, 0):
                raise SignatureError(f"symbol {e.symbol!r} is not an arity-{e.arity} CQ symbol")
            out = frozenset(a for a, _ in model.rho[e.symbol])
        elif isinstance(e, ConjIntro):
            right, left = done.pop(), done.pop()
            out = frozenset(a + b for a in left for b in right)
        elif isinstance(e, ExistsIntro):
            out = frozenset(t[:-1] for t in done.pop())
        elif isinstance(e, SwapVars):
            k = e.k
            out = frozenset(t[:k] + (t[k + 1], t[k]) + t[k + 2:] for t in done.pop())
        elif isinstance(e, MergeVars):
            out = frozenset(t[:-1] for t in done.pop() if t[-1] == t[-2])
        elif isinstance(e, AddVar):
            out = frozenset(t + (w,) for t in done.pop() for w in range(size))
        else:
            raise TypeError(f"not a derivation: {e!r}")
        done.append(out)
    return done.pop()


# -- concrete syntax ---------------------------------------------------------
#
#   judgment := ctx '|-' formula  |  ctx ',' ctx '|-' formula
#   formula  := conj;  conj := unit ('/\' unit)*
#   unit     := 'top' | var '=' var | Sym '(' var,* ')'
#             | 'exists' name '.' conj | '(' formula ')'
#
# In a one-sided judgment the free variables are x0..x{n-1}; a two-sided
# header "n,m |-" adds y0..y{m-1} (stored at indices n..n+m-1).  Quantifier
# names are arbitrary identifiers; shadowing is rejected.

_CCQ_TOKEN = re.compile(r"\s*(\|-|/\\|[(),.=]|[A-Za-z_][A-Za-z0-9_]*|\d+)")


def parse_ccq(text: str, sig: Signature) -> CcqJudgment:
    """Parse "n |- formula" (or "n,m |- formula") against a signature."""
    left, right, formula = parse_ccq_two_sided(text, sig)
    return CcqJudgment(left + right, formula)


def parse_ccq_two_sided(text: str, sig: Signature):
    tokens = tokenize(_CCQ_TOKEN, text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        pos += 1
        return tok

    def expect(tok):
        got = take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, found {got!r}")

    def natural():
        tok = take()
        if not tok.isdigit():
            raise ParseError(f"expected a context size, found {tok!r}")
        return int(tok)

    left = natural()
    right = 0
    if peek() == ",":
        take()
        right = natural()
    expect("|-")
    n_free = left + right

    bound: dict[str, int] = {}

    def resolve(name: str) -> int:
        if name in bound:
            return bound[name]
        mx = re.fullmatch(r"x(\d+)", name)
        if mx:
            i = int(mx.group(1))
            if i >= left:
                raise ParseError(f"free variable x{i} out of context {left}")
            return i
        my = re.fullmatch(r"y(\d+)", name)
        if my and right > 0:
            i = int(my.group(1))
            if i >= right:
                raise ParseError(f"free variable y{i} out of context {right}")
            return left + i
        raise ParseError(f"unbound variable {name!r}")

    def variable() -> int:
        tok = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise ParseError(f"expected a variable, found {tok!r}")
        return resolve(tok)

    def atom() -> CcqFormula:
        """A unit that is neither parenthesised nor quantified."""
        tok = peek()
        if tok == "top":
            take()
            return Top()
        if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) and \
                pos + 1 < len(tokens) and tokens[pos + 1] == "(":
            name = take()
            try:
                sort = sig.sort(name)
            except SignatureError as exc:
                raise ParseError(str(exc)) from None
            if sort.m != 0:
                raise ParseError(f"symbol {name!r} has coarity {sort.m}; CQ atoms need 0")
            expect("(")
            args = []
            if peek() != ")":
                args.append(variable())
                while peek() == ",":
                    take()
                    args.append(variable())
            expect(")")
            if len(args) != sort.n:
                raise ParseError(f"symbol {name!r} expects {sort.n} arguments, got {len(args)}")
            return RelAtom(name, tuple(args))
        # bare variable must open an equation
        i = variable()
        expect("=")
        jdx = variable()
        return Eq(i, jdx)

    # One loop over the units: ``conj`` is the conjunction built so far at
    # the current level, and each open parenthesis or quantifier saves it
    # on a stack (with the quantified name), so input of any depth parses.
    frames: list[tuple] = []  # (conj around it, name or None for a parenthesis)
    conj = None
    while True:
        tok = peek()
        if tok == "(":
            take()
            frames.append((conj, None))
            conj = None
            continue
        if tok == "exists":
            take()
            name = take()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) or name in ("top", "exists"):
                raise ParseError(f"bad quantifier variable {name!r}")
            if name in bound:
                raise ParseError(f"shadowed variable {name!r}")
            if re.fullmatch(r"x(\d+)", name) and int(name[1:]) < left:
                raise ParseError(f"shadowed variable {name!r}")
            if right > 0 and re.fullmatch(r"y(\d+)", name) and int(name[1:]) < right:
                raise ParseError(f"shadowed variable {name!r}")
            expect(".")
            bound[name] = n_free + len(bound)  # one binder per open quantifier
            frames.append((conj, name))
            conj = None
            continue
        unit = atom()
        while True:  # fold the finished unit in, closing frames as they come
            conj = unit if conj is None else Conj(conj, unit)
            if peek() == "/\\" or not frames:
                break
            outer, name = frames.pop()
            if name is None:
                expect(")")
                unit = conj
            else:
                del bound[name]
                unit = Exists(conj)
            conj = outer
        if peek() != "/\\":
            break  # the top-level conjunction is complete
        take()

    formula = conj
    if pos != len(tokens):
        raise ParseError(f"trailing input near {tokens[pos]!r}")
    try:
        _check(formula, n_free)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return left, right, formula


def print_ccq(j: CcqJudgment) -> str:
    return f"{j.context} |- {format_formula(j.formula, j.context, 0)}"


def format_formula(f: CcqFormula, left: int, right: int) -> str:
    """Render with x/y free variables and z-named bound variables."""
    n_free = left + right

    def var(i: int) -> str:
        if i < left:
            return f"x{i}"
        if i < n_free:
            return f"y{i - left}"
        return f"z{i - n_free}"

    # read the pre-order backwards: each node finds its subformulas' texts
    # on the stack, right conjunct first; a text is kept bare together with
    # whether it needs parentheses inside a conjunction
    done: list[tuple[str, bool]] = []
    for u, depth in reversed(_walk(f, 0)):
        if isinstance(u, Top):
            done.append(("top", False))
        elif isinstance(u, Eq):
            done.append((f"{var(u.i)} = {var(u.j)}", True))
        elif isinstance(u, RelAtom):
            done.append((f"{u.symbol}({', '.join(var(a) for a in u.args)})", False))
        elif isinstance(u, Conj):
            lhs, rhs = done.pop(), done.pop()
            done.append((f"{_inner(lhs)} /\\ {_inner(rhs)}", True))
        elif isinstance(u, Exists):
            done.append((f"exists z{depth}. {done.pop()[0]}", True))
        else:
            raise TypeError(f"not a formula: {u!r}")
    return done.pop()[0]


def _inner(text: tuple[str, bool]) -> str:
    body, wrap = text
    return f"({body})" if wrap else body
