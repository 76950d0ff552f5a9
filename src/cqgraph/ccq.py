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
from .sigmodel import RelModel, Signature, _trusted


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
    """A derivation tree of the eight rules.  Each node knows only its
    ``context``, the size of its conclusion's context; ``conclusion``
    builds the judgment from the whole tree."""

    children = ()  # the premises

    @property
    def conclusion(self) -> CcqJudgment:
        """The judgment derived, built once.

        Walking down, each node's context slots are mapped to variables of
        the root formula, with the context ``depth`` its formula is read at
        there; reading that walk backwards builds the formula.
        """
        order = []  # nodes that build formula, in pre-order; leaves as their atoms
        todo = [(self, list(range(self.context)), self.context)]
        while todo:
            e, slots, depth = todo.pop()
            if isinstance(e, TopIntro):
                order.append(Top())
            elif isinstance(e, EqIntro):
                order.append(Eq(*slots))
            elif isinstance(e, RelIntro):
                order.append(RelAtom(e.symbol, tuple(slots)))
            elif isinstance(e, ConjIntro):
                order.append(e)
                k = e.left.context
                todo += ((e.left, slots[:k], depth), (e.right, slots[k:], depth))
            elif isinstance(e, _Step):  # its slots serve its premise alone
                if isinstance(e, ExistsIntro):
                    order.append(e)
                    slots.append(depth)  # an Exists read at depth binds index depth
                    depth += 1
                elif isinstance(e, SwapVars):
                    k = e.k
                    slots[k], slots[k + 1] = slots[k + 1], slots[k]
                elif isinstance(e, MergeVars):
                    slots.append(slots[-1])
                elif isinstance(e, AddVar):
                    slots.pop()
                todo.append((e.child, slots, depth))
            else:
                raise TypeError(f"not a derivation: {e!r}")
        done: list[CcqFormula] = []  # finished subformulas
        for u in reversed(order):
            if isinstance(u, ConjIntro):
                rhs = done.pop()
                done[-1] = Conj(done[-1], rhs)
            elif isinstance(u, ExistsIntro):
                done[-1] = Exists(done[-1])
            else:
                done.append(u)
        return CcqJudgment(self.context, done.pop())


@dataclass(frozen=True)
class TopIntro(CcqDerivation):
    context = 0


@dataclass(frozen=True)
class EqIntro(CcqDerivation):
    context = 2


@dataclass(frozen=True)
class RelIntro(CcqDerivation):
    symbol: str
    arity: int

    context = property(attrgetter("arity"))


@dataclass(frozen=True, eq=False, repr=False)
class ConjIntro(Branch, CcqDerivation):
    """The left conclusion's context, then the right one's."""

    left: CcqDerivation
    right: CcqDerivation

    def __post_init__(self):
        object.__setattr__(self, "context", self.left.context + self.right.context)

    children = property(attrgetter("left", "right"))


@dataclass(frozen=True, eq=False, repr=False)
class _Step(Branch, CcqDerivation):
    """A rule with one premise."""

    child: CcqDerivation

    children = property(lambda self: (self.child,))


@dataclass(frozen=True, eq=False, repr=False)
class ExistsIntro(_Step):
    """Bind the last free variable."""

    def __post_init__(self):
        if self.child.context < 1:
            raise ValueError("existential closure needs a variable to bind")
        object.__setattr__(self, "context", self.child.context - 1)


@dataclass(frozen=True, eq=False, repr=False)
class SwapVars(_Step):
    """Swap free variables k and k+1 in the conclusion."""

    k: int
    tags = ("k",)  # unannotated: a class attribute, not a field

    def __post_init__(self):
        n = self.child.context
        if not (0 <= self.k < n - 1):
            raise ValueError(f"swap position {self.k} out of range for context {n}")
        object.__setattr__(self, "context", n)


@dataclass(frozen=True, eq=False, repr=False)
class MergeVars(_Step):
    """Identify the last two free variables, shrinking the context by one."""

    def __post_init__(self):
        if self.child.context < 2:
            raise ValueError("merging needs at least two variables")
        object.__setattr__(self, "context", self.child.context - 1)


@dataclass(frozen=True, eq=False, repr=False)
class AddVar(_Step):
    """Weaken: introduce a fresh last free variable."""

    def __post_init__(self):
        object.__setattr__(self, "context", self.child.context + 1)


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


def derive(j: CcqJudgment) -> CcqDerivation:
    """A derivation of j using only the eight rules; deterministic.

    One fold over the formula.  Each subformula is derived over exactly
    its free variables, in ascending order: an atom or a conjunction is
    introduced in its canonical shape and its variables aligned by
    ``_align``, an existential weakens its body when the bound variable
    is unused and then closes it.  The root is weakened to j's context.
    """
    done: list[tuple] = []  # (derivation, its sorted free variables) of finished subformulas
    for f, ctx in reversed(_walk(j.formula, j.context)):
        if isinstance(f, Conj):
            (dl, left), (dr, right) = done.pop(), done.pop()
            d, fv = _align(ConjIntro(dl, dr), left + right)
        elif isinstance(f, Exists):
            d, fv = done.pop()
            if fv and fv[-1] == ctx:  # the bound variable, the largest the body has
                fv.pop()
            else:
                d = AddVar(d)
            d = ExistsIntro(d)
        else:  # top, an equation or an atom, over the variables it mentions
            leaf = (TopIntro() if isinstance(f, Top) else EqIntro() if isinstance(f, Eq)
                    else RelIntro(f.symbol, len(f.args)))
            d, fv = _align(leaf, list(_vars(f)))
        done.append((d, fv))
    d = _spread(*done.pop(), j.context)
    if d.conclusion != j:
        raise AssertionError(f"derivation concluded {d.conclusion}, wanted {j}")
    return d


def _align(d: CcqDerivation, labels: list[int]) -> tuple:
    """Merge the slots of d that carry the same variable, then sort them.

    ``labels[p]`` is the variable at slot p (the list is consumed).
    Scanning left to right, a slot is merged into the first earlier slot
    with its variable: the two are swapped to the end (the others keep
    their order), merged, and the survivor is swapped back.  Returns the
    derivation, now over the distinct variables in ascending order, and
    that list.
    """
    first: dict[int, int] = {}  # variable -> the slot it kept
    s = 0
    while s < len(labels):
        a = first.setdefault(labels[s], s)
        if a == s:
            s += 1
            continue
        n = len(labels)
        others = [p for p in range(n) if p != a and p != s]
        to_end = [0] * n
        for rank, p in enumerate(others + [a, s]):
            to_end[p] = rank
        d = MergeVars(_apply_perm(d, to_end))
        d = _apply_perm(d, [p if p < s else p - 1 for p in others] + [a])
        del labels[s]  # slots before s keep their places
    fv = sorted(labels)
    rank = {v: i for i, v in enumerate(fv)}
    return _apply_perm(d, [rank[v] for v in labels]), fv


def _spread(d: CcqDerivation, fv: list[int], n: int) -> CcqDerivation:
    """Weaken a derivation over |fv| variables to n and send its variable
    i back to position fv[i]."""
    while d.context < n:
        d = AddVar(d)
    perm = list(fv)
    perm.extend(sorted(set(range(n)) - set(fv)))
    return _apply_perm(d, perm)


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
# names are arbitrary identifiers; shadowing is rejected.  Before '(' the
# words 'top' and 'exists' are symbols, so a signature may use them.

# a token of a formula; the tokenizer pads the punctuation with spaces
_ONE_CCQ_TOKEN = r"\|-|/\\|[(),.=]|[A-Za-z_][A-Za-z0-9_]*|\d+"
_CCQ_TOKEN = re.compile(rf"\s*(?:({_ONE_CCQ_TOKEN})|(\S))")
_CCQ_CUTS = tuple((p, f" {p} ") for p in ("|-", "/\\", "(", ")", ",", ".", "="))
_CCQ_WHOLE = re.compile(_ONE_CCQ_TOKEN)
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_X, _Y = re.compile(r"x(\d+)"), re.compile(r"y(\d+)")


def parse_ccq(text: str, sig: Signature) -> CcqJudgment:
    """Parse "n |- formula" (or "n,m |- formula") against a signature."""
    left, right, formula = parse_ccq_two_sided(text, sig)
    return _trusted(CcqJudgment, context=left + right, formula=formula)  # checked there


def parse_ccq_two_sided(text: str, sig: Signature):
    tokens = tokenize(_CCQ_TOKEN, text, _CCQ_CUTS, _CCQ_WHOLE)
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
        mx = _X.fullmatch(name)
        if mx:
            i = int(mx.group(1))
            if i >= left:
                raise ParseError(f"free variable x{i} out of context {left}")
            return i
        my = _Y.fullmatch(name)
        if my and right > 0:
            i = int(my.group(1))
            if i >= right:
                raise ParseError(f"free variable y{i} out of context {right}")
            return left + i
        raise ParseError(f"unbound variable {name!r}")

    def variable() -> int:
        tok = take()
        if not _NAME.fullmatch(tok):
            raise ParseError(f"expected a variable, found {tok!r}")
        return resolve(tok)

    def applied() -> bool:  # is the current token a symbol, before its arguments?
        return tokens[pos + 1:pos + 2] == ["("]

    def atom() -> CcqFormula:
        """A unit that is neither parenthesised nor quantified."""
        tok = peek()
        if tok == "top" and not applied():
            take()
            return Top()
        if tok is not None and _NAME.fullmatch(tok) and applied():
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
        if tok == "exists" and not applied():
            take()
            name = take()
            if not _NAME.fullmatch(name) or name in ("top", "exists"):
                raise ParseError(f"bad quantifier variable {name!r}")
            if name in bound:
                raise ParseError(f"shadowed variable {name!r}")
            if _X.fullmatch(name) and int(name[1:]) < left:
                raise ParseError(f"shadowed variable {name!r}")
            if right > 0 and _Y.fullmatch(name) and int(name[1:]) < right:
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
