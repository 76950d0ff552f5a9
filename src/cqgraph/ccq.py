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
from operator import attrgetter

from .errors import ParseError, SignatureError
from .gcq import Branch, postorder, tokenize
from .hypergraph import join_plan, quotient
from .sigmodel import _NAME, Record, RelModel, Signature, _trusted, check_symbol_name


# -- formulas ----------------------------------------------------------------

class CcqFormula(Record):
    children = ()


class Top(CcqFormula):
    pass


class Conj(Branch, CcqFormula):
    lhs: CcqFormula
    rhs: CcqFormula


class Eq(CcqFormula):
    i: int
    j: int


class RelAtom(CcqFormula):
    symbol: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


class Exists(Branch, CcqFormula):
    body: CcqFormula


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
        if isinstance(u, RelAtom):
            try:
                check_symbol_name(u.symbol)  # else its printed text would not parse back
            except SignatureError as exc:
                raise ValueError(f"atom {exc}") from None
        if isinstance(u, (Eq, RelAtom)):
            for x in _vars(u):
                if type(x) is not int or not 0 <= x < c:
                    raise ValueError(f"variable out of context {c} in {u}")
        elif not isinstance(u, (Top, Conj, Exists)):
            raise TypeError(f"not a formula: {u!r}")


def assemble(order: list) -> CcqFormula:
    """The formula whose pre-order is ``order``: its atoms, with the classes
    ``Conj`` and ``Exists`` standing for those nodes.  Read backwards, each
    marker finds its subformulas on the stack, its left conjunct on top."""
    done: list[CcqFormula] = []  # finished subformulas
    for u in reversed(order):
        if u is Conj:
            rhs = done.pop()
            done[-1] = Conj(done[-1], rhs)
        elif u is Exists:
            done[-1] = Exists(done[-1])
        else:
            done.append(u)
    return done.pop()


class CcqJudgment(Record):
    context: int
    formula: CcqFormula

    def __post_init__(self):
        if type(self.context) is not int or self.context < 0:
            raise ValueError("context must be a natural")
        _check(self.formula, self.context)


# -- derivations -------------------------------------------------------------

class CcqDerivation(Record):
    """A derivation tree of the eight rules.  Each node knows only its
    ``context``, the size of its conclusion's context; ``conclusion``
    builds the judgment from the whole tree."""

    children = ()  # the premises

    @property
    def conclusion(self) -> CcqJudgment:
        """The judgment derived, built once.

        Walking down, each node's context slots are mapped to variables of
        the root formula, with the context ``depth`` its formula is read at
        there; ``assemble`` folds the walk's pre-order into the formula.
        """
        order = []  # the formula in pre-order: atoms, and the markers Conj and Exists
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
                order.append(Conj)
                k = e.left.context
                todo += ((e.left, slots[:k], depth), (e.right, slots[k:], depth))
            elif isinstance(e, _Step):  # its slots serve its premise alone
                if isinstance(e, ExistsIntro):
                    order.append(Exists)
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
        return CcqJudgment(self.context, assemble(order))


class TopIntro(CcqDerivation):
    context = 0


class EqIntro(CcqDerivation):
    context = 2


class RelIntro(CcqDerivation):
    symbol: str
    arity: int

    context = property(attrgetter("arity"))


class ConjIntro(Branch, CcqDerivation):
    """The left conclusion's context, then the right one's."""

    left: CcqDerivation
    right: CcqDerivation

    def __post_init__(self):
        object.__setattr__(self, "context", self.left.context + self.right.context)


class _Step(Branch, CcqDerivation):
    """A rule with one premise."""

    child: CcqDerivation


class ExistsIntro(_Step):
    """Bind the last free variable."""

    def __post_init__(self):
        if self.child.context < 1:
            raise ValueError("existential closure needs a variable to bind")
        object.__setattr__(self, "context", self.child.context - 1)


class SwapVars(_Step):
    """Swap free variables k and k+1 in the conclusion."""

    k: int
    tags = ("k",)  # unannotated: a class attribute, not a field

    def __post_init__(self):
        n = self.child.context
        if not (0 <= self.k < n - 1):
            raise ValueError(f"swap position {self.k} out of range for context {n}")
        object.__setattr__(self, "context", n)


class MergeVars(_Step):
    """Identify the last two free variables, shrinking the context by one."""

    def __post_init__(self):
        if self.child.context < 2:
            raise ValueError("merging needs at least two variables")
        object.__setattr__(self, "context", self.child.context - 1)


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


def _swap(d: CcqDerivation, positions) -> CcqDerivation:
    """Apply the adjacent swaps at ``positions``, in order."""
    for k in positions:
        d = SwapVars(d, k)
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
    Scanning left to right, slot s is merged into the first earlier slot a
    with its variable.  The swaps are those of the bubble passes that move
    a and s to the end, the other n - 2 slots keeping their order, and
    then the merged slot back to a: the first pass moves a to s - 1 and s
    to the end, the second a to n - 2, and after ``MergeVars`` each pass
    moves the merged slot left one place.  Returns the derivation, now
    over the distinct variables in ascending order, and that list.
    """
    first: dict[int, int] = {}  # variable -> the slot it kept
    s = 0
    while s < len(labels):
        a = first.setdefault(labels[s], s)
        if a == s:
            s += 1
            continue
        n = len(labels)
        d = _swap(d, [*range(a, s - 1), *range(s, n - 1), *range(s - 1, n - 2)])
        d = _swap(MergeVars(d), range(n - 3, a - 1, -1))
        del labels[s]  # slots before s keep their places
    fv = sorted(labels)
    rank = {v: i for i, v in enumerate(fv)}
    return _swap(d, adjacent_swaps([rank[v] for v in labels])), fv


def _spread(d: CcqDerivation, fv: list[int], n: int) -> CcqDerivation:
    """Weaken a derivation over |fv| variables to n and send its variable
    i back to position fv[i]."""
    while d.context < n:
        d = AddVar(d)
    perm = list(fv)
    perm.extend(sorted(set(range(n)) - set(fv)))
    return _swap(d, adjacent_swaps(perm))


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
    return join_plan(g, free)(model)


def replay_eval(d: CcqDerivation, model: RelModel) -> frozenset:
    """Evaluate by induction on a derivation, one clause per rule, in one
    pass over ``postorder``."""
    size = model.size
    done: list[frozenset] = []  # values of finished subderivations
    for e in postorder(d):
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
_ONE_CCQ_TOKEN = rf"\|-|/\\|[(),.=]|{_NAME.pattern}|\d+"
_CCQ_TOKEN = re.compile(rf"\s*(?:({_ONE_CCQ_TOKEN})|(\S))")
_CCQ_CUTS = tuple((p, f" {p} ") for p in ("|-", "/\\", "(", ")", ",", ".", "="))
_CCQ_WHOLE = re.compile(_ONE_CCQ_TOKEN)
_SIZE = re.compile(r"\d+")
_WANTED = {_NAME: "a variable", _SIZE: "a context size"}  # what a pattern asks for
_FREE = re.compile(r"([xy])(\d+)")


def _number(digits: str) -> int:
    """The natural ``digits`` spells; past ``int``'s limit (4,300 digits) a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a number of {len(digits)} digits is too long") from None


def parse_ccq(text: str, sig: Signature) -> CcqJudgment:
    """Parse "n |- formula" (or "n,m |- formula") against a signature."""
    left, right, formula = parse_ccq_two_sided(text, sig)
    return _trusted(CcqJudgment, context=left + right, formula=formula)  # checked there


def parse_ccq_two_sided(text: str, sig: Signature):
    """``(left, right, formula)`` of "left |- formula" or "left,right |- formula".

    One loop over the tokens, which end in two ``None``s, so a look one
    token ahead needs no bounds check: ``conj`` is the conjunction built so
    far at the current depth, and each open parenthesis or quantifier saves
    it on a stack, with the quantified name, so input of any depth parses.
    Each variable is resolved in its context as it is read, so the formula
    needs no second walk: ``x_i`` resolves only when ``i < left``, ``y_i``
    only when ``i < right`` (as ``left + i``), and a bound name to
    ``left + right`` plus the number of quantifiers open outside its own,
    which is below the context of every body it is read in.
    """
    tokens = tokenize(_CCQ_TOKEN, text, _CCQ_CUTS, _CCQ_WHOLE) + [None, None]  # None marks the end
    pos = 0

    def take(want=None):
        """The next token; if ``want`` is given, it must be that token or spell that pattern."""
        nonlocal pos
        tok = tokens[pos]
        if tok is None:
            raise ParseError("unexpected end of input")
        pos += 1
        if want is None or tok == want or want in _WANTED and want.fullmatch(tok):
            return tok
        raise ParseError(f"expected {_WANTED.get(want) or repr(want)}, found {tok!r}")

    def free(name: str):
        """(side, index, side size) of the free variable name spells, or None."""
        m = _FREE.fullmatch(name)
        if m and (m[1] == "x" or right):
            return m[1], _number(m[2]), left if m[1] == "x" else right
        return None

    left, right = _number(take(_SIZE)), 0
    if tokens[pos] == ",":
        pos += 1
        right = _number(take(_SIZE))
    take("|-")

    bound: dict[str, int] = {}  # each open quantifier's name -> its variable
    frames: list[tuple] = []  # (conj around it, name or None for a parenthesis)
    conj = None
    while True:
        tok = tokens[pos]
        applied = tokens[pos + 1] == "("  # a name before "(" is a symbol
        if tok == "(" or tok == "exists" and not applied:
            pos += 1
            name = None if tok == "(" else take()
            if name is not None:
                if not _NAME.fullmatch(name) or name in ("top", "exists"):
                    raise ParseError(f"bad quantifier variable {name!r}")
                spelled = free(name)
                if name in bound or spelled and spelled[1] < spelled[2]:
                    raise ParseError(f"shadowed variable {name!r}")
                take(".")
                bound[name] = left + right + len(bound)  # one binder per open quantifier
            frames.append((conj, name))
            conj = None
            continue
        if tok == "top" and not applied:
            pos += 1
            unit = Top()
        else:
            atom = applied and _NAME.fullmatch(tok) is not None  # else an equation, from tok on
            if atom:
                try:
                    sort = sig.sort(tok)
                except SignatureError as exc:
                    raise ParseError(str(exc)) from None
                if sort.m != 0:
                    raise ParseError(f"symbol {tok!r} has coarity {sort.m}; CQ atoms need 0")
                pos += 2  # the symbol and its "("
            args = []  # the atom's arguments, or the equation's two sides
            while not atom or args or tokens[pos] != ")":  # an atom may have none
                name = take(_NAME)
                index = bound.get(name)
                if index is None:
                    spelled = free(name)
                    if spelled is None:
                        raise ParseError(f"unbound variable {name!r}")
                    side, i, size = spelled
                    if i >= size:
                        raise ParseError(f"free variable {side}{i} out of context {size}")
                    index = i if side == "x" else left + i
                args.append(index)
                if atom and tokens[pos] != "," or not atom and len(args) == 2:
                    break
                take("," if atom else "=")
            if atom:
                take(")")
                if len(args) != sort.n:
                    raise ParseError(f"symbol {tok!r} expects {sort.n} arguments, got {len(args)}")
                unit = RelAtom(tok, tuple(args))
            else:
                unit = Eq(*args)
        while True:  # fold the finished unit in, closing frames as they come
            conj = unit if conj is None else Conj(conj, unit)
            if tokens[pos] == "/\\" or not frames:
                break
            outer, name = frames.pop()
            if name is None:
                take(")")
            else:
                del bound[name]
                conj = Exists(conj)
            unit, conj = conj, outer
        if tokens[pos] != "/\\":
            break  # the top-level conjunction is complete
        pos += 1

    if tokens[pos] is not None:
        raise ParseError(f"trailing input near {tokens[pos]!r}")
    return left, right, conj


def print_ccq(j: CcqJudgment) -> str:
    return f"{j.context} |- {format_formula(j.formula, j.context, 0)}"


def format_formula(f: CcqFormula, left: int, right: int) -> str:
    """Render with x/y free variables and z-named bound variables.

    Text pieces go on one explicit stack, as in ``print_gcq``, and are
    joined once.  A conjunct that is an equation, a conjunction or an
    existential is parenthesised.
    """
    n_free = left + right

    def var(i: int) -> str:
        if i < left:
            return f"x{i}"
        if i < n_free:
            return f"y{i - left}"
        return f"z{i - n_free}"

    out: list[str] = []
    todo: list = [(f, 0, False)]  # text, or (subformula, its depth, whether a conjunct)
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        u, depth, conjunct = item
        if conjunct and isinstance(u, (Eq, Conj, Exists)):
            todo += (")", (u, depth, False), "(")
        elif isinstance(u, Conj):
            todo += ((u.rhs, depth, True), " /\\ ", (u.lhs, depth, True))
        elif isinstance(u, Exists):
            todo += ((u.body, depth + 1, False), f"exists z{depth}. ")
        elif isinstance(u, Top):
            out.append("top")
        elif isinstance(u, Eq):
            out.append(f"{var(u.i)} = {var(u.j)}")
        elif isinstance(u, RelAtom):
            out.append(f"{u.symbol}({', '.join(var(a) for a in u.args)})")
        else:
            raise TypeError(f"not a formula: {u!r}")
    return "".join(out)
