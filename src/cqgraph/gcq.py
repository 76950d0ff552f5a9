"""Diagrammatic query terms: sorted syntax, sugar, parsing, and semantics.

Terms are plain trees built from seven wiring constants, boxes drawn from a
signature, sequential composition ``;`` and parallel composition ``(+)``.
Every node carries its sort ``(n, m)``: the number of dangling wires on the
left and on the right.  No quotienting happens at the data level; equality
up to the diagrammatic laws lives in :mod:`cqgraph.containment`.

Every pass over a tree is a flat loop over ``postorder``, an explicit
stack, so terms (and the formulas and derivations of the other modules)
of any depth are handled under the default recursion limit.  The parser
yields a term's nodes in that order, straight from its tokens (cut by
``str.split`` at the padded punctuation, or by one ``findall``);
``build_term`` folds them into the tree, and ``cospan.compile_nodes`` into
the cospan, with no tree built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from operator import attrgetter

from .errors import ParseError, SignatureError, SortError
from .sigmodel import (
    Relation,
    RelModel,
    Signature,
    Sort,
    _KEYWORDS,
    _trusted,
    check_symbol_name,
    relation_compose,
    relation_tensor,
)


def postorder(root, children) -> list:
    """Every node of the tree under root, each after its children and the
    left subtree before the right: ``children(u)`` lists u's subtrees
    (for the syntax trees of this package, ``subtrees``).

    An explicit stack, so any depth: the pre-order that visits the right
    subtree first, read backwards.
    """
    out, todo = [], [root]
    while todo:
        u = todo.pop()
        out.append(u)
        todo += children(u)
    out.reverse()
    return out


# A node of a term, formula, derivation or converse-algebra term lists its
# subtrees, left to right, in ``children``: a class attribute () on leaves.
subtrees = attrgetter("children")


class Branch:
    """An inner node of a syntax tree, whose fields are its ``children``, then its ``tags``.

    ``==``, ``hash`` and ``repr`` walk the tree with ``postorder`` instead
    of recursing through the fields as the dataclass defaults do.  Put it
    first among the bases and pass ``eq=False, repr=False`` to dataclass.
    """

    tags = ()  # the names of the fields after the children, which hold no subtree

    def _key(self) -> tuple:
        # each leaf, and each inner node's class (fixing its number of
        # subtrees) with its tags, in post-order: equal keys, equal trees
        return tuple(((type(u), *map(u.__getattribute__, u.tags)) if u.tags else type(u))
                     if isinstance(u, Branch) else u for u in postorder(self, subtrees))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        done: list[str] = []  # reprs of finished subtrees
        for u in postorder(self, subtrees):
            if isinstance(u, Branch):
                names = u.__match_args__
                split = len(done) - len(names) + len(u.tags)
                args = done[split:] + [repr(getattr(u, n)) for n in u.tags]
                del done[split:]
                done.append(f"{type(u).__qualname__}("
                            + ", ".join(f"{n}={a}" for n, a in zip(names, args)) + ")")
            else:
                done.append(repr(u))
        return done.pop()


@dataclass(frozen=True)
class GcqTerm:
    """Base class for term nodes; immutable, sort available as ``.sort``."""

    children = ()

    @property
    def sort(self) -> Sort:
        raise NotImplementedError


class Wiring(GcqTerm):
    """A wiring constant, stated once in its class statement: ``name`` is
    its keyword in term text, and ``boundaries(w)`` its left and right
    boundary over the wires it lays down from a first wire w.  From
    ``boundaries(0)`` the class gets ``iota``, ``omega``, its ``sort`` and
    the number of its ``wires``, which the parser, printer, compiler and
    ``lambda_term`` read.  The class enters its keyword in ``_KEYWORDS``,
    the table the parser and ``check_symbol_name`` read.
    """

    def __init_subclass__(cls, name: str, boundaries):
        super().__init_subclass__()
        cls.name, cls.boundaries = name, staticmethod(boundaries)
        _KEYWORDS[name] = cls
        cls.iota, cls.omega = map(tuple, boundaries(0))
        cls.sort = Sort(len(cls.iota), len(cls.omega))
        cls.wires = len(set(cls.iota + cls.omega))
        dataclass(frozen=True)(cls)  # no fields: immutable, and equal to any other of its class


class Copy(Wiring, name="copy", boundaries=lambda w: ([w], [w, w])):
    """Comonoid multiplication: one wire in, two out."""


class Discard(Wiring, name="discard", boundaries=lambda w: ([w], [])):
    """Comonoid counit: one wire in, none out."""


class Merge(Wiring, name="merge", boundaries=lambda w: ([w, w], [w])):
    """Monoid multiplication: two wires in, one out."""


class Spawn(Wiring, name="spawn", boundaries=lambda w: ([], [w])):
    """Monoid unit: no wires in, one out."""


class Id0(Wiring, name="id0", boundaries=lambda w: ([], [])):
    """The empty diagram: no wires."""


class Id1(Wiring, name="id", boundaries=lambda w: ([w], [w])):
    """One wire, straight through."""


class Swap(Wiring, name="swap", boundaries=lambda w: ([w, w + 1], [w + 1, w])):
    """Two wires, crossed."""


@dataclass(frozen=True)
class Gen(GcqTerm):
    """A box labelled with a relation symbol of the given sort."""

    name: str
    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise SortError(f"negative sort for box {self.name!r}")
        check_symbol_name(self.name)  # else its printed text would not read back as this box

    @property
    def sort(self) -> Sort:
        return Sort(self.n, self.m)


@dataclass(frozen=True, eq=False, repr=False)
class Seq(Branch, GcqTerm):
    lhs: GcqTerm
    rhs: GcqTerm

    children = property(attrgetter("lhs", "rhs"))

    def __post_init__(self):
        a, b = self.lhs.sort, self.rhs.sort
        if a.m != b.n:
            raise composition_error(a, b)
        object.__setattr__(self, "_sort", Sort(a.n, b.m))

    @property
    def sort(self) -> Sort:
        return self._sort


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(Branch, GcqTerm):
    lhs: GcqTerm
    rhs: GcqTerm

    children = property(attrgetter("lhs", "rhs"))

    def __post_init__(self):
        a, b = self.lhs.sort, self.rhs.sort
        object.__setattr__(self, "_sort", Sort(a.n + b.n, a.m + b.m))

    @property
    def sort(self) -> Sort:
        return self._sort


def composition_error(a: Sort, b: Sort) -> SortError:
    """The error for ``a ; b`` when a's right width is not b's left width."""
    return SortError(f"cannot compose {a} ; {b}: {a.m} != {b.n}")


def seq(*terms: GcqTerm) -> GcqTerm:
    """Left-associated sequential composition of one or more terms."""
    return reduce(Seq, terms)


def tensor(*terms: GcqTerm) -> GcqTerm:
    """Left-associated parallel composition; empty product is id0."""
    return reduce(Tensor, terms) if terms else Id0()


def identity(n: int) -> GcqTerm:
    """A bundle of n parallel wires."""
    return tensor(*(Id1() for _ in range(n)))


def n_copy(n: int) -> GcqTerm:
    """Bundle-wise copy: sort (n, 2n), duplicating the whole n-wire bundle."""
    out = Id0()
    for k in range(1, n + 1):
        # (copy_1 (+) copy_{k-1}) ; (id (+) swap_{1,k-1} (+) id_{k-1})
        out = Seq(Tensor(Copy(), out),
                  tensor(Id1(), n_swap(1, k - 1), identity(k - 1)))
    return out


def n_merge(n: int) -> GcqTerm:
    """Bundle-wise merge: sort (2n, n)."""
    out = Id0()
    for k in range(1, n + 1):
        out = Seq(tensor(Id1(), n_swap(k - 1, 1), identity(k - 1)),
                  Tensor(Merge(), out))
    return out


def _parallel(leaf: GcqTerm, n: int) -> GcqTerm:
    """n parallel copies of a leaf, nested to the right; id0 for n = 0."""
    if n == 0:
        return Id0()
    out = leaf
    for _ in range(n - 1):
        out = Tensor(leaf, out)
    return out


def n_discard(n: int) -> GcqTerm:
    """n parallel discards: sort (n, 0)."""
    return _parallel(Discard(), n)


def n_spawn(n: int) -> GcqTerm:
    """n parallel spawns: sort (0, n)."""
    return _parallel(Spawn(), n)


def n_swap(n: int, m: int) -> GcqTerm:
    """Block crossing of n wires over m wires: sort (n+m, m+n)."""
    if n == 0 or m == 0:
        return identity(n + m)
    row = Swap()  # swap_{1,k}, grown one wire at a time:
    for k in range(2, m + 1):
        # (swap (+) id_{k-1}) ; (id (+) swap_{1,k-1})
        row = Seq(Tensor(Swap(), identity(k - 1)), Tensor(Id1(), row))
    out = row  # swap_{k,m}, grown one wire at a time:
    for k in range(2, n + 1):
        # (id (+) swap_{k-1,m}) ; (swap_{1,m} (+) id_{k-1})
        out = Seq(Tensor(Id1(), out), Tensor(row, identity(k - 1)))
    return out


def term_signature(t: GcqTerm) -> Signature:
    """The signature spanned by the boxes occurring in t."""
    table: dict[str, Sort] = {}
    for u in postorder(t, subtrees):
        if isinstance(u, Gen) and table.setdefault(u.name, u.sort) != u.sort:
            raise SignatureError(f"symbol {u.name!r} used at two sorts")
    return _trusted(Signature, _table={name: table[name] for name in sorted(table)})


def eval_gcq(t: GcqTerm, model: RelModel) -> Relation:
    """The relation denoted by t in the given model.

    Constants get their fixed interpretation, boxes look up ``rho``,
    composition and tensor go to the relation algebra, in one pass over
    ``postorder``.  It is the reference oracle; ``eval`` and ``translate
    --verify`` join a term's compiled cospan into the model instead.
    """
    done: list[Relation] = []  # relations of finished subterms
    for u in postorder(t, subtrees):
        if isinstance(u, Seq):
            rhs = done.pop()
            done[-1] = relation_compose(done[-1], rhs)
        elif isinstance(u, Tensor):
            rhs = done.pop()
            done[-1] = relation_tensor(done[-1], rhs)
        else:
            done.append(_leaf_relation(u, model))
    return done.pop()


# the pairs of each wiring constant over the carrier xs: the reference
# oracle's own table, apart from the ``Wiring`` classes the compiler reads,
# so that the two check each other
_CONSTANT_PAIRS = {
    Copy: lambda xs: (((x,), (x, x)) for x in xs),
    Discard: lambda xs: (((x,), ()) for x in xs),
    Merge: lambda xs: (((x, x), (x,)) for x in xs),
    Spawn: lambda xs: (((), (x,)) for x in xs),
    Id0: lambda xs: [((), ())],
    Id1: lambda xs: (((x,), (x,)) for x in xs),
    Swap: lambda xs: (((x, y), (y, x)) for x in xs for y in xs),
}


def _leaf_relation(t: GcqTerm, model: RelModel) -> Relation:
    if isinstance(t, Gen):
        if t.name not in model.signature:
            raise SignatureError(f"model does not interpret symbol {t.name!r}")
        rel = model.relation(t.name)
        if rel.sort != t.sort:
            raise SignatureError(
                f"model interprets {t.name!r} at sort {rel.sort}, term uses {t.sort}")
        return rel
    if type(t) not in _CONSTANT_PAIRS:
        raise TypeError(f"not a term: {t!r}")
    pairs = frozenset(_CONSTANT_PAIRS[type(t)](range(model.size)))
    return _trusted(Relation, sort=t.sort, carrier_size=model.size, pairs=pairs)


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   seq    := ten (';' ten)*            composition, left-assoc, lowest
#   ten    := atom ('(+)' atom)*        tensor, left-assoc
#   atom   := '(' seq ')' | constant | symbol-name
#
# Constants: the ``name`` of each ``Wiring`` class, as ``_KEYWORDS`` lists them.

# one token, or (the second group) a character that starts none
_ONE_TOKEN = r"\(\+\)|[();]|[A-Za-z_][A-Za-z0-9_]*"
_TOKEN = re.compile(rf"\s*(?:({_ONE_TOKEN})|(\S))")
# pad the punctuation with spaces, keeping "(+)" whole behind a placeholder
_CUTS = (("(+)", "\0"), ("(", " ( "), (")", " ) "), (";", " ; "), ("\0", " (+) "))
_WHOLE = re.compile(_ONE_TOKEN)


def tokenize(token: re.Pattern, text: str, cuts, whole: re.Pattern) -> list[str]:
    """The first groups of ``token`` over text; a character no token covers
    matches the second group, a ParseError.

    Text that the grammar's ``cuts`` (replacements that pad its punctuation
    with spaces) and ``str.split`` break into chunks that are each one
    ``whole`` token needs no regex scan.  Any other text, or text holding
    the placeholder ``\\0`` of the cuts, goes through one ``findall``.
    """
    if "\0" not in text:
        chunks = reduce(lambda cut, pad: cut.replace(*pad), cuts, text).split()
        if all(map(whole.fullmatch, set(chunks))):
            return chunks
    pairs = token.findall(text)
    tokens = [tok for tok, _ in pairs]
    if "" in tokens:
        raise ParseError(f"unexpected character {pairs[tokens.index('')][1]!r}")
    return tokens


def parse_nodes(text: str, sig: Signature):
    """The nodes of the term text spells, in postorder and one at a time, so
    errors come in text order whatever folds them: a leaf as a term, with
    its box name resolved in sig, an inner node as its class, ``Seq`` or
    ``Tensor``.  One loop over the tokens: ``composite`` and ``tensored``
    say whether a ``;`` and a ``(+)`` chain are open at the current depth,
    and each open parenthesis saves that pair on a stack, so any depth parses.
    """
    tokens = tokenize(_TOKEN, text, _CUTS, _WHOLE) + [None]  # None marks the end
    frames: list[tuple] = []  # (composite, tensored) around each open parenthesis
    composite = tensored = False
    leaves = {name: cls() for name, cls in _KEYWORDS.items()}  # immutable, so one per name
    pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            frames.append((composite, tensored))
            composite = tensored = False
            continue
        atom = leaves.get(tok)
        if atom is None:
            if tok is None:
                raise ParseError("unexpected end of input")
            if tok in (";", ")", "(+)"):
                raise ParseError(f"unexpected token {tok!r}")
            sort = sig.sort(tok)
            atom = leaves[tok] = Gen(tok, sort.n, sort.m)
        yield atom
        while True:  # fold the finished atom in, closing parentheses as they come
            if tensored:
                yield Tensor
            tensored = True
            tok = tokens[pos]
            pos += 1
            if tok == "(+)":
                break
            if composite:
                yield Seq
            composite, tensored = True, False
            if tok == ";":
                break
            if not frames:
                if tok is not None:
                    raise ParseError(f"trailing input near {tok!r}")
                return
            if tok != ")":
                raise ParseError(f"expected ')', found {tok!r}")
            composite, tensored = frames.pop()  # the group is the atom of the outer chain


def build_term(nodes) -> GcqTerm:
    """The tree of a term from its nodes in postorder, as ``parse_nodes`` gives them."""
    done: list[GcqTerm] = []  # finished subterms
    for u in nodes:
        if u is Seq or u is Tensor:
            rhs = done.pop()
            done[-1] = u(done[-1], rhs)
        else:
            done.append(u)
    return done.pop()


def parse_gcq(text: str, sig: Signature, into=build_term):
    """Parse a term against sig and fold its nodes ``into`` the tree, or,
    with ``cospan.compile_nodes``, straight into its cospan: no tree built."""
    return into(parse_nodes(text, sig))


def print_gcq(t: GcqTerm) -> str:
    """Render with minimal parentheses; parse_gcq(print_gcq(t)) == t."""
    out: list[str] = []
    todo: list = [(t, 0)]  # text, or (subterm, least precedence it may show)
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        u, min_prec = item
        prec = 0 if isinstance(u, Seq) else 1 if isinstance(u, Tensor) else 2
        if prec < min_prec:
            todo += (")", (u, 0), "(")
        elif isinstance(u, Seq):
            todo += ((u.rhs, 1), " ; ", (u.lhs, 0))
        elif isinstance(u, Tensor):
            todo += ((u.rhs, 2), " (+) ", (u.lhs, 1))
        else:
            out.append(u.name)
    return "".join(out)
