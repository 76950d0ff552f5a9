"""Hypergraphs with interfaces: cospans, pushout composition, and the
compiler between diagram terms and cospans.

A cospan ``n -> apex <- m`` is a hypergraph together with two boundary
maps from the finite ordinals ``n`` and ``m`` into its vertices.
Composition glues two cospans along the shared boundary by quotienting
vertices (a pushout over discrete boundaries, computed with union-find);
tensor is disjoint union.  This algebra is the reference for
``compile_nodes``, which compiles a whole term as one colimit: one pass
over its events in text order, from a tree (``term_to_cospan``) or straight
from the parser (``parse_gcq(text, sig, into=compile_nodes)``), threading
wires forward, then one quotient of the wires that ``merge`` glues.
``cospan_to_term`` writes any cospan back as a term whose compilation is
isomorphic to it.
"""

from __future__ import annotations

from .ccq import CcqJudgment, adjacent_swaps, natural_model
from .errors import ModelError, SortError
from .gcq import (
    Copy,
    Discard,
    Gen,
    GcqTerm,
    Id1,
    Merge,
    Seq,
    Spawn,
    Swap,
    Tensor,
    Wiring,
    composition_error,
    identity,
    seq,
    tensor,
    term_nodes,
)
from .hypergraph import (
    Hypergraph,
    hypergraph_to_dot,
    is_isomorphic,
    pushout,
    quotient,
)
from .sigmodel import Record, Sort, _trusted


class Cospan(Record):
    n: int
    m: int
    apex: Hypergraph
    iota: tuple
    omega: tuple

    def __post_init__(self):
        if not isinstance(self.apex, Hypergraph):
            raise ModelError("the apex must be a Hypergraph")
        try:
            object.__setattr__(self, "iota", tuple(self.iota))
            object.__setattr__(self, "omega", tuple(self.omega))
        except TypeError:
            raise ModelError("boundary maps must be sequences of vertex ids") from None
        if (type(self.n) is not int or type(self.m) is not int
                or len(self.iota) != self.n or len(self.omega) != self.m):
            raise ModelError("boundary maps must cover the ordinals")
        for v in self.iota + self.omega:
            if type(v) is not int or not 0 <= v < self.apex.vcount:
                raise ModelError("boundary map leaves the apex")

    @property
    def sort(self) -> Sort:
        return Sort(self.n, self.m)


def compose_cospans(a: Cospan, b: Cospan) -> Cospan:
    """Glue a and b along their shared boundary: apex is the pushout."""
    if a.m != b.n:
        raise SortError(f"cannot compose cospans {a.sort} ; {b.sort}")
    apex, qa, qb = pushout(a.omega, b.iota, a.apex, b.apex)
    return _trusted(Cospan, n=a.n, m=b.m, apex=apex,
                    iota=tuple(qa[v] for v in a.iota), omega=tuple(qb[v] for v in b.omega))


def tensor_cospans(a: Cospan, b: Cospan) -> Cospan:
    """Lay a and b side by side: apex is the pushout over the empty ordinal."""
    apex, qa, qb = pushout((), (), a.apex, b.apex)
    return _trusted(Cospan, n=a.n + b.n, m=a.m + b.m, apex=apex,
                    iota=tuple(qa[v] for v in a.iota) + tuple(qb[v] for v in b.iota),
                    omega=tuple(qa[v] for v in a.omega) + tuple(qb[v] for v in b.omega))


def identity_cospan(n: int) -> Cospan:
    wires = tuple(range(n))
    return _trusted(Cospan, n=n, m=n, apex=Hypergraph(n), iota=wires, omega=wires)


def term_to_cospan(t: GcqTerm | CcqJudgment | Cospan) -> Cospan:
    """Compile a term's events to its cospan; a cospan is returned as it is.

    A judgment ``n |- f`` compiles to its natural model with the free
    variables on the left boundary: the cospan of ``theta`` of it, up to
    isomorphism.  Its vertices are numbered by their first wire: the free
    variables, then the ``Exists`` binders in pre-order.
    """
    if isinstance(t, Cospan):
        return t
    if isinstance(t, CcqJudgment):
        g, free = natural_model(t)
        return _trusted(Cospan, n=t.context, m=0, apex=g, iota=free, omega=())
    return compile_nodes(term_nodes(t))


def compile_nodes(nodes) -> Cospan:
    """The cospan of a term's events (``gcq.parse_nodes``, ``gcq.term_nodes``)
    in one pass that threads wires forward.  An operand reads its inputs from
    the source around its chain if it is the chain's first, else, in full,
    from the outputs of the operand before it.  Every open operand writes its
    outputs to one list from its own start, so a group's outputs land where
    its operand's next ones belong, and closing it moves nothing; a ``;`` cuts
    the finished operand's outputs off the list as the next one's source.
    Each wire cut must be read, or the widths differ, so the pass is O(n) at
    any nesting.  Only reads past the left boundary's end, ``spawn`` and boxes
    make wires, and only ``merge`` glues.  The quotient numbers each class by
    its first wire, made at the first leaf in text order touching it, as in
    the reference algebra, which gives the leaves fresh wires in that order:
    the cospans are equal.
    """
    wires, glue, edges = 0, [], {}  # glue: the two inputs of each merge
    left: list[int] = []  # the left boundary
    out: list[int] = []  # the outputs of every open operand
    put = out.append
    src, pos, start = left, 0, 0  # the operand reads src from pos, and gives out[start:]
    # (None, src's pos at the chain's start) in its first operand, else (its left width, src's end)
    at = (None, 0)
    groups: list[tuple] = []  # (src, pos, start, at) of the operand around each open group
    for u in nodes:
        kind = type(u)
        if kind is Id1 and pos < len(src):  # the commonest leaf, inlined
            put(src[pos])
            pos += 1
            continue
        if kind is str:
            if u == "(":
                groups.append((src, pos, start, at))
                start, at = len(out), (None, pos)
                continue
            n, mark = at  # the operand ends
            if n is None:
                n = pos - mark
            elif pos != mark:
                raise composition_error(Sort(n, mark), Sort(pos, len(out) - start))
            if u == ";":
                src, pos, at = out[start:], 0, (n, len(out) - start)
                del out[start:]
            elif groups:
                src, pos, start, at = groups.pop()
                pos += n
            continue
        if kind is Gen:
            reads, spawns = u.n, u.m
        elif isinstance(u, Wiring):  # read off the class, the faster lookup
            reads, pairs, spawns, outs = kind.moves
        else:
            raise TypeError(f"not a term: {u!r}")
        if pos + reads > len(src):  # a read past src's end makes wires (past a list's, an error)
            src += range(wires, wires := wires + pos + reads - len(src))
        got = src[pos:pos + reads]
        pos += reads
        if kind is Gen:  # an edge from the wires it reads to those it makes
            edges.setdefault(u.name, []).append((got, range(wires, wires + spawns)))
            out += range(wires, wires := wires + spawns)
            continue
        if spawns:
            got += range(wires, wires := wires + spawns)
        for i, j in pairs:
            glue.append((got[i], got[j]))
        for i in outs:
            put(got[i])
    apex, number = quotient(wires, glue, edges)
    iota, omega = (tuple(map(number.__getitem__, side)) for side in (left, out))
    return _trusted(Cospan, n=len(iota), m=len(omega), apex=apex, iota=iota, omega=omega)


def boundary_pins(frm: Cospan, to: Cospan) -> dict | None:
    """Vertex pins forcing a map frm.apex -> to.apex to preserve both
    boundary maps; None when the boundaries already clash."""
    pins: dict[int, int] = {}
    for src, dst in zip(frm.iota + frm.omega, to.iota + to.omega):
        if pins.get(src, dst) != dst:
            return None
        pins[src] = dst
    return pins


def is_isomorphic_cospan(a: Cospan, b: Cospan) -> bool:
    """True iff an apex isomorphism commutes with both boundary maps."""
    if a.sort != b.sort:
        raise SortError(f"cospan sorts differ: {a.sort} vs {b.sort}")
    pins = boundary_pins(a, b)
    return pins is not None and is_isomorphic(a.apex, b.apex, pins) is not None


# -- writing a cospan back as a term ----------------------------------------

def _perm_term(perm: list[int]) -> GcqTerm:
    """A wiring term sending input wire i to output position perm[i]."""
    k = len(perm)
    layers = [tensor(identity(pos), Swap(), identity(k - pos - 2))
              for pos in adjacent_swaps(perm)]
    return seq(*layers) if layers else identity(k)


def _merge_fan(d: int) -> GcqTerm:
    """d wires into one: spawn for d=0, folded binary merges otherwise."""
    if d == 0:
        return Spawn()
    out = Id1()
    for _ in range(d - 1):
        out = Seq(Tensor(out, Id1()), Merge())
    return out


def _copy_fan(d: int) -> GcqTerm:
    """One wire into d: discard for d=0, folded binary copies otherwise."""
    if d == 0:
        return Discard()
    out = Id1()
    for _ in range(d - 1):
        out = Seq(Copy(), Tensor(out, Id1()))
    return out


def _discrete_term(f: tuple, g: tuple, vcount: int) -> GcqTerm:
    """A term whose cospan is (len(f) -> vcount <- len(g)) with legs f, g.

    Inputs are routed to their vertex, merged per vertex, fanned back out,
    and routed to the outputs: perm ; merges ; copies ; perm.
    """
    order_in = sorted(range(len(f)), key=lambda i: (f[i], i))
    perm_in = sorted(range(len(f)), key=order_in.__getitem__)  # input i goes to perm_in[i]
    merges = tensor(*(_merge_fan(f.count(v)) for v in range(vcount)))
    copies = tensor(*(_copy_fan(g.count(v)) for v in range(vcount)))
    # the wire at grouped position pos must reach output slot perm_out[pos]
    perm_out = sorted(range(len(g)), key=lambda j: (g[j], j))
    return seq(_perm_term(perm_in), merges, copies, _perm_term(perm_out))


def cospan_to_term(c: Cospan) -> GcqTerm:
    """A term t with term_to_cospan(t) isomorphic to c.

    Factorisation: route the left boundary onto the vertices, lay every
    hyperedge out in parallel next to identity wires on the vertices, and
    route back to the right boundary.  Isolated vertices survive as
    spawn ; discard pairs inside the two discrete layers.
    """
    v = c.apex.vcount
    boxes = []
    src_leg: list[int] = []
    tgt_leg: list[int] = []
    for sym in sorted(c.apex.edges):
        for srcs, tgts in c.apex.edges[sym]:
            boxes.append(Gen(sym, len(srcs), len(tgts)))
            src_leg.extend(srcs)
            tgt_leg.extend(tgts)
    left = _discrete_term(c.iota, tuple(range(v)) + tuple(src_leg), v)
    middle = tensor(identity(v), *boxes)
    right = _discrete_term(tuple(range(v)) + tuple(tgt_leg), c.omega, v)
    return seq(left, middle, right)


def cospan_to_dot(c: Cospan) -> str:
    """Apex in DOT plus dotted arrows for the two boundary maps."""
    body = hypergraph_to_dot(c.apex)
    lines = body.splitlines()
    extra = []
    for i, v in enumerate(c.iota):
        extra.append(f'  in{i} [shape=plaintext, label="{i}"];')
        extra.append(f"  in{i} -> v{v} [style=dotted];")
    for j, v in enumerate(c.omega):
        extra.append(f'  out{j} [shape=plaintext, label="{j}"];')
        extra.append(f"  v{v} -> out{j} [style=dotted];")
    return "\n".join(lines[:-1] + extra + lines[-1:])
