"""Hypergraphs with interfaces: cospans, pushout composition, and the
compiler between diagram terms and cospans.

A cospan ``n -> apex <- m`` is a hypergraph together with two boundary
maps from the finite ordinals ``n`` and ``m`` into its vertices.
Composition glues two cospans along the shared boundary by quotienting
vertices (a pushout over discrete boundaries, computed with union-find);
tensor is disjoint union.  This algebra is the reference for
``term_to_cospan``, which compiles a whole term as one colimit: one pass
over the tree, then one quotient of all its wires.  ``cospan_to_term``
writes any cospan back as a term whose compilation is isomorphic to it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .ccq import CcqJudgment, adjacent_swaps, natural_model
from .errors import ModelError, SortError
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
    seq,
    subtrees,
    tensor,
)
from .hypergraph import (
    Hypergraph,
    hypergraph_from_doc,
    hypergraph_to_doc,
    hypergraph_to_dot,
    is_isomorphic,
    pushout,
    quotient,
)
from .sigmodel import Sort, _trusted


@dataclass(frozen=True)
class Cospan:
    n: int
    m: int
    apex: Hypergraph
    iota: tuple
    omega: tuple

    def __post_init__(self):
        object.__setattr__(self, "iota", tuple(self.iota))
        object.__setattr__(self, "omega", tuple(self.omega))
        if len(self.iota) != self.n or len(self.omega) != self.m:
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


# (vertices, iota, omega) of the discrete cospan of each wiring constant
_WIRING = {
    Copy: (1, (0,), (0, 0)),
    Merge: (1, (0, 0), (0,)),
    Discard: (1, (0,), ()),
    Spawn: (1, (), (0,)),
    Id0: (0, (), ()),
    Id1: (1, (0,), (0,)),
    Swap: (2, (0, 1), (1, 0)),
}


def term_to_cospan(t: GcqTerm | CcqJudgment) -> Cospan:
    """Compile a term to its cospan of hypergraphs in one pass.

    Leaves get fresh wires left to right: a wiring constant its discrete
    cospan, a box one hyperedge with the source tentacles in order on the
    left boundary and the target tentacles on the right.  ``;`` glues the
    inner boundaries, ``(+)`` concatenates, and one quotient of all wires
    gives exactly the cospan that the reference algebra would.

    A judgment ``n |- f`` compiles to its natural model with the free
    variables on the left boundary: the cospan of ``theta`` of it, up to
    isomorphism.  Its vertices are numbered by their first wire: the free
    variables, then the ``Exists`` binders in pre-order.
    """
    if isinstance(t, CcqJudgment):
        g, free = natural_model(t)
        return _trusted(Cospan, n=t.context, m=0, apex=g, iota=free, omega=())
    wires = 0
    glue: list[tuple[int, int]] = []
    edges: dict[str, list] = {}
    done: list[tuple[list, list]] = []  # (iota, omega) of finished subterms
    for u in postorder(t, subtrees):
        if isinstance(u, Seq):
            rhs, lhs = done.pop(), done.pop()
            glue.extend(zip(lhs[1], rhs[0]))
            done.append((lhs[0], rhs[1]))
        elif isinstance(u, Tensor):
            rhs, lhs = done.pop(), done[-1]
            lhs[0].extend(rhs[0])
            lhs[1].extend(rhs[1])
        elif isinstance(u, Gen):
            src = range(wires, wires + u.n)
            tgt = range(wires + u.n, wires + u.n + u.m)
            edges.setdefault(u.name, []).append((src, tgt))
            done.append((list(src), list(tgt)))
            wires += u.n + u.m
        elif type(u) in _WIRING:
            size, iota, omega = _WIRING[type(u)]
            done.append(([wires + v for v in iota], [wires + v for v in omega]))
            wires += size
        else:
            raise TypeError(f"not a term: {u!r}")
    apex, number = quotient(wires, glue, edges)
    iota, omega = done.pop()
    return _trusted(Cospan, n=t.sort.n, m=t.sort.m, apex=apex,
                    iota=tuple(number[v] for v in iota), omega=tuple(number[v] for v in omega))


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
    p, q = len(f), len(g)
    order_in = sorted(range(p), key=lambda i: (f[i], i))
    perm_in = [0] * p
    for pos, wire in enumerate(order_in):
        perm_in[wire] = pos
    merges = tensor(*(_merge_fan(sum(1 for x in f if x == v)) for v in range(vcount))) \
        if vcount else Id0()
    copies = tensor(*(_copy_fan(sum(1 for x in g if x == v)) for v in range(vcount))) \
        if vcount else Id0()
    order_out = sorted(range(q), key=lambda j: (g[j], j))
    perm_out = [0] * q
    for pos, wire in enumerate(order_out):
        perm_out[pos] = wire  # wire at grouped position pos must reach slot wire
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
    middle = tensor(identity(v), *boxes) if boxes else identity(v)
    right = _discrete_term(tuple(range(v)) + tuple(tgt_leg), c.omega, v)
    return seq(left, middle, right)


def cospan_to_json(c: Cospan) -> str:
    return json.dumps({"n": c.n, "m": c.m, "apex": hypergraph_to_doc(c.apex),
                       "iota": list(c.iota), "omega": list(c.omega)})


def cospan_from_json(text: str) -> Cospan:
    """Read back ``cospan_to_json``'s layout; malformed input raises ModelError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed cospan JSON: {exc}") from None
    if not isinstance(doc, dict) or not {"n", "m", "apex", "iota", "omega"} <= doc.keys():
        raise ModelError('cospan JSON must be an object with "n", "m", "apex", "iota", "omega"')
    if not (isinstance(doc["iota"], list) and isinstance(doc["omega"], list)):
        raise ModelError("boundary maps must be lists")
    return Cospan(doc["n"], doc["m"], hypergraph_from_doc(doc["apex"]),
                  tuple(doc["iota"]), tuple(doc["omega"]))


def cospan_to_dot(c: Cospan, name: str = "G") -> str:
    """Apex in DOT plus dotted arrows for the two boundary maps."""
    body = hypergraph_to_dot(c.apex, name)
    lines = body.splitlines()
    extra = []
    for i, v in enumerate(c.iota):
        extra.append(f'  in{i} [shape=plaintext, label="{i}"];')
        extra.append(f"  in{i} -> v{v} [style=dotted];")
    for j, v in enumerate(c.omega):
        extra.append(f'  out{j} [shape=plaintext, label="{j}"];')
        extra.append(f"  v{v} -> out{j} [style=dotted];")
    return "\n".join(lines[:-1] + extra + lines[-1:])
