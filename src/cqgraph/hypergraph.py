"""Finite labelled hypergraphs and their morphism search.

A hypergraph has ``vcount`` vertices ``0..vcount-1`` and, per relation
symbol, an ordered list of hyperedges.  Each edge is a pair
``(source-tuple, target-tuple)`` of vertex ids whose lengths match the
symbol's sort.  Edge lists may contain duplicates: parallel edges with
identical tentacles are distinct edges, and morphisms carry explicit edge
maps for exactly that reason.

Morphism search is a backtracking enumeration over vertex images.  A
vertex tries only the images that every edge it completes allows, read as
one bitset from indexes of h's edges, so no edge is tested after the fact.
The answer list is deterministic: vertex maps come out in lexicographic
order and edge images ascend within each vertex map.  Isomorphism search is
the same search with an injective vertex map, whose edges may land only on
classes of parallel edges as large as their own.

``join_plan`` answers the other question a query asks of a model: not
one morphism but the boundary images of all of them, by a join over the
edges, planned once per hypergraph and run once per model.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import itemgetter

from .errors import BudgetExhausted, ModelError, SignatureError
from .sigmodel import Record, RelModel, Signature, Sort, _trusted, check_symbol_name


Edge = tuple  # (source vertex tuple, target vertex tuple)


class Hypergraph(Record):
    """An immutable hypergraph over dense vertex ids.

    Each symbol's edges share one sort; malformed input raises ``ModelError``.
    ``signature`` gives each symbol with an edge that sort.  It is not a
    field, so ``==``, hash and ``repr`` ignore it.
    """

    vcount: int
    edges: dict | None = None  # symbol -> a tuple of its edges, in symbol order

    def __post_init__(self):
        vcount, edges = self.vcount, {} if self.edges is None else self.edges
        if type(vcount) is not int or vcount < 0:
            raise ModelError("vcount must be a natural")
        if not isinstance(edges, dict):
            raise ModelError("edges must map symbols to edge lists")
        if any(type(sym) is not str for sym in edges):
            raise ModelError("edge symbols must be strings")
        for sym in edges:
            try:
                check_symbol_name(sym)  # else no term or formula could spell the edge
            except SignatureError as error:
                raise ModelError(str(error)) from None
        table: dict[str, tuple[Edge, ...]] = {}
        for sym in sorted(edges):
            try:
                rows = tuple((tuple(s), tuple(t)) for s, t in edges[sym])
            except (TypeError, ValueError):
                raise ModelError(f"each edge of {sym!r} must be a (sources, targets) pair") from None
            for s, t in rows:
                if any(type(v) is not int or not 0 <= v < vcount for v in s + t):
                    raise ModelError(f"edge of {sym!r} mentions a vertex out of range")
            if rows:
                table[sym] = rows
        object.__setattr__(self, "signature", _edge_signature(table))
        object.__setattr__(self, "edges", table)

    def edge_count(self) -> int:
        return sum(len(rows) for rows in self.edges.values())

    def __hash__(self) -> int:
        return hash((self.vcount, tuple(self.edges.items())))

    def __repr__(self) -> str:
        return f"Hypergraph({self.vcount} vertices, {self.edge_count()} edges)"


class HgMorphism(Record):
    """A vertex map plus one edge map per symbol, both total on the source."""

    vmap: tuple
    emaps: dict

    def __post_init__(self):
        object.__setattr__(self, "vmap", tuple(self.vmap))
        object.__setattr__(self, "emaps", {k: tuple(v) for k, v in sorted(self.emaps.items())})

    def __hash__(self):  # emaps is a dict
        return hash((self.vmap, tuple(self.emaps.items())))


def validate_morphism(f: HgMorphism, g: Hypergraph, h: Hypergraph) -> bool:
    """True iff f is a label-preserving morphism g -> h.

    Checks totality of both maps and commutation of the source/target
    squares on every edge.  Size mismatches are errors, not False.
    """
    if len(f.vmap) != g.vcount:
        raise ModelError("vertex map does not cover the source graph")
    if any(not (0 <= x < h.vcount) for x in f.vmap):
        raise ModelError("vertex map leaves the target graph")
    for sym, rows in g.edges.items():
        emap = f.emaps.get(sym, ())
        if len(emap) != len(rows):
            raise ModelError(f"edge map for {sym!r} does not cover the source graph")
        target_rows = h.edges.get(sym, ())
        if any(not (0 <= e < len(target_rows)) for e in emap):
            raise ModelError(f"edge map for {sym!r} leaves the target graph")
    return all(h.edges[sym][e] == (tuple(f.vmap[v] for v in s), tuple(f.vmap[v] for v in t))
               for sym, rows in g.edges.items() for (s, t), e in zip(rows, f.emaps[sym]))


class _Search:
    """Backtracking state shared by morphism and isomorphism search.

    Both searches assign vertex images, and an edge holds when its image
    tentacle tuple is one of the edge's ``targets``.  An edge class is the
    set of edges with one symbol and one tentacle tuple.  A plain search may
    send an edge onto any class of its symbol.  An injective search sends
    vertices to distinct images and an edge of a class K only onto a class
    with exactly |K| edges.

    Given equal vertex counts and equal edge counts per symbol, those two
    rules accept exactly the vertex maps that extend to isomorphisms; where
    the counts differ, no isomorphism exists, and an injective search is
    marked ``infeasible`` before anything is built.  Enough: an injective map
    between vertex sets of one size is a bijection, and it sends distinct
    classes to distinct classes, so matched class sizes give an edge
    bijection class by class, and equal totals leave no edge of h
    uncovered.  Needed: an isomorphism restricts to a bijection K -> f(K).

    Two rules narrow the images tried at v without changing the answers.
    (a) An edge is checkable at v, its largest unpinned tentacle: vertices
    are assigned in index order, so its other tentacles have images by then.
    An index of its targets keyed by those images gives, as a bitset, the
    images of v that put the edge in ``targets``, and v tries, ascending,
    only the intersection over every edge checkable at v.  An image outside
    one edge's set fails that edge whatever follows, so dropping it loses
    no map and keeps the others in their order, that of a loop over all of
    h; inside it every checkable edge holds, so none is tested after the
    assignment.  A step is one image tried, so one that passes every edge
    checkable at its vertex, or one edge map emitted.
    (b) An existence search (limit 1, not injective) tries, of the vertices
    of h with no preimage yet, only the smallest of each swap class: a ~ b
    iff the transposition (a b) is an automorphism of h|g, h restricted to
    the symbols g uses, at the sorts g uses them.  Sound: a and b have no
    preimage yet, so (a b) fixes every image so far, and g has no edge of
    any other symbol or sort, so (a b) sends each morphism g -> h through
    b, edge maps and all, to one through a.  That copy is lexicographically
    smaller, so the first map found, the witness, is still the least
    morphism and never goes through b; its edge maps come from ``emit``.
    An automorphism of h is one of h|g, so each class is a union of classes
    over all of h, and the tree searched is a subtree of the one those would
    leave.  Only an image after a failed one with no other preimage is
    pruned: classes wait.
    The swap test looks only at the classes at a: σ = (a b) is an
    automorphism iff a and b lie on equally many classes and m(σK) = m(K)
    for each class K at a, m counting parallel edges.  σ fixes every class
    at neither vertex.  It maps the classes at a injectively into those at
    b, as m(σK) = m(K) > 0 and σK holds b where K holds a, so equal counts
    make that a bijection; and σ is an involution, so it maps each class at
    b back onto one at a of the same multiplicity.

    Set-up is one walk over h and one over g.  The walk over h builds the
    table of h|g's edge classes, each with its ascending edge ids, which
    serves ``emit`` and rule (b), and rule (a)'s targets: in a plain search
    each symbol's table, in an injective one its keys filed by class size.
    The walk over g files each edge under the vertex where it becomes
    checkable, with its rule (a) probe: the index of its pattern, shared by
    the edges with that pattern, and an ``itemgetter`` of its other
    tentacles; an edge with every tentacle there allows the same images
    always, so its bitset is folded in once.  Only rule (b)'s swap classes
    wait, as a positive search may never need them: one pass over the
    table, then each vertex is tested against its buckets' representatives
    on its own classes.
    """

    def __init__(self, g: Hypergraph, h: Hypergraph, pins, limit, budget, injective):
        self.g = g
        self.h = h
        self.limit = limit
        self.budget = budget
        self.steps = 0
        self.injective = injective
        self.results: list[HgMorphism] = []

        self.vmap: list = [None] * g.vcount
        self.hits = [0] * h.vcount  # preimages of each vertex of h so far
        for v, img in (pins or {}).items():
            if not (0 <= v < g.vcount) or not (0 <= img < h.vcount):
                raise ModelError("pin outside the graphs")
            self.vmap[v] = img
            self.hits[img] += 1
        # two pins on one image, or sizes no bijection matches
        self.infeasible = injective and (
            any(n > 1 for n in self.hits) or g.vcount != h.vcount
            or {s: len(r) for s, r in g.edges.items()} != {s: len(r) for s, r in h.edges.items()})
        if self.infeasible:
            return

        # h|g: h's edges of the symbols g uses, at the sorts g uses them, as no
        # other edge constrains a morphism (so a flat tentacle tuple names its
        # class); h_classes: symbol -> flat tentacle tuple -> ascending edge ids
        gsig, hsig = g.signature, h.signature
        self.h_classes: dict[str, dict] = {}
        for sym, rows in h.edges.items():
            if sym in gsig and gsig.sort(sym) == hsig.sort(sym):
                table = self.h_classes[sym] = {}
                for i, (s, t) in enumerate(rows):
                    table.setdefault(s + t, []).append(i)
        # rule (a)'s targets: a plain search's are the table's keys; an
        # injective search's, (symbol, class size) -> flat tentacle tuples
        by_size: dict[tuple, set] = {}
        if injective:
            for sym, table in self.h_classes.items():
                for flat, ids in table.items():
                    by_size.setdefault((sym, len(ids)), set()).add(flat)

        # an edge becomes checkable at its largest unpinned tentacle vertex,
        # where rule (a) keeps only the images that pass it
        self.ready: list = []  # edges inside the pinned region: (tentacles, targets)
        # at v: the images its edges with every tentacle v allow, and the
        # other edges' probes, (index getter, key getter) each
        self.allowed = allowed = [-1] * g.vcount
        self.probes = probes = [[] for _ in range(g.vcount)]
        by_rest: dict[tuple, dict] = {}  # (id of targets, places of v) -> rule (a) index
        none = frozenset()  # the targets of an edge with no class to land on
        vmap = self.vmap
        for sym, rows in g.edges.items():
            size = Counter(rows) if injective else None
            fset = self.h_classes.get(sym, none)
            for row in rows:
                verts = row[0] + row[1]
                if injective:
                    fset = by_size.get((sym, size[row]), none)
                unpinned = [x for x in verts if vmap[x] is None] if pins else verts
                if not unpinned:
                    self.ready.append((verts, fset))
                    continue
                v = max(unpinned)
                if verts.count(v) == 1:
                    k = verts.index(v)
                    at, others = (k,), verts[:k] + verts[k + 1:]
                else:  # v's places: a repeated tentacle has several
                    at = tuple([k for k, x in enumerate(verts) if x == v])
                    others = tuple([x for x in verts if x != v])
                index = by_rest.get((id(fset), at))
                if index is None:
                    index = by_rest[id(fset), at] = _rule_a_index(fset, at, len(verts))
                if others:
                    probes[v].append((index.get, itemgetter(*others)))
                else:
                    allowed[v] &= index.get((), 0)

    def emit(self):
        """All edge maps compatible with the completed vertex map."""
        # every edge's image is a class of h|g: rule (a) admits only such
        # images, and ``run`` checks the edges inside the pinned region first
        per_edge: dict[str, list[list[int]]] = {}
        image = self.vmap.__getitem__
        for sym, rows in self.g.edges.items():
            table = self.h_classes[sym]
            per_edge[sym] = [table[tuple(map(image, src + tgt))] for src, tgt in rows]

        if self.injective:
            # each class lands on one of its own size: the order-preserving bijection
            emaps = {}
            for sym, cands in per_edge.items():
                taken: dict = {}
                emap = []
                for ids in cands:
                    k = taken.get(id(ids), 0)
                    taken[id(ids)] = k + 1  # one shared ids list per class, so id() keys it
                    emap.append(ids[k])
                emaps[sym] = tuple(emap)
            self.results.append(HgMorphism(tuple(self.vmap), emaps))
            return self.limit is not None and len(self.results) >= self.limit

        syms = list(per_edge)
        flat = [cands for sym in syms for cands in per_edge[sym]]
        sizes = [len(self.g.edges[sym]) for sym in syms]
        budget = self.budget
        for combo in product(*flat):
            self.steps += 1
            if budget is not None and self.steps > budget:
                raise BudgetExhausted(f"morphism search exceeded {budget} steps")
            emaps = {}
            pos = 0
            for sym, size in zip(syms, sizes):
                emaps[sym] = tuple(combo[pos:pos + size])
                pos += size
            self.results.append(HgMorphism(tuple(self.vmap), emaps))
            if self.limit is not None and len(self.results) >= self.limit:
                return True
        return False

    def run(self) -> list[HgMorphism]:
        # edges entirely inside the pinned region are checked once, up front
        if self.infeasible or any(tuple(map(self.vmap.__getitem__, verts)) not in fset
                                  for verts, fset in self.ready):
            return []
        self.assign()
        return self.results

    def images(self, v: int):
        """Rule (a): the images every edge checkable at v allows there, given
        its other tentacles' images, ascending; else every vertex of h."""
        allowed, vmap = self.allowed[v], self.vmap
        for get, key in self.probes[v]:
            allowed &= get(key(vmap), 0)
        return range(self.h.vcount) if allowed < 0 else _bits(allowed)

    def swap_classes(self) -> list[list[int]]:
        """Rule (b): each vertex's swap class in h|g, ascending; an edge below
        is one of h|g's.  Swappable a, b share N(a) - {a} (not adjacent) or
        N(a) + {a} (adjacent), N(a) being the vertices on a class with a.
        (a c)(c b)(a c) = (a b), so ~ is an equivalence.  No class mixes the
        kinds: a ~ b apart and b ~ c adjacent give a ~ c adjacent, and then
        b, in N(c) + {c} = N(a) + {a}, is adjacent to a.  So a class lies in
        one bucket, where one test per class met, the one-sided test of the
        class docstring, finds it."""
        n = self.h.vcount
        at: list[list] = [[] for _ in range(n)]  # (class table, class, multiplicity) at each vertex
        near: list[set] = [set() for _ in range(n)]  # N(x): the vertices sharing a class with x
        for table in self.h_classes.values():
            for flat, ids in table.items():
                on, entry = set(flat), (table, flat, len(ids))
                for x in on:
                    at[x].append(entry)
                    near[x] |= on
        buckets: dict[frozenset, list] = {}
        for a in range(n):
            for key in (near[a] - {a}, near[a] | {a}):
                buckets.setdefault(frozenset(key), []).append(a)
        classes = [[a] for a in range(n)]
        for bucket in buckets.values():
            reps: list[int] = []
            for a in bucket:
                mine = at[a]
                for r in reps:
                    if len(at[r]) != len(mine):
                        continue
                    sub = {a: r, r: a}
                    if all(len(table.get(tuple(map(sub.get, flat, flat)), ())) == m
                           for table, flat, m in mine):
                        classes[r].append(a)
                        classes[a] = classes[r]
                        break
                else:
                    reps.append(a)
        return classes

    def assign(self) -> bool:
        """Extend the vertex map over the unpinned vertices in index order,
        depth first with a stack of image iterators instead of recursion.
        True when ``emit`` asked to stop."""
        vmap, hits = self.vmap, self.hits
        free = [v for v in range(self.g.vcount) if vmap[v] is None]
        if not free:
            return self.emit()
        budget, injective = self.budget, self.injective
        # rule (b)'s swap classes: None until they are needed
        twins = None if self.limit == 1 and not injective else ()
        stack = [iter(self.images(free[0]))]
        while stack:
            depth = len(stack) - 1
            v = free[depth]
            if vmap[v] is not None:  # undo the image tried last at this depth
                hits[vmap[v]] -= 1
                if twins is None and not hits[vmap[v]]:
                    twins = self.swap_classes()
                vmap[v] = None
            img = next(stack[-1], None)
            if img is None:
                stack.pop()
                continue
            if hits[img]:
                if injective:
                    continue
            elif twins and twins[img][0] < img and not all(
                    map(hits.__getitem__, twins[img][:twins[img].index(img)])):
                continue  # a smaller member with no preimage stands for img
            self.steps += 1
            if budget is not None and self.steps > budget:
                raise BudgetExhausted(f"morphism search exceeded {budget} steps")
            vmap[v] = img
            hits[img] += 1
            if depth + 1 < len(free):
                stack.append(iter(self.images(free[depth + 1])))
            elif self.emit():
                return True
        return False


def find_morphisms(g: Hypergraph, h: Hypergraph,
                   pins: dict | None = None,
                   limit: int | None = None,
                   budget: int | None = None) -> list[HgMorphism]:
    """All morphisms g -> h extending pins, up to limit, in lexicographic order.

    ``pins`` partially pre-assigns the vertex map.  ``budget`` bounds the
    number of search steps; exceeding it raises :class:`BudgetExhausted`.
    An empty list means no morphism exists — never a cancelled search.
    """
    return _Search(g, h, pins, limit, budget, injective=False).run()


def is_isomorphic(g: Hypergraph, h: Hypergraph, pins: dict | None = None) -> HgMorphism | None:
    """An isomorphism g -> h (bijective vertex and edge maps), or None.

    A pin outside the graphs raises ``ModelError`` as in ``find_morphisms``.
    Unless the vertex counts and the edge counts per symbol agree, the
    answer is None; else the search runs injective, each edge restricted to
    the classes of h with as many parallel edges as its own class, and the
    first hit is the answer.
    """
    found = _Search(g, h, pins, limit=1, budget=None, injective=True).run()
    return found[0] if found else None


def _edge_signature(edges: dict) -> Signature:
    """The signature of ``edges`` (sorted checked symbols -> non-empty edge
    tuples): each symbol at the sort its edges share; ``ModelError`` if
    two of them differ."""
    table = {}
    for sym, rows in edges.items():
        if len(sorts := {(len(s), len(t)) for s, t in rows}) > 1:
            raise ModelError(f"edges of {sym!r} have two sorts")
        table[sym] = Sort(*sorts.pop())
    return _trusted(Signature, _table=table)


def quotient(size: int, glue, edges: dict):
    """The hypergraph of ``edges`` (symbol -> hyperedges over wires) with
    wires ``0..size-1`` glued along ``glue``, and the wire -> vertex map;
    classes are numbered in ascending order of their smallest wire.  A
    symbol with edges of two sorts raises ``ModelError``."""
    parent = list(range(size))  # parent[w] <= w: a smaller wire of w's class, or w at its root
    for x, y in glue:
        while x != (p := parent[x]):  # path halving
            parent[x] = x = parent[p]
        while y != (p := parent[y]):
            parent[y] = y = parent[p]
        if x < y:  # the smallest wire is the root
            parent[y] = x
        else:
            parent[x] = y
    # one scan numbers the roots in order; as parent[w] <= w, p is numbered by then
    number, count = parent, 0
    for w, p in enumerate(parent):
        number[w] = number[p] if p < w else count
        count += p == w
    at = number.__getitem__
    table = {sym: tuple((tuple(map(at, s)), tuple(map(at, t))) for s, t in edges[sym])
             for sym in sorted(edges) if edges[sym]}
    return _trusted(Hypergraph, vcount=count, edges=table, signature=_edge_signature(table)), number


def pushout(f: tuple, g: tuple, a: Hypergraph, b: Hypergraph):
    """Pushout of the discrete span a <-f- k -g-> b.

    ``f`` and ``g`` are vertex maps from the same ordinal k.  Returns the
    apex hypergraph together with the two quotient vertex maps a -> P and
    b -> P.  Vertices are quotiented; edge lists are concatenated (a's
    first) with tentacles re-indexed through the quotient.
    """
    if len(f) != len(g):
        raise ModelError("pushout legs must share their source ordinal")
    off = a.vcount
    edges = {sym: list(rows) for sym, rows in a.edges.items()}
    for sym, rows in b.edges.items():
        edges.setdefault(sym, []).extend(
            (tuple(off + v for v in s), tuple(off + v for v in t)) for s, t in rows)
    apex, number = quotient(off + b.vcount, ((x, off + y) for x, y in zip(f, g)), edges)
    return apex, tuple(number[:off]), tuple(number[off:])


def _rule_a_index(fset, at: tuple, width: int) -> dict:
    """The index rule (a) reads for edges with targets ``fset`` and v at the
    places ``at`` of ``width``: the other places' images, as one
    ``itemgetter`` gives them (``()`` if there are none), map to the bitset
    of images x such that v -> x puts the edge in ``fset``.  It depends on
    that pattern alone, so the edges that have it share it."""
    index: dict = {}
    first, rest = at[0], [k for k in range(width) if k not in at]
    key = itemgetter(*rest) if rest else (lambda flat: ())
    for flat in fset:
        x = flat[first]
        if len(at) == 1 or all(flat[k] == x for k in at):
            others = key(flat)
            index[others] = index.get(others, 0) | 1 << x
    return index


def _bits(mask: int):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _picker(idx):
    """A function taking a sequence to the tuple of its items at ``idx``."""
    if len(idx) == 1:
        return lambda row, i=idx[0]: (row[i],)
    return itemgetter(*idx) if idx else (lambda row: ())


def join_plan(g: Hypergraph, boundary):
    """The join of g's edges, planned once for any model: a function taking
    a model to the tuples ``(f(b) for b in boundary)`` over every
    homomorphism f from g into it, read as a hypergraph on its carrier.

    Greedy variable elimination: edges are joined one at a time with their
    symbol's relation, depth first through shared vertices, so an edge
    meets a joined vertex whenever its component has one.  A vertex off
    the boundary is projected out once its last edge is joined.  A vertex
    on no edge still needs an image: over the empty carrier none survives.
    The order, the positions each join reads and keeps, and each symbol's
    sort depend on g alone, so they are worked out here, once; a run does
    only what depends on its model.

    Each join probes an index of its symbol's tuples: those equal at the
    tentacles of a repeated new vertex (``same``), keyed by the tentacles
    of joined vertices (``bound``) and holding the first tentacle of each
    new vertex (``firsts``).  That index is a function of the symbol's
    relation and of those three position lists alone, not of which
    vertices sit at them, and a join only reads it; so edges with one
    tentacle pattern share one index, built at the first of them, for the
    length of one run.  ``same`` belongs to the pattern: ``R(a,b,a,b)``
    and ``R(c,d,d,c)`` on new vertices agree in ``bound`` and ``firsts``
    but keep different tuples.
    """
    edges = []  # (tentacle vertices, symbol)
    incident: list[list[int]] = [[] for _ in range(g.vcount)]
    for sym, rows in g.edges.items():
        for s, t in rows:
            for v in s + t:
                incident[v].append(len(edges))
            edges.append((s + t, sym))
    order: list[int] = []
    reached, queued = [False] * g.vcount, [False] * len(edges)
    for root in range(len(edges)):
        todo = [root]
        while todo:
            e = todo.pop()
            if not queued[e]:
                queued[e] = True
                order.append(e)
                for v in edges[e][0]:
                    if not reached[v]:
                        reached[v] = True
                        todo += incident[v]
    last = {v: step for step, e in enumerate(order) for v in edges[e][0]}
    last.update(dict.fromkeys(boundary, len(order)))  # never projected out

    cols = [v for v in dict.fromkeys(boundary) if not incident[v]]  # the vertex of each column
    width = len(cols)
    steps = []  # per join: its index pattern, how to fill that index, and how to join it
    for step, e in enumerate(order):
        verts, sym = edges[e]
        pos = {v: k for k, v in enumerate(cols)}
        bound = tuple(k for k, v in enumerate(verts) if v in pos)
        fresh: dict[int, int] = {}  # new vertex -> its first tentacle
        for k, v in enumerate(verts):
            if v not in pos:
                fresh.setdefault(v, k)
        firsts = tuple(fresh.values())
        same = tuple((k, fresh[v]) for k, v in enumerate(verts) if fresh.get(v, k) != k)
        cols += fresh
        survivors = [k for k, v in enumerate(cols) if last[v] > step]
        steps.append(((sym, bound, firsts, same), sym, same, _picker(bound), _picker(firsts),
                      _picker(survivors), _picker([pos[verts[k]] for k in bound])))
        cols = [cols[k] for k in survivors]
    at = {v: k for k, v in enumerate(cols)}
    pick = _picker([at[v] for v in boundary])

    def run(model: RelModel) -> frozenset:
        size = model.size
        if g.vcount and not size:
            return frozenset()
        tuples = {}  # symbol -> its model tuples, in-tuple and out-tuple joined
        for sym, want in g.signature.items():
            if (sort := model.signature.sort(sym)) != want:
                raise SignatureError(f"model interprets {sym!r} at sort {tuple(sort)}, "
                                     f"query uses {tuple(want)}")
            tuples[sym] = [a + b for a, b in model.rho[sym]]
        rows = set(product(range(size), repeat=width))
        indexes: dict = {}  # (symbol, bound, firsts, same) -> index, for this run
        for pattern, sym, same, key, ext, project, row_key in steps:
            index = indexes.get(pattern)
            if index is None:
                index = indexes[pattern] = {}
                for tup in tuples[sym]:
                    if not same or all(tup[k] == tup[k0] for k, k0 in same):
                        index.setdefault(key(tup), []).append(ext(tup))
            rows = {project(row + x) for row in rows for x in index.get(row_key(row), ())}
            if not rows:
                return frozenset()
        return frozenset(map(pick, rows))

    return run


def hypergraph_to_dot(g: Hypergraph) -> str:
    """DOT rendering: vertices as points, hyperedges as labelled boxes.

    Tentacles are drawn as arrows vertex -> box (sources, labelled s0, s1,
    ...) and box -> vertex (targets, labelled t0, t1, ...).
    """
    lines = ["digraph G {"]
    for v in range(g.vcount):
        lines.append(f'  v{v} [shape=point, xlabel="{v}"];')
    for sym, rows in g.edges.items():
        for i, (src, tgt) in enumerate(rows):
            box = f"e_{sym}_{i}"
            lines.append(f'  {box} [shape=box, label="{sym}"];')
            for pos, v in enumerate(src):
                lines.append(f'  v{v} -> {box} [label="s{pos}"];')
            for pos, v in enumerate(tgt):
                lines.append(f'  {box} -> v{v} [label="t{pos}"];')
    lines.append("}")
    return "\n".join(lines)
