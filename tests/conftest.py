"""Shared random generators and independent oracles for the suite.

The oracles here deliberately avoid the library's own code paths: term
membership is decided by quantifying over middle tuples instead of
composing relation sets, judgment satisfaction by enumerating
assignments, and morphism counts by filtering all raw function pairs.
"""

from __future__ import annotations

import json
import random
import re
import sys
from itertools import permutations, product

import pytest

from cqgraph.ccq import CcqFormula, CcqJudgment, Conj, Eq, Exists, RelAtom, Top
from cqgraph.errors import ParseError
from cqgraph.gcq import (
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
    tensor,
)
from cqgraph.hypergraph import HgMorphism, Hypergraph, _Search, validate_morphism
from cqgraph.cospan import Cospan, boundary_pins, term_to_cospan
from cqgraph.sigmodel import Relation, RelModel, Signature, Sort, random_model


@pytest.fixture
def rng():
    return random.Random(20240817)


# int() refuses numbers of 5,000 digits where the interpreter limits the
# digits it converts (4,300 by default since Python 3.10.7; 0 means no limit)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
refuses_5000_digits = pytest.mark.skipif(not 0 < INT_DIGITS < 5000,
                                         reason="int() converts 5,000 digits here")


# -- random generators -------------------------------------------------------

def generator_count(t: GcqTerm) -> int:
    """Number of leaf generators (constants and boxes) in the tree."""
    return sum(1 for u in postorder(t) if not isinstance(u, (Seq, Tensor)))


def base_atoms(sig: Signature) -> list[GcqTerm]:
    atoms: list[GcqTerm] = [Copy(), Discard(), Merge(), Spawn(), Id1(), Swap()]
    atoms.extend(Gen(name, s.n, s.m) for name, s in sig.items())
    return atoms


def random_layer(rng: random.Random, atoms, width_in: int, width_cap: int):
    parts = []
    remaining = width_in
    out = 0
    while remaining > 0:
        cands = [a for a in atoms if 0 < a.sort.n <= remaining]
        if out + remaining >= width_cap:
            narrower = [a for a in cands if a.sort.m <= a.sort.n]
            cands = narrower or cands
        atom = rng.choice(cands)
        parts.append(atom)
        remaining -= atom.sort.n
        out += atom.sort.m
    if rng.random() < 0.25 and out < width_cap:
        starts = [a for a in atoms if a.sort.n == 0]
        if starts:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(starts))
    if not parts:
        return Id0(), 0
    layer = tensor(*parts)
    return layer, layer.sort.m


def random_term(rng: random.Random, sig: Signature,
                max_nodes: int = 10, width_cap: int = 5) -> GcqTerm:
    atoms = base_atoms(sig)
    width = rng.randint(0, 3)
    if rng.random() < 0.1:
        layers = [identity(width)]
    else:
        first, width = random_layer(rng, atoms, width, width_cap)
        layers = [first]
    count = sum(generator_count(t) for t in layers)
    while count < max_nodes and rng.random() < 0.75:
        layer, width = random_layer(rng, atoms, width, width_cap)
        layers.append(layer)
        count += generator_count(layer)
    return seq(*layers)


def random_term_pairs(rng: random.Random, sig: Signature, want: int,
                      max_nodes: int = 10, apex_cap: int = 8):
    """Same-sort term pairs whose compiled apexes stay small."""
    from cqgraph.cospan import term_to_cospan

    buckets: dict = {}
    pairs = []
    attempts = 0
    while len(pairs) < want and attempts < want * 60:
        attempts += 1
        t = random_term(rng, sig, max_nodes=max_nodes)
        if generator_count(t) > max_nodes or term_to_cospan(t).apex.vcount > apex_cap:
            continue
        bucket = buckets.setdefault(t.sort, [])
        if bucket and rng.random() < 0.9:
            pairs.append((rng.choice(bucket), t))
        elif bucket and rng.random() < 0.3:
            pairs.append((t, t))
        bucket.append(t)
    if len(pairs) < want:
        raise RuntimeError("term pair generation starved")
    return pairs[:want]


def random_formula(rng: random.Random, sig: Signature, ctx: int, depth: int) -> CcqFormula:
    leaves = ["top"]
    if ctx >= 1:
        leaves.append("eq")
        leaves.extend(f"rel:{name}" for name, s in sig.items() if s.n <= max(ctx, 1))
    if depth <= 0:
        kind = rng.choice(leaves)
    else:
        kind = rng.choice(leaves + ["conj", "conj", "exists", "exists"])
    if kind == "top":
        return Top()
    if kind == "eq":
        return Eq(rng.randrange(ctx), rng.randrange(ctx))
    if kind.startswith("rel:"):
        name = kind[4:]
        arity = sig.sort(name).n
        return RelAtom(name, tuple(rng.randrange(ctx) for _ in range(arity)))
    if kind == "conj":
        return Conj(random_formula(rng, sig, ctx, depth - 1),
                    random_formula(rng, sig, ctx, depth - 1))
    return Exists(random_formula(rng, sig, ctx + 1, depth - 1))


def random_judgment(rng: random.Random, sig: Signature,
                    max_ctx: int = 3, max_depth: int = 5) -> CcqJudgment:
    ctx = rng.randint(0, max_ctx)
    return CcqJudgment(ctx, random_formula(rng, sig, ctx, rng.randint(0, max_depth)))


def clique(n: int, reverse: bool) -> str:
    """The n-clique formula with x0 free, atoms and quantifiers in either order."""
    edges = [(i, k) for i in range(n) for k in range(n) if i != k]
    bound = list(range(1, n))
    if reverse:
        edges.reverse()
        bound.reverse()
    name = {0: "x0", **{v: f"z{v}" for v in bound}}
    prefix = "".join(f"exists z{v}. " for v in bound)
    return "1 |- " + prefix + " /\\ ".join(f"R({name[a]}, {name[b]})" for a, b in edges)


def clique_graph(n: int, tails=(), tail_symbol: str = "F") -> Hypergraph:
    """K_n under E, plus a path of ``tails[i]`` ``tail_symbol``-edges hanging
    off vertex i: tails of distinct lengths leave the graph no transposition
    automorphism.  Under E they leave none of its E-edges either, so a search
    from an E-only graph has no symmetry to prune; under F, K_n's E-edges
    keep all of theirs."""
    edges = {"E": [((i,), (k,)) for i in range(n) for k in range(n) if i != k]}
    tail = edges.setdefault(tail_symbol, [])
    vcount = n
    for i, length in enumerate(tails):
        prev = i
        for _ in range(length):
            tail.append(((prev,), (vcount,)))
            prev, vcount = vcount, vcount + 1
    return Hypergraph(vcount, edges)


def search_steps(g: Hypergraph, h: Hypergraph, pins=None) -> int:
    """The steps an unbudgeted existence search (``limit=1``) for g -> h takes;
    they do not depend on the machine."""
    search = _Search(g, h, pins, 1, None, injective=False)
    search.run()
    return search.steps


def inclusion_steps(c: GcqTerm, d: GcqTerm) -> int:
    """The steps of the search behind ``decide_inclusion(c, d)``, unbudgeted."""
    ca, da = term_to_cospan(c), term_to_cospan(d)
    return search_steps(da.apex, ca.apex, boundary_pins(da, ca))


def random_hypergraph(rng: random.Random, sig: Signature,
                      max_v: int = 3, max_edges: int = 3) -> Hypergraph:
    v = rng.randint(0, max_v)
    edges: dict = {}
    for name, sort in sig.items():
        if v == 0 and (sort.n or sort.m):
            continue
        rows = [(tuple(rng.randrange(v) for _ in range(sort.n)),
                 tuple(rng.randrange(v) for _ in range(sort.m)))
                for _ in range(rng.randint(0, max_edges))]
        if rows:
            edges[name] = rows
    return Hypergraph(v, edges)


def random_cospan(rng: random.Random, sig: Signature,
                  max_v: int = 5, max_edges: int = 4) -> Cospan:
    apex = random_hypergraph(rng, sig, max_v=max_v, max_edges=max_edges)
    if apex.vcount == 0:
        return Cospan(0, 0, apex, (), ())
    n = rng.randint(0, 3)
    m = rng.randint(0, 3)
    return Cospan(n, m, apex,
                  tuple(rng.randrange(apex.vcount) for _ in range(n)),
                  tuple(rng.randrange(apex.vcount) for _ in range(m)))


def model_battery(sig: Signature, rng: random.Random, sizes=(0, 1, 1, 2, 2, 2, 3, 3)):
    """The empty model plus a seeded spread of small random ones."""
    out = [RelModel(sig, [])]
    for size in sizes:
        out.append(random_model(sig, size, rng))
    return out


# -- relations and signatures only the tests build ---------------------------

def identity_relation(size: int, n: int = 1) -> Relation:
    """The identity on n-tuples over a carrier of the given size."""
    pairs = frozenset((t, t) for t in product(range(size), repeat=n))
    return Relation(Sort(n, n), size, pairs)


def unit_relation(size: int) -> Relation:
    """The sort-(0,0) relation {(•,•)}, the tensor unit."""
    return Relation(Sort(0, 0), size, frozenset({((), ())}))


def dump_signature(sig: Signature) -> str:
    """The JSON text ``load_signature`` reads back as sig."""
    return json.dumps({name: [s.n, s.m] for name, s in sig.items()})


# -- independent oracles ------------------------------------------------------

def member_oracle(t: GcqTerm, a: tuple, b: tuple, model: RelModel, memo: dict) -> bool:
    """Non-compositional semantics: does (a, b) lie in the term's relation?

    Decides membership top-down, searching all middle tuples at every
    composition instead of building relation sets.  ``memo`` maps
    (id of a subterm, a, b) to its answer, within one walk over one tree,
    so each subterm decides each pair of tuples once.
    """
    key = (id(t), a, b)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _member(t, a, b, model, memo)
    return hit


def _member(t: GcqTerm, a: tuple, b: tuple, model: RelModel, memo: dict) -> bool:
    size = model.size
    if isinstance(t, Copy):
        return b == (a[0], a[0])
    if isinstance(t, Discard):
        return b == ()
    if isinstance(t, Merge):
        return a[0] == a[1] and b == (a[0],)
    if isinstance(t, Spawn):
        return a == ()
    if isinstance(t, Id0):
        return True
    if isinstance(t, Id1):
        return a == b
    if isinstance(t, Swap):
        return b == (a[1], a[0])
    if isinstance(t, Gen):
        return (a, b) in model.rho[t.name]
    if isinstance(t, Seq):
        mid = t.lhs.sort.m
        return any(member_oracle(t.lhs, a, w, model, memo) and member_oracle(t.rhs, w, b, model, memo)
                   for w in product(range(size), repeat=mid))
    if isinstance(t, Tensor):
        n1, m1 = t.lhs.sort
        return (member_oracle(t.lhs, a[:n1], b[:m1], model, memo)
                and member_oracle(t.rhs, a[n1:], b[m1:], model, memo))
    raise TypeError(t)


def relation_oracle(t: GcqTerm, model: RelModel) -> frozenset:
    size = model.size
    n, m = t.sort
    memo: dict = {}  # keyed by subterm identity, which t keeps alive through the call
    return frozenset((a, b)
                     for a in product(range(size), repeat=n)
                     for b in product(range(size), repeat=m)
                     if member_oracle(t, a, b, model, memo))


def naive_eval_ccq(j: CcqJudgment, model: RelModel) -> frozenset:
    """Assignment-enumeration semantics for judgments."""
    size = model.size

    def sat(f: CcqFormula, env: tuple) -> bool:
        if isinstance(f, Top):
            return True
        if isinstance(f, Eq):
            return env[f.i] == env[f.j]
        if isinstance(f, RelAtom):
            return (tuple(env[x] for x in f.args), ()) in model.rho[f.symbol]
        if isinstance(f, Conj):
            return sat(f.lhs, env) and sat(f.rhs, env)
        if isinstance(f, Exists):
            return any(sat(f.body, env + (w,)) for w in range(size))
        raise TypeError(f)

    return frozenset(env for env in product(range(size), repeat=j.context)
                     if sat(j.formula, env))


def compose_morphisms(f: HgMorphism, k: HgMorphism) -> HgMorphism:
    """The composite g -> l of f: g -> h and k: h -> l."""
    return HgMorphism(tuple(k.vmap[x] for x in f.vmap),
                      {sym: tuple(k.emaps.get(sym, ())[e] for e in emap)
                       for sym, emap in f.emaps.items()})


def all_morphisms_oracle(g: Hypergraph, h: Hypergraph) -> list[HgMorphism]:
    """Every raw (vertex map, edge maps) pair, filtered by validity."""
    out = []
    for vmap in product(range(h.vcount), repeat=g.vcount):
        emap_spaces = []
        syms = list(g.edges)
        possible = True
        for sym in syms:
            targets = h.edges.get(sym, ())
            if g.edges[sym] and not targets:
                possible = False
                break
            emap_spaces.append(product(range(len(targets)), repeat=len(g.edges[sym])))
        if not possible:
            continue
        for combo in product(*emap_spaces):
            cand = HgMorphism(vmap, dict(zip(syms, combo)))
            if validate_morphism(cand, g, h):
                out.append(cand)
    return out


def reference_search(g: Hypergraph, h: Hypergraph, pins=None, limit=None):
    """The morphisms g -> h extending pins, up to limit, and the steps taken,
    by plain backtracking: each unpinned vertex of g in index order tries
    every vertex of h in ascending order, and after each assignment every
    edge whose tentacles are all assigned is tested.  A step is an image
    tried or a morphism emitted.  Edge maps come out as ``find_morphisms``
    lists them: per vertex map, the product of each edge's ascending ids."""
    pins = pins or {}
    vmap = [pins.get(v) for v in range(g.vcount)]
    free = [v for v in range(g.vcount) if v not in pins]
    rows = [(sym, s + t) for sym, table in g.edges.items() for s, t in table]
    targets = {sym: [s + t for s, t in table] for sym, table in h.edges.items()}
    found: list[HgMorphism] = []
    steps = 0

    def holds() -> bool:
        return all(tuple(vmap[x] for x in flat) in targets.get(sym, ())
                   for sym, flat in rows if None not in (vmap[x] for x in flat))

    def extend(depth: int) -> bool:  # True once the limit is reached
        nonlocal steps
        if depth == len(free):
            ids = [[i for i, flat in enumerate(targets[sym]) if flat == tuple(vmap[x] for x in row)]
                   for sym, row in rows]
            for combo in product(*ids):
                steps += 1
                emaps, pos = {}, 0
                for sym, table in g.edges.items():
                    emaps[sym] = combo[pos:pos + len(table)]
                    pos += len(table)
                found.append(HgMorphism(tuple(vmap), emaps))
                if limit is not None and len(found) >= limit:
                    return True
            return False
        v = free[depth]
        for img in range(h.vcount):
            steps += 1
            vmap[v] = img
            if holds() and extend(depth + 1):
                return True
        vmap[v] = None
        return False

    if holds():
        extend(0)
    return found, steps


def reference_isomorphism(g: Hypergraph, h: Hypergraph, pins=None):
    """The first vertex bijection g -> h (lexicographically) that extends pins
    and maps g's edges onto h's as multisets, per symbol; or None."""
    pins = pins or {}
    if g.vcount != h.vcount or set(g.edges) != set(h.edges):
        return None
    want = {sym: sorted(rows) for sym, rows in h.edges.items()}
    for vmap in permutations(range(h.vcount)):
        if all(vmap[v] == img for v, img in pins.items()) and all(
                sorted((tuple(vmap[x] for x in s), tuple(vmap[x] for x in t))
                       for s, t in rows) == want[sym]
                for sym, rows in g.edges.items()):
            return vmap
    return None


# -- the tokenizer as it was, and mutated query texts --------------------------

REFERENCE_TOKEN = {  # each grammar's tokens, one group, no catch-all
    "gcq": re.compile(r"\s*(\(\+\)|[();]|[A-Za-z_][A-Za-z0-9_]*)"),
    "ccq": re.compile(r"\s*(\|-|/\\|[(),.=]|[A-Za-z_][A-Za-z0-9_]*|\d+)"),
}


def reference_tokenize(token: re.Pattern, text: str) -> list[str]:
    """The first groups of ``token`` matched back to back over text, one
    ``re.match`` per token; a character no match covers is a ParseError."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = token.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


# odd characters for a mutation: operator fragments, digits, non-ASCII
# letters and digits, and whitespace that is not a plain space
STRAY = "+-*@#!?.,=|/\\1907é\u0663\u00a0\t\n\x1c\u2028"


def mutate(rng: random.Random, text: str, vocab: list[str], stray: str = STRAY) -> str:
    """text with one to three seeded edits: a token deleted, duplicated,
    swapped with another or replaced from ``vocab``, a character of
    ``stray`` or a parenthesis put in, or a parenthesis taken out."""
    tokens = re.findall(r"\(\+\)|\|-|/\\|\w+|\S", text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(tokens) + 1)
        kind = rng.randrange(7)
        if kind == 0 and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif kind == 1 and tokens:
            tokens.insert(at, rng.choice(tokens))
        elif kind == 2 and len(tokens) > 1:
            i, j = rng.sample(range(len(tokens)), 2)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif kind == 3:
            tokens.insert(at, rng.choice(stray))
        elif kind == 4:
            tokens.insert(at, rng.choice("()"))
        elif kind == 5 and {"(", ")"} & set(tokens):
            del tokens[rng.choice([k for k, tok in enumerate(tokens) if tok in ("(", ")")])]
        elif tokens:
            tokens[min(at, len(tokens) - 1)] = rng.choice(vocab)
    glue = rng.choice([" ", "", "  "])
    return glue.join(tokens)
