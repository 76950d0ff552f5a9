"""Seeded inputs, independent references and ops for the four workloads.

Each workload is built in two steps.  ``build_<name>(seed, workdir)`` makes
the inputs from the seed alone (plain data, plus query and model files for
the CLI workloads) and computes the expected answer of every op with code
of its own: closed-form containment verdicts, boolean powers of an
adjacency matrix, pigeonhole.  No expected answer is taken from cqgraph.
``Workload.bind(cq)`` then turns the inputs into ops against one import of
the ``cqgraph`` package; the runner calls it again after every fresh import.

An op is ``(label, run, check)``.  ``run()`` is the timed call into the
program.  ``check(result)`` runs after the clock stops and raises
:class:`WrongAnswer` when the answer disagrees with the reference.  Any
exception from ``run()`` (``RecursionError``, ``BudgetExhausted``, ...) is a
failed op, and so is a CLI exit code 2 on an input that has an answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


class WrongAnswer(Exception):
    """The program answered, and the answer disagrees with the reference."""


class NoAnswer(Exception):
    """The CLI exited with code 2 on an input that has an answer."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    bind: Callable[[Any], list]  # cqgraph package -> list[Op]
    info: dict = field(default_factory=dict)


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# -- CLI ops -------------------------------------------------------------------

def _cli_op(cq, label: str, argv: list, check: Callable[[int, str], None]) -> Op:
    """An op that runs ``cqgraph.cli.main(argv)`` in-process, output captured."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cq.cli.main(argv)
        if code == 2:
            raise NoAnswer(err.getvalue().strip()[:200])
        return code, out.getvalue()

    return Op(label, run, lambda result: check(*result))


def _expect_verdict(holds: bool) -> Callable[[int, str], None]:
    want_code = 0 if holds else 1
    want_head = '{"holds": true' if holds else '{"holds": false'

    def check(code: int, out: str):
        if code != want_code or not out.startswith(want_head):
            raise WrongAnswer(f"exit {code}, expected {want_code}")

    return check


def _write_query(path: Path, sig_file: str, body: str) -> str:
    path.write_text(f"signature: {sig_file}\n{body}\n", encoding="utf-8")
    return str(path)


# -- conjunctive queries as digraphs -------------------------------------------

def shape_edges(shape: str, j: int) -> tuple[list, list]:
    """Edges and free (pinned) vertices of a path, based cycle or star."""
    if shape == "path":
        return [(i, i + 1) for i in range(j)], [0, j]
    if shape == "cycle":
        return [(i, (i + 1) % j) for i in range(j)], [0]
    if shape == "star":
        return [(0, i) for i in range(1, j + 1)], [0]
    raise ValueError(shape)


def clique_edges(n: int) -> list:
    return [(i, k) for i in range(n) for k in range(n) if i != k]


def shape_holds(shape: str, a: int, b: int) -> bool:
    """Closed form for Q_a <= Q_b, i.e. a homomorphism Q_b -> Q_a fixing x0.

    Pinned paths: P_b -> P_a iff a == b.  Based cycles: C_b -> C_a iff a
    divides b.  Stars: S_b -> S_a iff b == 0 or a >= 1.
    """
    if shape == "path":
        return a == b
    if shape == "cycle":
        return b % a == 0
    if shape == "star":
        return b == 0 or a >= 1
    raise ValueError(shape)


def formula_text(edges: list, free: list, names: dict, reverse: bool = False) -> str:
    """``k |- exists ... . E(..) /\\ ...`` with the given bound-variable names.

    Quantifiers come in order of first use; ``reverse`` reverses both the
    atom list and the quantifier prefix, which gives an equivalent formula
    with a different derivation.
    """
    atoms = list(reversed(edges)) if reverse else list(edges)
    bound: list = []
    for edge in atoms:
        for v in edge:
            if v not in free and v not in bound:
                bound.append(v)
    label = {v: f"x{i}" for i, v in enumerate(free)}
    label.update({v: names[v] for v in bound})
    body = " /\\ ".join(f"E({label[a]}, {label[b]})" for a, b in atoms) or "top"
    prefix = "".join(f"exists {label[v]}. " for v in bound)
    return f"{len(free)} |- {prefix}{body}"


def _fresh_names(rng: random.Random, vertices) -> dict:
    """Seeded bound-variable names: only the text changes, not the formula."""
    stem = "".join(rng.choice("abcdfghkmnpqrstuvw") for _ in range(3))
    return {v: f"{stem}{i}" for i, v in enumerate(vertices)}


# -- ccq_check ------------------------------------------------------------------

CCQ_SHAPES = ("path", "cycle", "star")
CCQ_SIZES = (2, 3, 4, 5, 6, 7, 8, 16)
CCQ_CHAINS = (200, 400, 800, 1200)
CCQ_CLIQUES = (5, 6, 7, 8)


def _partner(j: int) -> int:
    return 2 * j if 2 * j <= max(CCQ_SIZES) else j - 1


def build_ccq_check(seed: int, workdir: Path) -> Workload:
    """``check`` on queries of 2-16 atoms, as formulas and as printed terms.

    Per shape and size: ``Q_j <= Q_k`` (k = 2j, or j - 1 when 2j > 16) and
    ``Q_j == reversed copy of Q_j``, each once as formula files and once as
    ``print_gcq(theta(.))`` files.  The deep share adds ``;`` chains of 200
    to 1,200 boxes and clique formulas K5-K8.
    """
    # the printed-term inputs are made by the program under test, as users make them
    from cqgraph.ccq import parse_ccq
    from cqgraph.gcq import print_gcq
    from cqgraph.sigmodel import Signature
    from cqgraph.translate import theta

    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "e.json").write_text('{"E": [2, 0]}', encoding="utf-8")
    (workdir / "r.json").write_text('{"R": [1, 1]}', encoding="utf-8")
    sig = Signature({"E": (2, 0)})
    cases = []  # (label, lhs file, rhs file, mode, expected verdict)
    term_nodes = []

    def query(key: str, edges: list, free: list, reverse: bool = False):
        names = _fresh_names(rng, sorted({v for e in edges for v in e} - set(free)))
        text = formula_text(edges, free, names, reverse)
        formula = _write_query(workdir / f"{key}.ccq", "e.json", text)
        term = theta(parse_ccq(text, sig))
        term_nodes.append(node_count(term))
        printed = _write_query(workdir / f"{key}.gcq", "e.json", print_gcq(term))
        return formula, printed

    for shape in CCQ_SHAPES:
        for j in CCQ_SIZES:
            k = _partner(j)
            edges, free = shape_edges(shape, j)
            qa = query(f"{shape}{j}", edges, free)
            qb = query(f"{shape}{k}-for{j}", *shape_edges(shape, k))
            qc = query(f"{shape}{j}-rev", edges, free, reverse=True)
            for form, idx in (("formula", 0), ("term", 1)):
                cases.append((f"{shape}{j}<={shape}{k}:{form}", qa[idx], qb[idx], "inclusion",
                               shape_holds(shape, j, k)))
                cases.append((f"{shape}{j}=={shape}{j}:{form}", qa[idx], qc[idx], "equivalence",
                               shape_holds(shape, j, j)))
    for n in CCQ_CHAINS:
        chain = _write_query(workdir / f"chain{n}.gcq", "r.json", " ; ".join(["R"] * n))
        cases.append((f"chain{n}<=chain{n}", chain, chain, "inclusion", shape_holds("path", n, n)))
    for n in CCQ_CLIQUES:
        edges = clique_edges(n)
        names_a = _fresh_names(rng, range(1, n))
        names_b = _fresh_names(rng, range(1, n))
        fa = _write_query(workdir / f"k{n}.ccq", "e.json", formula_text(edges, [0], names_a))
        fb = _write_query(workdir / f"k{n}-rev.ccq", "e.json",
                          formula_text(edges, [0], names_b, reverse=True))
        cases.append((f"K{n}==K{n}", fa, fb, "equivalence", True))
    cases = _shuffled(rng, cases)

    def bind(cq):
        return [_cli_op(cq, label, ["check", a, b, "--mode", mode, "--format", "json"],
                        _expect_verdict(holds))
                for label, a, b, mode, holds in cases]

    return Workload(bind, {
        "ops_per_pass": len(cases),
        "shapes": list(CCQ_SHAPES),
        "atoms": list(CCQ_SIZES),
        "chain_boxes": list(CCQ_CHAINS),
        "clique_formulas": [f"K{n}" for n in CCQ_CLIQUES],
        "theta_nodes_min": min(term_nodes),
        "theta_nodes_max": max(term_nodes),
    })


def node_count(term) -> int:
    """Generator (leaf) count of a cqgraph term tree, without recursion."""
    count, stack = 0, [term]
    while stack:
        u = stack.pop()
        lhs = getattr(u, "lhs", None)
        if lhs is None:
            count += 1
        else:
            stack.extend((lhs, u.rhs))
    return count


# -- model_eval -----------------------------------------------------------------

EVAL_CARRIER = 16
EVAL_DEGREE = 5
EVAL_PATHS = tuple(range(1, 6))
EVAL_CYCLES = tuple(range(1, 7))
EVAL_STARS = tuple(range(1, 6))
EVAL_TERM_CHAINS = tuple(range(1, 7))
# 45 ops per pass, like the 25 of clique_search, put p50 and p90 in the
# middle of one op's samples, not at the edge between two ops of different
# cost (with 41 ops, p90 fell between a 37 ms and a 51 ms op).
EVAL_TERM_CYCLES = tuple(range(1, 6))
THETA_SIZES = (1, 2, 3, 4)
LAMBDA_TERMS = (  # (term text, sort, number of R boxes)
    ("R", (1, 1), 1),
    ("R ; R", (1, 1), 2),
    ("R ; R ; R", (1, 1), 3),
    ("copy ; (R (+) R)", (1, 2), 2),
    ("copy ; (R (+) R) ; merge", (1, 1), 2),
    ("(R (+) R) ; swap ; (R (+) R) ; merge", (2, 1), 4),
)


def regular_digraph(rng: random.Random, size: int, degree: int) -> set:
    """Edges (sigma(i), tau(i + s)) for ``degree`` distinct shifts s.

    Every element has exactly ``degree`` out- and in-neighbours, so the
    number of walks of each length, and with it the join sizes inside the
    evaluators, is the same for every seed.
    """
    shifts = rng.sample(range(size), degree)
    sigma = _shuffled(rng, range(size))
    tau = _shuffled(rng, range(size))
    return {(sigma[i], tau[(i + s) % size]) for i in range(size) for s in shifts}


def bool_power(edges: set, size: int, k: int) -> set:
    """Pairs (a, b) joined by a walk of exactly k edges: the k-th boolean power."""
    succ = [0] * size
    for a, b in edges:
        succ[a] |= 1 << b
    reach = [1 << a for a in range(size)]
    for _ in range(k):
        nxt = []
        for row in reach:
            acc = 0
            for mid in range(size):
                if row >> mid & 1:
                    acc |= succ[mid]
            nxt.append(acc)
        reach = nxt
    return {(a, b) for a in range(size) for b in range(size) if reach[a] >> b & 1}


def _expect_rows(want: set, names: list) -> Callable[[int, str], None]:
    def check(code: int, out: str):
        if code != 0:
            raise WrongAnswer(f"exit {code}")
        got = {tuple(row) for row in json.loads(out)}
        if got != {tuple(names[x] for x in row) for row in want}:
            raise WrongAnswer(f"{len(got)} rows, expected {len(want)}")
    return check


def _expect_pairs(want: set, names: list) -> Callable[[int, str], None]:
    def check(code: int, out: str):
        if code != 0:
            raise WrongAnswer(f"exit {code}")
        got = {(tuple(a), tuple(b)) for a, b in json.loads(out)}
        if got != {((names[a],), (names[b],)) for a, b in want}:
            raise WrongAnswer(f"{len(got)} pairs, expected {len(want)}")
    return check


def _expect_translation(pattern: str, header: str | None, boxes: int) -> Callable[[int, str], None]:
    """Exit 0, the expected sort header, and one output box per input box."""
    def check(code: int, out: str):
        if code != 0:
            raise WrongAnswer(f"exit {code}: spot check failed")
        if header is not None and not out.startswith(header):
            raise WrongAnswer(f"header {out[:12]!r}, expected {header!r}")
        if len(re.findall(pattern, out)) != boxes:
            raise WrongAnswer("box count changed in translation")
    return check


def build_model_eval(seed: int, workdir: Path) -> Workload:
    """``eval`` of paths, cycles and stars on a carrier-16 model, plus
    ``translate --verify`` in both directions on small queries.

    Each ``--verify`` gets a fixed seed of its own, not one drawn from the
    workload seed: the size of the random models it checks on sets its
    cost, which varied by half between seeds and moved p90.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "e.json").write_text('{"E": [2, 0]}', encoding="utf-8")
    (workdir / "r.json").write_text('{"R": [1, 1]}', encoding="utf-8")
    size = EVAL_CARRIER
    edges = regular_digraph(rng, size, EVAL_DEGREE)
    names = [f"e{i}" for i in range(size)]
    rows = sorted(edges)
    (workdir / "model-e.json").write_text(json.dumps(
        {"carrier": names, "relations": {"E": [[[names[a], names[b]], []] for a, b in rows]}}),
        encoding="utf-8")
    (workdir / "model-r.json").write_text(json.dumps(
        {"carrier": names, "relations": {"R": [[[names[a]], [names[b]]] for a, b in rows]}}),
        encoding="utf-8")
    model_e, model_r = str(workdir / "model-e.json"), str(workdir / "model-r.json")
    powers = {k: bool_power(edges, size, k) for k in range(1, 7)}
    cases = []  # (label, argv, check)

    def formula_case(shape: str, j: int, want: set):
        e, free = shape_edges(shape, j)
        names_j = _fresh_names(rng, sorted({v for x in e for v in x} - set(free)))
        q = _write_query(workdir / f"{shape}{j}.ccq", "e.json", formula_text(e, free, names_j))
        cases.append((f"eval {shape}{j}", ["eval", q, model_e], _expect_rows(want, names)))

    for j in EVAL_PATHS:
        formula_case("path", j, powers[j])
    for j in EVAL_CYCLES:
        formula_case("cycle", j, {(a,) for a, b in powers[j] if a == b})
    for j in EVAL_STARS:
        formula_case("star", j, {(a,) for a, _ in powers[1]})
    for j in EVAL_TERM_CHAINS:
        q = _write_query(workdir / f"chain{j}.gcq", "r.json", " ; ".join(["R"] * j))
        cases.append((f"eval R^{j}", ["eval", q, model_r], _expect_pairs(powers[j], names)))
    for j in EVAL_TERM_CYCLES:
        body = f"copy ; (({' ; '.join(['R'] * j)}) (+) id) ; merge"
        q = _write_query(workdir / f"loop{j}.gcq", "r.json", body)
        cases.append((f"eval loop{j}", ["eval", q, model_r],
                       _expect_pairs({(a, b) for a, b in powers[j] if a == b}, names)))
    for shape in CCQ_SHAPES:
        for j in THETA_SIZES:
            e, free = shape_edges(shape, j)
            names_j = _fresh_names(rng, sorted({v for x in e for v in x} - set(free)))
            q = _write_query(workdir / f"theta-{shape}{j}.ccq", "e.json",
                             formula_text(e, free, names_j))
            cases.append((f"translate {shape}{j}",
                           ["translate", q, "--verify", "--trials", "20",
                            "--seed", str(len(cases))],
                           _expect_translation(r"\bE\b", None, j)))
    for i, (text, (n, m), boxes) in enumerate(LAMBDA_TERMS):
        q = _write_query(workdir / f"lambda{i}.gcq", "r.json", text)
        cases.append((f"translate {text}",
                       ["translate", q, "--verify", "--trials", "20",
                        "--seed", str(len(cases))],
                       _expect_translation(r"\bR\(", f"{n},{m} |-", boxes)))
    cases = _shuffled(rng, cases)

    def bind(cq):
        return [_cli_op(cq, label, argv, check) for label, argv, check in cases]

    return Workload(bind, {
        "ops_per_pass": len(cases),
        "carrier": size,
        "out_degree": EVAL_DEGREE,
        "model_tuples": len(edges),
        "formula_paths": list(EVAL_PATHS),
        "formula_cycles": list(EVAL_CYCLES),
        "formula_stars": list(EVAL_STARS),
        "term_chains": list(EVAL_TERM_CHAINS),
        "term_cycles": list(EVAL_TERM_CYCLES),
        "theta_verify_atoms": list(THETA_SIZES),
        "lambda_verify_terms": len(LAMBDA_TERMS),
    })


# -- clique_search --------------------------------------------------------------

CLIQUE_PLAIN = tuple(range(4, 10))
CLIQUE_DECORATED = tuple(range(4, 9))
# 25 ops per pass put p50 and p90 in the middle of one op's samples, not
# between two ops of very different cost.
CLIQUE_POSITIVE = tuple(range(4, 13))


def _clique(n: int) -> dict:
    return {"E": [((i,), (k,)) for i, k in clique_edges(n)]}


def _decorated(n: int, lengths: list) -> tuple[int, dict]:
    """K_n under E, plus a path of ``lengths[i]`` F-edges hanging off vertex i."""
    edges = _clique(n)
    tails = []
    vcount = n
    for i, length in enumerate(lengths):
        prev = i
        for _ in range(length):
            tails.append(((prev,), (vcount,)))
            prev = vcount
            vcount += 1
    edges["F"] = tails
    return vcount, edges


def _witness_check(source: tuple[int, dict], target: dict) -> Callable[[list], None]:
    """Exactly one morphism, checked edge by edge against the raw edge lists."""
    vcount, edges = source

    def check(found: list):
        if len(found) != 1:
            raise WrongAnswer(f"{len(found)} morphisms, expected 1")
        hom = found[0]
        if len(hom.vmap) != vcount:
            raise WrongAnswer("vertex map does not cover the source")
        for sym, rows in edges.items():
            emap = hom.emaps.get(sym, ())
            if len(emap) != len(rows):
                raise WrongAnswer(f"edge map of {sym} does not cover the source")
            for (src, tgt), image in zip(rows, emap):
                want = (tuple(hom.vmap[v] for v in src), tuple(hom.vmap[v] for v in tgt))
                if not 0 <= image < len(target[sym]) or target[sym][image] != want:
                    raise WrongAnswer(f"{sym}-edge not preserved")
    return check


def _expect_none(found: list):
    if found:
        raise WrongAnswer("a morphism K_n -> K_(n-1) cannot exist (pigeonhole)")


def build_clique_search(seed: int, workdir: Path) -> Workload:
    """``find_morphisms(K_n, T, limit=1)`` refutations plus positive controls.

    T is K_(n-1), or K_(n-1) with tails of lengths 1..n-1 under a second
    symbol.  The tails remove every transposition automorphism without
    changing the answer.  The instances are fixed and the seed only orders
    the ops: search cost depends on vertex labels (decorated K8 -> K7 took
    444-805 ms over eight labelings), which would make runs with different
    seeds incomparable.
    """
    rng = random.Random(seed)
    cases = []  # (label, source, target, check)
    for n in CLIQUE_PLAIN:
        cases.append((f"K{n}->K{n - 1}", (n, _clique(n)), (n - 1, _clique(n - 1)), _expect_none))
    for n in CLIQUE_POSITIVE:
        source, target = (n - 1, _clique(n - 1)), (n, _clique(n))
        cases.append((f"K{n - 1}->K{n}", source, target, _witness_check(source, target[1])))
    for n in CLIQUE_DECORATED:
        cases.append((f"K{n}->K{n - 1}+tails", (n, _clique(n)),
                      _decorated(n - 1, list(range(1, n))), _expect_none))
        source, target = (n - 1, _clique(n - 1)), _decorated(n, list(range(n, 0, -1)))
        cases.append((f"K{n - 1}->K{n}+tails", source, target, _witness_check(source, target[1])))
    cases = _shuffled(rng, cases)

    def bind(cq):
        ops = []
        for label, source, target, check in cases:
            g, h = cq.Hypergraph(*source), cq.Hypergraph(*target)
            ops.append(Op(label, lambda g=g, h=h: cq.find_morphisms(g, h, limit=1), check))
        return ops

    return Workload(bind, {
        "ops_per_pass": len(cases),
        "refuted": [f"K{n}" for n in CLIQUE_PLAIN],
        "refuted_decorated": [f"K{n}" for n in CLIQUE_DECORATED],
        "target_vertices_max": max(t[0] for _, _, t, _ in cases),
    })


# -- oracle_corpus --------------------------------------------------------------

CORPUS_SIGNATURE = {"R": (1, 1), "S": (2, 1), "P": (2, 0), "D": (1, 0)}
CORPUS_PAIRS = 3000
CORPUS_MAX_NODES = 10
CORPUS_APEX_CAP = 8
_CONSTANTS = {"copy": (1, 2), "discard": (1, 0), "merge": (2, 1), "spawn": (0, 1),
              "id": (1, 1), "swap": (2, 2)}


def _sort(t: tuple) -> tuple[int, int]:
    kind = t[0]
    if kind == "gen":
        return t[2], t[3]
    if kind == "id0":
        return 0, 0
    if kind in _CONSTANTS:
        return _CONSTANTS[kind]
    a, b = _sort(t[1]), _sort(t[2])
    if kind == "seq":
        return a[0], b[1]
    return a[0] + b[0], a[1] + b[1]


def _leaves(t: tuple) -> int:
    return _leaves(t[1]) + _leaves(t[2]) if t[0] in ("seq", "ten") else 1


def apex_size(t: tuple) -> tuple[int, int]:
    """(vertices, edges) of the compiled apex, by union-find over wire ends.

    Each leaf owns fresh vertices; ``;`` glues the left term's outputs to
    the right term's inputs.  Independent of cqgraph's compiler.
    """
    parent: list[int] = []

    def fresh(k: int) -> list[int]:
        start = len(parent)
        parent.extend(range(start, start + k))
        return list(range(start, start + k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = 0

    def walk(u: tuple) -> tuple[list, list]:
        nonlocal edges
        kind = u[0]
        if kind == "seq":
            ai, ao = walk(u[1])
            bi, bo = walk(u[2])
            for x, y in zip(ao, bi):
                parent[find(x)] = find(y)
            return ai, bo
        if kind == "ten":
            ai, ao = walk(u[1])
            bi, bo = walk(u[2])
            return ai + bi, ao + bo
        if kind == "gen":
            vs = fresh(u[2] + u[3])
            edges += 1
            return vs[:u[2]], vs[u[2]:]
        if kind == "id0":
            return [], []
        if kind == "swap":
            a, b = fresh(2)
            return [a, b], [b, a]
        (v,) = fresh(1)
        n, m = _CONSTANTS[kind]
        return [v] * n, [v] * m

    walk(t)
    return len({find(x) for x in range(len(parent))}), edges


def _random_layer(rng: random.Random, width: int, cap: int) -> tuple:
    """One tensor layer consuming ``width`` wires, sometimes opening a new one."""
    atoms = [(k,) for k in _CONSTANTS] + [("gen", s, n, m) for s, (n, m) in CORPUS_SIGNATURE.items()]
    parts = []
    left, out = width, 0
    while left > 0:
        fits = [a for a in atoms if 0 < _sort(a)[0] <= left]
        if out + left >= cap:
            fits = [a for a in fits if _sort(a)[1] <= _sort(a)[0]] or fits
        atom = rng.choice(fits)
        parts.append(atom)
        left -= _sort(atom)[0]
        out += _sort(atom)[1]
    if out < cap and rng.random() < 0.25:
        starts = [a for a in atoms if _sort(a)[0] == 0]
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(starts))
    if not parts:
        return ("id0",)
    layer = parts[0]
    for p in parts[1:]:
        layer = ("ten", layer, p)
    return layer


def random_term(rng: random.Random) -> tuple:
    width = rng.randint(0, 3)
    term = _random_layer(rng, width, 5)
    while _leaves(term) < CORPUS_MAX_NODES and rng.random() < 0.75:
        term = ("seq", term, _random_layer(rng, _sort(term)[1], 5))
    return term


def corpus_pairs(rng: random.Random, want: int) -> list:
    """Same-sort pairs of small terms, as in the oracle-agreement criterion:
    mostly a term against an earlier one of its sort, sometimes against itself."""
    buckets: dict = {}
    pairs = []
    while len(pairs) < want:
        t = random_term(rng)
        if _leaves(t) > CORPUS_MAX_NODES or apex_size(t)[0] > CORPUS_APEX_CAP:
            continue
        bucket = buckets.setdefault(_sort(t), [])
        if bucket and rng.random() < 0.9:
            pairs.append((rng.choice(bucket), t))
        elif bucket and rng.random() < 0.3:
            pairs.append((t, t))
        bucket.append(t)
    return pairs


def _materialize(cq, t: tuple, memo: dict):
    """Plain tuple tree -> cqgraph term, sharing equal subtrees."""
    if t in memo:
        return memo[t]
    kind = t[0]
    gcq = cq.gcq
    if kind == "seq":
        out = gcq.Seq(_materialize(cq, t[1], memo), _materialize(cq, t[2], memo))
    elif kind == "ten":
        out = gcq.Tensor(_materialize(cq, t[1], memo), _materialize(cq, t[2], memo))
    elif kind == "gen":
        out = gcq.Gen(t[1], t[2], t[3])
    else:
        out = {"copy": gcq.Copy, "discard": gcq.Discard, "merge": gcq.Merge,
               "spawn": gcq.Spawn, "id": gcq.Id1, "id0": gcq.Id0, "swap": gcq.Swap}[kind]()
    memo[t] = out
    return out


def build_oracle_corpus(seed: int, workdir: Path) -> Workload:
    """``decide_inclusion`` plus ``natural_model_check`` on small term pairs."""
    rng = random.Random(seed)
    pairs = corpus_pairs(rng, CORPUS_PAIRS)
    apexes = [apex_size(t) for pair in pairs for t in pair]

    def bind(cq):
        memo: dict = {}
        ops = []
        for i, (c, d) in enumerate(pairs):
            tc, td = _materialize(cq, c, memo), _materialize(cq, d, memo)

            def run(tc=tc, td=td):
                return cq.decide_inclusion(tc, td).holds, cq.natural_model_check(tc, td)

            def check(result, reflexive=c == d):
                search, oracle = result
                if search != oracle:
                    raise WrongAnswer(f"search says {search}, natural model says {oracle}")
                if reflexive and not search:
                    raise WrongAnswer("t <= t must hold")

            ops.append(Op(f"pair{i}", run, check))
        return ops

    return Workload(bind, {
        "ops_per_pass": len(pairs),
        "max_term_nodes": CORPUS_MAX_NODES,
        "apex_vertices_max": max(v for v, _ in apexes),
        "apex_vertices_mean": round(sum(v for v, _ in apexes) / len(apexes), 2),
        "apex_edges_mean": round(sum(e for _, e in apexes) / len(apexes), 2),
        "reflexive_pairs": sum(c == d for c, d in pairs),
    })


WORKLOADS = {
    "oracle_corpus": build_oracle_corpus,
    "ccq_check": build_ccq_check,
    "clique_search": build_clique_search,
    "model_eval": build_model_eval,
}
