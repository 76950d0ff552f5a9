"""Guard: no function in the package reaches itself through calls by name.

Every tree walk in cqgraph uses an explicit stack, so input of any depth
answers under the default recursion limit.  This test reads the source of
every module under ``src/cqgraph``, builds the graph of calls by name
(plain calls resolved through nested and enclosing function scopes, the
module and its package imports; ``self.name`` calls resolved in the
enclosing class), and fails, naming each cycle, when a function can call
itself directly, mutually or through a nested closure.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cqgraph"


class _Scope:
    def __init__(self, key, parent, cls):
        self.key = key  # (module, qualname) of the function, None at module level
        self.parent = parent
        self.cls = cls  # (module, class qualname) for a class body and its methods
        self.defs: dict[str, tuple] = {}  # name -> key of a def in this scope


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _call_graph(sources: dict[str, str]) -> dict[tuple, set]:
    """(module, qualname) -> the keys it calls by name, for module texts."""
    calls: dict[tuple, set] = {}
    for module, text in sources.items():
        imports: dict[str, tuple] = {}  # local name -> (module, name)
        found = []  # (calling scope, called name, class of self or None)
        root = _Scope(None, None, None)
        todo = [(node, root, "") for node in reversed(ast.parse(text).body)]
        while todo:
            node, scope, prefix = todo.pop()
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (node.module, alias.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (module, prefix + node.name)
                scope.defs[node.name] = key
                calls[key] = set()
                inner = _Scope(key, scope, scope.cls if scope.key is None else None)
                todo += [(child, inner, key[1] + ".") for child in reversed(node.body)]
                continue
            if isinstance(node, ast.ClassDef):
                qual = prefix + node.name
                body = _Scope(None, scope, (module, qual))  # not a closure scope
                todo += [(child, body, qual + ".") for child in reversed(node.body)]
                continue
            if isinstance(node, ast.Call) and scope.key is not None:
                func = node.func
                if isinstance(func, ast.Name):
                    found.append((scope, func.id, None))
                elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                        and func.value.id == "self" and _method_class(scope) is not None:
                    found.append((scope, func.attr, _method_class(scope)))
            todo += [(child, scope, prefix)
                     for child in reversed(list(ast.iter_child_nodes(node)))]
        for scope, name, cls in found:
            if cls is not None:
                target = (cls[0], f"{cls[1]}.{name}")
            else:
                target, s = None, scope
                while s is not None and target is None:
                    if s.key is not None or s.parent is None:  # skip class bodies
                        target = s.defs.get(name)
                    s = s.parent
                target = target or imports.get(name)
            if target is not None:
                calls[scope.key].add(target)
    return {key: {t for t in targets if t in calls} for key, targets in calls.items()}


def _method_class(scope: _Scope):
    while scope is not None and scope.cls is None:
        scope = scope.parent
    return scope.cls if scope is not None else None


def _cycle_through(graph: dict, start: tuple) -> list | None:
    """The shortest call path from start back to itself, if any."""
    parent = {}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in sorted(graph[u]):
            if v == start:
                path = [u]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                return path[::-1] + [start]
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return None


def _cycles(sources: dict[str, str]) -> list[str]:
    graph = _call_graph(sources)
    cycles = []
    for key in sorted(graph):
        path = _cycle_through(graph, key)
        if path is not None:
            cycles.append(" -> ".join(f"{m}.{q}" for m, q in path))
    return cycles


def test_call_graph_sees_known_calls():
    graph = _call_graph(_package_sources())
    assert ("gcq", "_leaf_relation") in graph[("gcq", "eval_gcq")]
    assert ("gcq", "term_nodes") in graph[("cospan", "term_to_cospan")]  # an import
    assert ("hypergraph", "_Search.emit") in graph[("hypergraph", "_Search.assign")]  # self
    assert ("ccq", "parse_ccq_two_sided.free") in graph[("ccq", "parse_ccq_two_sided")]  # a closure


def test_guard_finds_direct_mutual_and_closure_recursion():
    sources = {
        "a": "from .b import pong\n\n"
             "def direct(n):\n    return direct(n - 1)\n\n"
             "def ping():\n    pong()\n\n"
             "def outer():\n    def inner():\n        return outer()\n    return inner()\n\n"
             "class K:\n    def step(self):\n        return self.step()\n\n"
             "def fine():\n    return direct(1)\n",
        "b": "from .a import ping\n\ndef pong():\n    ping()\n",
    }
    assert _cycles(sources) == [
        "a.K.step -> a.K.step",
        "a.direct -> a.direct",
        "a.outer -> a.outer.inner -> a.outer",
        "a.outer.inner -> a.outer -> a.outer.inner",
        "a.ping -> b.pong -> a.ping",  # pong reaches ping through its import
        "b.pong -> a.ping -> b.pong",
    ]


def test_no_function_reaches_itself():
    cycles = _cycles(_package_sources())
    assert not cycles, "recursive functions:\n" + "\n".join(cycles)
