"""Signatures, finite relational models, and relations as tuple sets.

A signature assigns every relation symbol a sort ``(n, m)``: ``n`` input
positions and ``m`` output positions.  A *relational* signature (every
``m = 0``) is the classical database case.  Models interpret each symbol
as a finite set of ``(in-tuple, out-tuple)`` pairs over a shared carrier.

Carrier elements are opaque string ids in the serialized form; internally
every tuple is over dense naturals ``0 .. size-1`` so that hashing and
comparison stay cheap and output stays canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ModelError, SignatureError


class Sort(NamedTuple):
    n: int
    m: int


Pair = tuple  # an (in-tuple, out-tuple) pair over carrier indices


# keyword -> class of each of gcq's wiring constants, the one table of the
# names term text gives them: each ``gcq.Wiring`` class enters itself as it
# is stated, the term parser reads it, and no box can take a name in it
_KEYWORDS: dict[str, type] = {}


def check_symbol_name(name: str) -> None:
    """Refuse a name that no symbol or box can take, since term text could
    not spell it: the empty name, or a wiring constant's, which a term
    would read as the constant."""
    if not name:
        raise SignatureError("symbol names must be non-empty")
    if name in _KEYWORDS:
        raise SignatureError(f"symbol {name!r} is the name of a wiring constant")


class Signature:
    """Immutable map from symbol names to sorts, kept in lexicographic order."""

    def __init__(self, symbols: Mapping[str, tuple[int, int]] | Iterable[tuple[str, tuple[int, int]]] = ()):
        raw = dict(symbols)
        table: dict[str, Sort] = {}
        for name in sorted(raw):
            n, m = raw[name]
            check_symbol_name(name)
            if n < 0 or m < 0:
                raise SignatureError(f"negative arity for symbol {name!r}")
            table[name] = Sort(int(n), int(m))
        self._table = table

    def sort(self, name: str) -> Sort:
        try:
            return self._table[name]
        except KeyError:
            raise SignatureError(f"unknown symbol {name!r}") from None

    def is_relational(self) -> bool:
        """True when every symbol has coarity 0 (the classical CQ case)."""
        return all(s.m == 0 for s in self._table.values())

    def merged(self, other: "Signature") -> "Signature":
        """Union of two signatures; clashing sorts for one name are an error."""
        table = dict(self._table)
        for name, sort in other.items():
            if table.setdefault(name, sort) != sort:
                raise SignatureError(f"symbol {name!r} used at two sorts")
        return _trusted(Signature, _table={name: table[name] for name in sorted(table)})

    def items(self) -> Iterator[tuple[str, Sort]]:
        return iter(self._table.items())

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self._table == other._table

    def __hash__(self) -> int:
        return hash(tuple(self._table.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v.n},{v.m}" for k, v in self._table.items())
        return f"Signature({{{inner}}})"


def _unique_keys(error: type, what: str):
    """A ``json.loads`` ``object_pairs_hook`` that refuses an object
    listing one key twice, raising ``error`` with the key as ``what``."""
    def hook(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise error(f"duplicate {what} {key!r}")
            seen[key] = value
        return seen
    return hook


def load_signature(text: str) -> Signature:
    """Parse a signature from JSON: an object mapping symbol -> [arity, coarity]."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys(SignatureError, "symbol"))
    except json.JSONDecodeError as exc:
        raise SignatureError(f"malformed signature JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SignatureError("signature JSON must be an object")
    table = {}
    for name, sort in doc.items():
        if (not isinstance(sort, list) or len(sort) != 2
                or not all(type(x) is int for x in sort)):  # JSON true/false are bools
            raise SignatureError(f"sort of {name!r} must be a pair of naturals")
        table[name] = (sort[0], sort[1])
    return Signature(table)


def _trusted(cls, **fields):
    """A ``cls`` holding ``fields`` as given, skipping its constructor's checks.

    Callers pass what the checked constructor would store, so that no
    ``==``, hash or output tells the two apart.  ``Signature``: ``_table``,
    non-empty names in sorted order, each to a ``Sort`` of naturals.
    ``Relation``: a ``Sort``
    and a frozenset of (tuple, tuple) pairs of it over the carrier.
    ``RelModel``: a tuple of unique ids, and for each symbol in signature
    order a frozenset of pairs at its sort.  ``Hypergraph``: sorted symbols,
    each with a non-empty tuple of in-range edges of one sort.  ``Cospan``:
    in-range tuple boundaries of lengths ``n`` and ``m``.  ``CcqJudgment``:
    a natural ``context`` and a ``formula`` whose variables lie in it."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Relation:
    """A finite relation of a fixed sort over a carrier of dense naturals.

    ``pairs`` is a set of ``(in-tuple, out-tuple)`` pairs.  Stored as a
    frozenset, so equality is structural and order-independent; sort it
    for canonical output.
    """

    sort: Sort
    carrier_size: int
    pairs: frozenset

    def __post_init__(self):
        norm = frozenset((tuple(a), tuple(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", norm)
        n, m = self.sort
        for a, b in norm:
            if len(a) != n or len(b) != m:
                raise ModelError(f"tuple lengths {len(a)},{len(b)} do not match sort {self.sort}")
            if any(not (0 <= x < self.carrier_size) for x in a + b):
                raise ModelError("tuple element outside the carrier")

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return (tuple(pair[0]), tuple(pair[1])) in self.pairs


def full_relation(size: int, n: int, m: int) -> Relation:
    pairs = frozenset(
        (a, b) for a in product(range(size), repeat=n) for b in product(range(size), repeat=m)
    )
    return _trusted(Relation, sort=Sort(n, m), carrier_size=size, pairs=pairs)


def relation_compose(r: Relation, s: Relation) -> Relation:
    """Relational composition: pairs (x, z) with a shared middle witness y."""
    if r.sort.m != s.sort.n:
        raise ModelError(f"cannot compose sorts {r.sort} ; {s.sort}")
    if r.carrier_size != s.carrier_size:
        raise ModelError("compose over different carriers")
    by_mid: dict = {}
    for mid, out in s.pairs:
        by_mid.setdefault(mid, []).append(out)
    pairs = set()
    for a, mid in r.pairs:
        for out in by_mid.get(mid, ()):
            pairs.add((a, out))
    return _trusted(Relation, sort=Sort(r.sort.n, s.sort.m), carrier_size=r.carrier_size,
                    pairs=frozenset(pairs))


def relation_tensor(r: Relation, s: Relation) -> Relation:
    """Parallel product: tuple concatenation on both sides."""
    if r.carrier_size != s.carrier_size:
        raise ModelError("tensor over different carriers")
    pairs = frozenset(
        (a + c, b + d) for a, b in r.pairs for c, d in s.pairs
    )
    return _trusted(Relation, sort=Sort(r.sort.n + s.sort.n, r.sort.m + s.sort.m),
                    carrier_size=r.carrier_size, pairs=pairs)


class RelModel:
    """A finite relational structure: a carrier plus one relation per symbol.

    The carrier may be empty; then ``X^0 = {()}`` still has one element, so
    sort-(0,0) relations distinguish the empty relation from ``{(•,•)}``.
    """

    def __init__(self, signature: Signature, carrier: Sequence[str],
                 rho: Mapping[str, Iterable[Pair]] | None = None):
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise ModelError("carrier ids must be unique")
        self.signature = signature
        self.carrier = carrier
        table: dict[str, frozenset] = {name: frozenset() for name in signature}
        if rho:
            for name, pairs in rho.items():
                if name not in signature:
                    raise SignatureError(f"unknown symbol {name!r} in model")
                table[name] = frozenset((tuple(a), tuple(b)) for a, b in pairs)
        self.rho = table
        size = len(carrier)
        for name, pairs in table.items():
            sort = signature.sort(name)
            for a, b in pairs:
                if len(a) != sort.n or len(b) != sort.m:
                    raise ModelError(f"tuple for {name!r} does not match sort {sort}")
                if any(not (0 <= x < size) for x in a + b):
                    raise ModelError(f"tuple for {name!r} mentions an element outside the carrier")

    @property
    def size(self) -> int:
        return len(self.carrier)

    def relation(self, name: str) -> Relation:
        sort = self.signature.sort(name)
        return _trusted(Relation, sort=sort, carrier_size=self.size, pairs=self.rho[name])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RelModel) and self.signature == other.signature
                and self.carrier == other.carrier and self.rho == other.rho)

    def __repr__(self) -> str:
        return f"RelModel(|X|={self.size}, {sum(map(len, self.rho.values()))} tuples)"


def load_model(text: str, sig: Signature) -> RelModel:
    """Parse a model from JSON: {"carrier": [ids...], "relations": {sym: [[[in...],[out...]], ...]}}.

    "relations" may be left out (no tuples), but not given as anything
    other than an object; no object may list a key, a symbol say, twice."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys(ModelError, "key"))
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed model JSON: {exc}") from None
    if not isinstance(doc, dict) or "carrier" not in doc:
        raise ModelError('model JSON must be an object with a "carrier" field')
    carrier = doc["carrier"]
    if not isinstance(carrier, list) or not all(isinstance(x, str) for x in carrier):
        raise ModelError("carrier must be a list of string ids")
    index = {name: i for i, name in enumerate(carrier)}
    relations = doc.get("relations", {})  # only a missing key means no relations
    if not isinstance(relations, dict):
        raise ModelError("relations must be an object mapping symbols to tuple lists")
    # one pass over the rows; the errors the checked constructor would raise
    # come after every row's own, in its order: carrier ids, symbols, sorts
    rho = {name: frozenset() for name in sig}
    unknown, missorted = [], set()
    at = index.__getitem__
    for name, rows in relations.items():
        if not isinstance(rows, list):
            raise ModelError(f"the tuples of {name!r} must be a list")
        sort = sig.sort(name) if name in sig else None
        pairs = set()
        for row in rows:
            if not (isinstance(row, list) and len(row) == 2
                    and isinstance(row[0], list) and isinstance(row[1], list)):
                raise ModelError(f"each tuple of {name!r} must be a pair [ins, outs]")
            try:
                pair = (tuple(map(at, row[0])), tuple(map(at, row[1])))
            except (KeyError, TypeError):  # a carrier holds only strings
                bad = next(x for x in row[0] + row[1] if not isinstance(x, str) or x not in index)
                raise ModelError(f"element {bad!r} not in carrier") from None
            if sort is not None and (len(pair[0]), len(pair[1])) != sort:
                missorted.add(name)
            pairs.add(pair)
        if sort is None:
            unknown.append(name)
        else:
            rho[name] = frozenset(pairs)
    if len(index) != len(carrier):
        raise ModelError("carrier ids must be unique")
    if unknown:
        raise SignatureError(f"unknown symbol {unknown[0]!r} in model")
    for name in sig:
        if name in missorted:
            raise ModelError(f"tuple for {name!r} does not match sort {sig.sort(name)}")
    return _trusted(RelModel, signature=sig, carrier=tuple(carrier), rho=rho)


def dump_model(model: RelModel) -> str:
    names = model.carrier
    relations = {sym: [[[names[x] for x in a], [names[x] for x in b]] for a, b in sorted(rows)]
                 for sym, rows in sorted(model.rho.items())}
    return json.dumps({"carrier": list(names), "relations": relations})


def random_model(sig: Signature, carrier_size: int, rng, density: float | None = None) -> RelModel:
    """Draw a random model: each candidate tuple is kept independently.

    With ``density=None`` a per-symbol density is drawn from {0.2, 0.5, 0.8},
    which exercises sparse and dense interpretations alike.
    """
    carrier = tuple(f"e{i}" for i in range(carrier_size))
    rho = {}
    for name, sort in sig.items():
        p = density if density is not None else rng.choice((0.2, 0.5, 0.8))
        pairs = (
            (a, b)
            for a in product(range(carrier_size), repeat=sort.n)
            for b in product(range(carrier_size), repeat=sort.m)
            if rng.random() < p
        )
        rho[name] = frozenset(pairs)
    return _trusted(RelModel, signature=sig, carrier=carrier, rho=rho)
