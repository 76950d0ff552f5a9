import random

import pytest

from conftest import (
    clique, model_battery, mutate, naive_eval_ccq, random_judgment, refuses_5000_digits,
)
from cqgraph.ccq import (
    AddVar,
    CcqJudgment,
    Conj,
    ConjIntro,
    Eq,
    EqIntro,
    Exists,
    ExistsIntro,
    MergeVars,
    RelAtom,
    RelIntro,
    SwapVars,
    Top,
    TopIntro,
    _align,
    adjacent_swaps,
    derive,
    eval_ccq,
    format_formula,
    parse_ccq,
    parse_ccq_two_sided,
    print_ccq,
    replay_eval,
)
from cqgraph.errors import ParseError, SignatureError
from cqgraph.gcq import Copy, postorder
from cqgraph.sigmodel import RelModel, Signature, random_model

SIG = Signature({"R": (2, 0), "S": (1, 0)})


def rename(f, old_ctx: int, new_ctx: int, fmap: dict):
    """f with its free variables renamed and its bound ones rebased.

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

    done: list = []  # renamed subformulas
    for u in postorder(f):
        if isinstance(u, Conj):
            rhs = done.pop()
            done[-1] = Conj(done[-1], rhs)
        elif isinstance(u, Exists):
            done[-1] = Exists(done[-1])
        elif isinstance(u, Eq):
            done.append(Eq(m(u.i), m(u.j)))
        elif isinstance(u, RelAtom):
            done.append(RelAtom(u.symbol, tuple(m(a) for a in u.args)))
        else:
            done.append(u)
    return done.pop()


def test_parse_intro_formula():
    j = parse_ccq("2 |- exists z0. (x0 = x1) /\\ R(x0, z0)", SIG)
    assert j == CcqJudgment(2, Exists(Conj(Eq(0, 1), RelAtom("R", (0, 2)))))


def test_parse_top():
    assert parse_ccq("0 |- top", SIG) == CcqJudgment(0, Top())


def test_parse_out_of_context():
    with pytest.raises(ParseError):
        parse_ccq("1 |- x0 = x1", SIG)


def test_parse_unknown_symbol_and_arity():
    with pytest.raises(ParseError):
        parse_ccq("1 |- Q(x0)", SIG)
    with pytest.raises(ParseError):
        parse_ccq("1 |- R(x0)", SIG)


@pytest.mark.parametrize("context, formula", [
    (1.5, Top()),  # a context not an int
    (True, Eq(0, 0)),
    (2, RelAtom("R", (0, 1.0))),  # a variable not an int
    (2, Exists(Eq(False, 2))),
])
def test_judgments_reject_non_integer_contexts_and_variables(context, formula):
    with pytest.raises(ValueError):
        CcqJudgment(context, formula)


@pytest.mark.parametrize("formula", [
    RelAtom(1, (0,)),
    Conj(RelAtom("R", (0, 0)), Exists(RelAtom(1, (1,)))),
])
def test_judgments_reject_atom_symbols_that_are_not_strings(formula):
    with pytest.raises(ValueError) as caught:
        CcqJudgment(1, formula)
    assert str(caught.value) == "atom symbol 1 is not a string"


@pytest.mark.parametrize("symbol", ["", "a b", "9", "R'", "\u00e9", "R\n", "copy"])
def test_judgments_reject_atom_symbols_that_formula_text_cannot_spell(symbol):
    # print_ccq would print text that does not parse back as the atom
    with pytest.raises(ValueError, match="^atom symbol"):
        CcqJudgment(1, RelAtom(symbol, (0,)))
    with pytest.raises(ValueError, match="^atom symbol"):
        CcqJudgment(1, Exists(Conj(Top(), RelAtom(symbol, (0, 1)))))


def test_judgments_keep_atom_symbols_that_are_names():
    for symbol in ("top", "exists", "_", "R2", "copy_"):
        j = CcqJudgment(1, RelAtom(symbol, (0,)))
        sig = Signature({symbol: (1, 0)})
        assert parse_ccq(print_ccq(j), sig) == j


def test_parse_rejects_shadowing():
    with pytest.raises(ParseError):
        parse_ccq("1 |- exists x0. R(x0, x0)", SIG)
    with pytest.raises(ParseError):
        parse_ccq("0 |- exists z. exists z. top", SIG)


def test_parse_whitespace_insensitive():
    a = parse_ccq("2|-exists z0.(x0=x1)/\\R(x0,z0)", SIG)
    b = parse_ccq("2 |-  exists z0 .  ( x0 = x1 )  /\\ R( x0 , z0 )", SIG)
    assert a == b


def test_print_parse_round_trip(rng):
    for _ in range(50):
        j = random_judgment(rng, SIG)
        assert parse_ccq(print_ccq(j), SIG) == j


def test_derive_eq_leaf():
    d = derive(CcqJudgment(2, Eq(0, 1)))
    assert isinstance(d, EqIntro)


def test_derive_eq_weakened_once():
    d = derive(CcqJudgment(3, Eq(0, 1)))
    assert isinstance(d, AddVar)
    assert isinstance(d.child, EqIntro)
    # replay against the two-sided brute force on every model of size <= 2
    rng = random.Random(7)
    for model in model_battery(SIG, rng, sizes=(1, 1, 2, 2, 2)):
        assert replay_eval(d, model) == naive_eval_ccq(d.conclusion, model)


def test_derive_atom_leaf():
    for n in (0, 1, 2):
        sig = Signature({"Q": (n, 0)})
        d = derive(CcqJudgment(n, RelAtom("Q", tuple(range(n)))))
        assert isinstance(d, RelIntro)


def test_derive_handles_repeats_and_permutations():
    sig = Signature({"R": (2, 0)})
    cases = [
        CcqJudgment(1, RelAtom("R", (0, 0))),
        CcqJudgment(2, RelAtom("R", (1, 0))),
        CcqJudgment(3, RelAtom("R", (2, 0))),
        CcqJudgment(2, Conj(RelAtom("R", (1, 0)), Eq(0, 0))),
        CcqJudgment(0, Exists(Exists(RelAtom("R", (1, 0))))),
    ]
    rng = random.Random(3)
    models = model_battery(sig, rng, sizes=(1, 2, 2, 3))
    for j in cases:
        d = derive(j)
        assert d.conclusion == j
        for model in models:
            assert replay_eval(d, model) == naive_eval_ccq(j, model)


def test_a_merge_takes_the_swaps_of_its_bubble_passes():
    # the reference: bubble passes that send slots a and s to the end, the
    # other slots keeping their order, and then the merged slot back to a
    for n in range(2, 25):
        for s in range(1, n):
            for a in range(s):
                others = [p for p in range(n) if p != a and p != s]
                to_end = [0] * n
                for rank, p in enumerate(others + [a, s]):
                    to_end[p] = rank
                back = [p if p < s else p - 1 for p in others] + [a]
                want = adjacent_swaps(to_end) + ["merge"] + adjacent_swaps(back)
                # slot s repeats slot a's variable; once s goes the rest are sorted
                labels = [a if p == s else p for p in range(n)]
                d, fv = _align(RelIntro("R", n), labels)
                assert fv == [p for p in range(n) if p != s]
                steps = []
                while not isinstance(d, RelIntro):
                    steps.append(d.k if isinstance(d, SwapVars) else "merge")
                    d = d.child
                assert steps[::-1] == want, (n, a, s)


def test_eval_top_is_unit_even_on_empty_model():
    empty = RelModel(SIG, [])
    assert eval_ccq(CcqJudgment(0, Top()), empty) == frozenset({()})
    # but an existential needs a witness
    assert eval_ccq(CcqJudgment(0, Exists(Top())), empty) == frozenset()


def test_eval_equality():
    model = RelModel(SIG, ["a", "b"])
    assert eval_ccq(CcqJudgment(2, Eq(0, 1)), model) == frozenset({(0, 0), (1, 1)})


def test_eval_intro_formula():
    j = parse_ccq("2 |- exists z0. (x0 = x1) /\\ R(x0, z0)", SIG)
    model = RelModel(SIG, ["a", "b"], {"R": [((0, 0), ())]})
    assert eval_ccq(j, model) == frozenset({(0, 0)})


def test_eval_checks_atoms_against_the_model():
    model = RelModel(Signature({"R": (1, 1)}), ["a"])
    with pytest.raises(SignatureError):
        eval_ccq(CcqJudgment(1, RelAtom("R", (0,))), model)


def test_eval_matches_naive_oracle(rng):
    for _ in range(60):
        j = random_judgment(rng, SIG, max_ctx=3, max_depth=4)
        for model in model_battery(SIG, rng, sizes=(1, 2, 3)):
            assert eval_ccq(j, model) == naive_eval_ccq(j, model)


def _shape_formula(shape: str, atoms: int) -> str:
    """A path x0 -> x1, a cycle through x0, or a star at x0 of E atoms,
    every inner vertex bound: edges of one tentacle pattern repeat."""
    if shape == "star":
        inner = [f"z{i}" for i in range(atoms)]
        pairs = [("x0", z) for z in inner]
    else:
        inner = [f"z{i}" for i in range(atoms - 1)]
        walk = ["x0"] + inner + ["x1" if shape == "path" else "x0"]
        pairs = list(zip(walk, walk[1:]))
    free = 2 if shape == "path" else 1
    body = " /\\ ".join(f"E({a}, {b})" for a, b in pairs)
    return f"{free} |- " + "".join(f"exists {z}. " for z in inner) + body


JOIN_SIG = Signature({"E": (2, 0), "Q": (4, 0)})


@pytest.mark.parametrize("text", [
    # one tentacle pattern as far as the joined and new positions go, two as
    # far as the equal tentacles go: a shared index would confuse them
    "4 |- Q(x0, x1, x0, x1) /\\ Q(x2, x3, x3, x2)",
    "4 |- Q(x0, x1, x1, x0) /\\ Q(x2, x3, x2, x3)",
    # loops, alone, repeated, and next to an edge of the other pattern
    "1 |- E(x0, x0)",
    "2 |- E(x0, x0) /\\ E(x1, x1) /\\ E(x0, x1)",
    "0 |- exists z. E(z, z) /\\ E(z, z)",
    "1 |- exists z. E(x0, z) /\\ E(z, z) /\\ E(z, x0)",
] + [_shape_formula(shape, k) for shape in ("path", "cycle", "star") for k in range(1, 7)])
def test_eval_with_repeated_tentacle_patterns_matches_naive_oracle(text, rng):
    j = parse_ccq(text, JOIN_SIG)
    for model in model_battery(JOIN_SIG, rng):
        assert eval_ccq(j, model) == naive_eval_ccq(j, model)


def test_replay_is_derivation_independent(rng):
    # replay of the canonical derivation, a padded variant of it, and the
    # structural evaluator all agree
    for _ in range(40):
        j = random_judgment(rng, SIG, max_ctx=2, max_depth=3)
        d = derive(j)
        padded = d
        if j.context >= 2:
            k = rng.randrange(j.context - 1)
            padded = SwapVars(SwapVars(d, k), k)
        assert padded.conclusion == j
        for model in model_battery(SIG, rng, sizes=(1, 2, 2)):
            expected = eval_ccq(j, model)
            assert replay_eval(d, model) == expected
            assert replay_eval(padded, model) == expected


def test_weakening_clause(rng):
    # adding an unused variable multiplies by the carrier
    for _ in range(20):
        j = random_judgment(rng, SIG, max_ctx=2, max_depth=3)
        wide = CcqJudgment(j.context + 1,
                           rename(j.formula, j.context, j.context + 1, {}))
        for model in model_battery(SIG, rng, sizes=(1, 2)):
            base = eval_ccq(j, model)
            assert eval_ccq(wide, model) == frozenset(
                t + (w,) for t in base for w in range(model.size))


def test_exists_clause_brute_force(rng):
    for _ in range(20):
        j = random_judgment(rng, SIG, max_ctx=3, max_depth=3)
        if j.context == 0:
            continue
        closed = CcqJudgment(j.context - 1, Exists(j.formula))
        for model in model_battery(SIG, rng, sizes=(1, 2)):
            inner = eval_ccq(j, model)
            assert eval_ccq(closed, model) == frozenset(t[:-1] for t in inner)


def test_deeply_nested_formula_parses_prints_and_compares():
    text = "1 |- " + "".join(f"exists z{i}. " for i in range(1200)) + "top"
    j = parse_ccq(text, SIG)
    assert print_ccq(j) == text
    again = parse_ccq(text.replace("top", "(top)"), SIG)
    assert j == again and hash(j) == hash(again)
    assert j != parse_ccq(text.replace("top", "x0 = x0"), SIG)
    assert repr(j.formula).count("Exists(body=") == 1200


# every ParseError text of the formula parser, each in the header or at top
# level and inside a parenthesis or a quantifier, over SIG plus F: (1, 1)
PARSE_ERRORS = [
    # the header: context sizes, "|-", and the "n,m" form
    ("", "unexpected end of input"),
    ("x |- top", "expected a context size, found 'x'"),
    ("2,x |- top", "expected a context size, found 'x'"),
    ("2, |- top", "expected a context size, found '|-'"),
    ("2,", "unexpected end of input"),
    ("2 top", "expected '|-', found 'top'"),
    ("2,1 2 |- top", "expected '|-', found '2'"),
    # quantifiers
    ("1 |- exists ). top", "bad quantifier variable ')'"),
    ("1 |- (exists top. top)", "bad quantifier variable 'top'"),
    ("1 |- exists z. exists exists. top", "bad quantifier variable 'exists'"),
    ("1 |- exists x0. top", "shadowed variable 'x0'"),
    ("1 |- top /\\ (exists x0. top)", "shadowed variable 'x0'"),
    ("1,1 |- exists y0. top", "shadowed variable 'y0'"),
    ("1,1 |- exists z. exists y0. top", "shadowed variable 'y0'"),
    ("1 |- exists z. exists z. top", "shadowed variable 'z'"),
    ("1 |- exists z. (exists w. exists z. top)", "shadowed variable 'z'"),
    ("1 |- exists z top", "expected '.', found 'top'"),
    ("1 |- (exists z exists w. top)", "expected '.', found 'exists'"),
    # variables
    ("1 |- x1 = x0", "free variable x1 out of context 1"),
    ("1 |- exists z. (z = x3)", "free variable x3 out of context 1"),
    ("1,1 |- y1 = x0", "free variable y1 out of context 1"),
    ("1,1 |- (exists z. R(z, y2))", "free variable y2 out of context 1"),
    ("1 |- y0 = x0", "unbound variable 'y0'"),
    ("1 |- (exists z. top) /\\ x0 = z", "unbound variable 'z'"),
    ("1 |- exists z. (z = top)", "unbound variable 'top'"),
    ("1 |- x0 = /\\", "expected a variable, found '/\\\\'"),
    ("1 |- exists z. R(z, )", "expected a variable, found ')'"),
    ("1 |- x0 x0", "expected '=', found 'x0'"),
    ("1 |- exists z. (z /\\ top)", "expected '=', found '/\\\\'"),
    # atoms
    ("1 |- F(x0)", "symbol 'F' has coarity 1; CQ atoms need 0"),
    ("1 |- (exists z. F(z))", "symbol 'F' has coarity 1; CQ atoms need 0"),
    ("1 |- R(x0)", "symbol 'R' expects 2 arguments, got 1"),
    ("1 |- exists z. (S(z, x0))", "symbol 'S' expects 1 arguments, got 2"),
    ("1 |- Q(x0)", "unknown symbol 'Q'"),
    ("1 |- exists z. top(z)", "unknown symbol 'top'"),
    ("1 |- R(x0 x0)", "expected ')', found 'x0'"),
    ("1 |- (exists z. top x0", "expected ')', found 'x0'"),
    # trailing input and the end of input
    ("1 |- top top", "trailing input near 'top'"),
    ("1 |- (top))", "trailing input near ')'"),
    ("1 |- exists z. top )", "trailing input near ')'"),
    ("1 |- top /\\", "unexpected end of input"),
    ("1 |- ((top)", "unexpected end of input"),
    ("1 |- exists z. R(z,", "unexpected end of input"),
    ("1 |- x0 = x0 & top", "unexpected character '&'"),
]


def test_parse_errors_inside_nesting():
    sig = Signature({**dict(SIG.items()), "F": (1, 1)})
    for text, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_ccq(text, sig)
        assert str(err.value) == message, text
    assert parse_ccq("1 |- exists z. (exists w. R(z, w)) /\\ S(z)", SIG).formula == \
        Exists(Conj(Exists(RelAtom("R", (1, 2))), RelAtom("S", (1,))))
    # a bound name may spell a free variable that the context does not hold
    assert parse_ccq("1 |- exists x1. exists y0. R(x1, y0) /\\ S(x0)", SIG).formula == \
        Exists(Exists(Conj(RelAtom("R", (1, 2)), RelAtom("S", (0,)))))
    assert parse_ccq_two_sided("1,1 |- exists x1. R(x1, y0)", SIG) == \
        (1, 1, Exists(RelAtom("R", (2, 1))))


@refuses_5000_digits
def test_numbers_too_long_for_int_are_parse_errors():
    # the parser says so as a ParseError, not int()'s ValueError
    nines = "9" * 5000
    for text in (f"1 |- x{nines} = x0", f"{nines} |- top", f"1,{nines} |- top",
                 f"1,1 |- R(x0, y{nines})", f"1 |- exists x{nines}. top"):
        with pytest.raises(ParseError) as err:
            parse_ccq_two_sided(text, SIG)
        assert str(err.value) == "a number of 5000 digits is too long"
    with pytest.raises(ParseError, match="^free variable x1 out of context 1$"):
        parse_ccq("1 |- x" + "0" * 4000 + "1 = x0", SIG)  # leading zeros, still converted


def test_every_formula_the_parser_accepts_passes_the_checked_judgment():
    """The parser builds its judgments unchecked: each variable is resolved
    in its context as it is read.  Over mutated one- and two-sided texts,
    what it accepts passes the checked constructor all the same."""
    rng = random.Random(24)
    sig = Signature({"R": (2, 0), "S": (1, 0), "top": (1, 0), "exists": (2, 0), "F": (1, 1)})
    vocab = ["x0", "x1", "x3", "y0", "y1", "z0", "z1", "w", "top", "exists", "=", "/\\",
             "(", ")", ",", ".", "|-", "R", "S", "F", "0", "1", "2"]
    texts = []
    for _ in range(200):
        j = random_judgment(rng, sig, max_ctx=4, max_depth=6)
        left = rng.randint(0, j.context)
        texts.append(print_ccq(j))
        texts.append(f"{left},{j.context - left} |- "
                     f"{format_formula(j.formula, left, j.context - left)}")
    accepted = 0
    for _ in range(15000):  # about one mutated text in forty parses
        text = mutate(rng, rng.choice(texts), vocab)
        try:
            left, right, formula = parse_ccq_two_sided(text, sig)
        except ParseError:
            continue
        assert CcqJudgment(left + right, formula) == parse_ccq(text, sig), text
        accepted += 1
    assert accepted >= 200


def test_deep_derivations_compare_hash_and_print():
    # K8's derivation is about a thousand rules deep
    sig = Signature({"R": (2, 0)})
    d, e = (derive(parse_ccq(clique(8, False), sig)) for _ in range(2))
    assert d == e and hash(d) == hash(e) and repr(d) == repr(e)
    assert d != derive(parse_ccq(clique(8, True), sig))
    # a tag is compared and printed like the dataclass defaults would
    wide = AddVar(AddVar(RelIntro("R", 1)))
    assert SwapVars(wide, 0) != SwapVars(wide, 1)
    assert hash(SwapVars(wide, 1)) == hash(SwapVars(AddVar(AddVar(RelIntro("R", 1))), 1))
    assert repr(SwapVars(AddVar(RelIntro("R", 1)), 0)) == \
        "SwapVars(child=AddVar(child=RelIntro(symbol='R', arity=1)), k=0)"


def test_replay_of_the_deep_clique_derivation():
    # K8 with x0 free: a derivation about a thousand rules deep
    sig = Signature({"R": (2, 0)})
    j = parse_ccq(clique(8, False), sig)
    d = derive(j)
    rng = random.Random(8)
    for size, density in [(0, 0.9), (1, 0.9), (2, 0.9), (2, 0.5), (3, 0.3)]:
        model = random_model(sig, size, rng, density=density)
        assert replay_eval(d, model) == eval_ccq(j, model)


def reference_conclusion(d) -> CcqJudgment:
    """The conclusion rule by rule, as each rule renames its premises'."""
    done: list[tuple] = []  # (context, formula) of finished subderivations
    for e in postorder(d):
        if isinstance(e, TopIntro):
            out = (0, Top())
        elif isinstance(e, EqIntro):
            out = (2, Eq(0, 1))
        elif isinstance(e, RelIntro):
            out = (e.arity, RelAtom(e.symbol, tuple(range(e.arity))))
        elif isinstance(e, ConjIntro):
            (nr, fr), (nl, fl) = done.pop(), done.pop()
            total = nl + nr
            out = (total, Conj(rename(fl, nl, total, {}),
                               rename(fr, nr, total, {i: nl + i for i in range(nr)})))
        elif isinstance(e, ExistsIntro):
            n, f = done.pop()
            out = (n - 1, Exists(f))
        elif isinstance(e, SwapVars):
            n, f = done.pop()
            out = (n, rename(f, n, n, {e.k: e.k + 1, e.k + 1: e.k}))
        elif isinstance(e, MergeVars):
            n, f = done.pop()
            out = (n - 1, rename(f, n, n - 1, {n - 1: n - 2}))
        else:
            n, f = done.pop()
            out = (n + 1, rename(f, n, n + 1, {}))
        done.append(out)
    return CcqJudgment(*done.pop())


def random_derivation(rng: random.Random, steps: int, max_ctx: int = 8):
    """``steps`` rules applied at random, each to the previous result (a
    conjunction pairs it with an earlier result or a fresh leaf)."""
    def leaf():
        return rng.choice([TopIntro(), EqIntro(), RelIntro("Z", 0), RelIntro("P", 1),
                           RelIntro("R", 2), RelIntro("T", 3)])

    pool = [leaf()]
    for _ in range(steps):
        d, other = pool[-1], rng.choice(pool + [leaf()])
        rules = ["exists", "add"] if d.context < max_ctx else ["exists"]
        if d.context + other.context <= max_ctx:
            rules += ["conj", "conj"]
        if d.context >= 2:
            rules += ["swap", "swap", "merge"]
        rule = rng.choice(rules)
        if rule == "conj":
            d = ConjIntro(d, other) if rng.random() < 0.5 else ConjIntro(other, d)
        elif rule == "exists":
            d = ExistsIntro(d if d.context else AddVar(d))
        elif rule == "add":
            d = AddVar(d)
        elif rule == "swap":
            d = SwapVars(d, rng.randrange(d.context - 1))
        else:
            d = MergeVars(d)
        pool.append(d)
    return pool[-1]


def test_conclusion_matches_the_rule_by_rule_reference():
    rng = random.Random(4242)
    sig = Signature({"Z": (0, 0), "P": (1, 0), "R": (2, 0), "T": (3, 0)})
    models = model_battery(sig, rng, sizes=(1, 2))
    for trial in range(600):
        d = random_derivation(rng, rng.randint(1, 16))
        j = d.conclusion
        assert j == reference_conclusion(d)
        assert d.context == j.context
        if trial % 10 == 0:
            for model in models:
                assert replay_eval(d, model) == eval_ccq(j, model)
    for j in (random_judgment(rng, SIG, max_ctx=4, max_depth=6) for _ in range(100)):
        assert reference_conclusion(derive(j)) == j


def test_rule_errors_keep_their_messages():
    for build, message in [
        (lambda: ExistsIntro(TopIntro()), "existential closure needs a variable to bind"),
        (lambda: SwapVars(EqIntro(), 1), "swap position 1 out of range for context 2"),
        (lambda: SwapVars(RelIntro("P", 1), 0), "swap position 0 out of range for context 1"),
        (lambda: MergeVars(RelIntro("P", 1)), "merging needs at least two variables"),
    ]:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_replay_and_formulas_refuse_what_is_not_theirs():
    model = RelModel(Signature({"R": (1, 0)}), ["a"])
    with pytest.raises(SignatureError, match=r"^symbol 'R' is not an arity-2 CQ symbol$"):
        replay_eval(RelIntro("R", 2), model)
    with pytest.raises(TypeError, match=r"^not a derivation: Copy\(\)$"):
        replay_eval(Copy(), model)
    for build in (lambda: CcqJudgment(1, Copy()), lambda: format_formula(Copy(), 0, 0)):
        with pytest.raises(TypeError, match=r"^not a formula: Copy\(\)$"):
            build()
