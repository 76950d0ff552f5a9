import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cqgraph
from conftest import INT_DIGITS, clique, inclusion_steps
from cqgraph.axioms import AxiomReport
from cqgraph.ccq import parse_ccq
from cqgraph.cli import main
from cqgraph.containment import decide_equivalence, decide_inclusion
from cqgraph.cospan import cospan_to_dot, term_to_cospan
from cqgraph.gcq import parse_gcq, print_gcq
from cqgraph.hypergraph import find_morphisms, join_plan
from cqgraph.sigmodel import RelModel, Signature, load_model
from cqgraph.translate import lambda_term, theta

SIG_CCQ = '{"R": [2, 0]}'
SIG_DIAG = '{"R": [1, 1], "S": [2, 1], "P": [2, 0], "D": [1, 0]}'
PHI = "2 |- exists z0. (x0 = x1) /\\ R(x0, z0)"
PSI = ("2 |- exists z0. exists z1. "
       "R(x0,z0) /\\ R(x1,z0) /\\ R(x0,z1) /\\ R(x1,z1)")


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sig.json").write_text(SIG_CCQ)
    (tmp_path / "diag.json").write_text(SIG_DIAG)
    (tmp_path / "phi.ccq").write_text(f"signature: sig.json\n{PHI}\n")
    (tmp_path / "psi.ccq").write_text(f"signature: sig.json\n{PSI}\n")
    (tmp_path / "bone.gcq").write_text("signature: diag.json\nspawn ; discard\n")
    (tmp_path / "unit.gcq").write_text("signature: diag.json\nid0\n")
    (tmp_path / "model.json").write_text(
        '{"carrier": ["a", "b"], "relations": {"R": [[["a","a"],[]]]}}')
    (tmp_path / "empty.json").write_text('{"carrier": [], "relations": {}}')
    (tmp_path / "broken.gcq").write_text("signature: diag.json\nmerge ; merge\n")
    return tmp_path


def test_check_inclusion_holds(workdir, capsys):
    code = main(["check", str(workdir / "phi.ccq"), str(workdir / "psi.ccq"),
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["holds"] and "witness" in out


def test_check_inclusion_fails_with_countermodel(workdir, capsys):
    code = main(["check", str(workdir / "psi.ccq"), str(workdir / "phi.ccq"),
                 "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not out["holds"]
    assert len(out["countermodel"]["carrier"]) == 4


def test_check_equivalence_mode(workdir, capsys):
    code = main(["check", str(workdir / "bone.gcq"), str(workdir / "unit.gcq"),
                 "--mode", "equivalence", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["forward"]["holds"] and not out["backward"]["holds"]


def test_check_equivalence_text_shows_each_direction(workdir, capsys):
    # bone <= unit holds by the empty map; unit <= bone fails, as bone's
    # vertex has nowhere to go in the empty apex
    code = main(["check", str(workdir / "bone.gcq"), str(workdir / "unit.gcq"),
                 "--mode", "equivalence", "--format", "text"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAILS: lhs equivalent to rhs",
        'forward witness: {"vmap": [], "emaps": {}}',
        'backward countermodel: {"carrier": [], "relations": {}}',
    ]


def test_check_malformed_input_exits_2(workdir, capsys):
    code = main(["check", str(workdir / "broken.gcq"), str(workdir / "unit.gcq")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err


def test_input_the_loaders_refuse_exits_2_without_internal_error(workdir, capsys):
    (workdir / "big.ccq").write_text(f"signature: sig.json\n1 |- x{'9' * 5000} = x0\n")
    (workdir / "spaced.json").write_text('{"a b": [1, 0]}')
    (workdir / "spaced.ccq").write_text("signature: spaced.json\n1 |- top\n")
    (workdir / "huge.json").write_text(f'{{"R": [2, {"9" * 5000}]}}')
    (workdir / "huge.ccq").write_text("signature: huge.json\n1 |- top\n")
    phi = str(workdir / "phi.ccq")
    for name, err in [("big.ccq", "error: a number of 5000 digits is too long\n"),
                      ("spaced.ccq", "error: symbol 'a b' is not an identifier\n"),
                      ("huge.ccq", "error: malformed signature JSON: ")]:
        if name != "spaced.ccq" and not 0 < INT_DIGITS < 5000:
            continue  # int() converts 5,000 digits here
        assert main(["check", str(workdir / name), phi]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(err), name
        assert "internal error" not in captured.err


def test_internal_error_exits_2(workdir, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("cqgraph.cli.decide_inclusion", crash)
    code = main(["check", str(workdir / "phi.ccq"), str(workdir / "psi.ccq")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err and "RecursionError" in captured.err


def test_eval_judgment(workdir, capsys):
    code = main(["eval", str(workdir / "phi.ccq"), str(workdir / "model.json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == [["a", "a"]]


def test_eval_bone_over_empty_model(workdir, capsys):
    code = main(["eval", str(workdir / "bone.gcq"), str(workdir / "empty.json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_eval_text_format(workdir, capsys):
    code = main(["eval", str(workdir / "phi.ccq"), str(workdir / "model.json"),
                 "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == "a, a\n"
    (workdir / "box.gcq").write_text("signature: sig.json\nR\n")
    code = main(["eval", str(workdir / "box.gcq"), str(workdir / "model.json"),
                 "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == "(a, a) -> ()\n"


def test_eval_box_is_verbatim(workdir, capsys):
    (workdir / "box.gcq").write_text("signature: sig.json\nR\n")
    code = main(["eval", str(workdir / "box.gcq"), str(workdir / "model.json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == [[["a", "a"], []]]


def test_eval_long_chain(workdir, capsys):
    (workdir / "r.json").write_text('{"R": [1, 1]}')
    (workdir / "chain.gcq").write_text("signature: r.json\n" + " ; ".join(["R"] * 2000) + "\n")
    (workdir / "cycle.json").write_text(
        '{"carrier": ["a", "b", "c"], '
        '"relations": {"R": [[["a"],["b"]], [["b"],["c"]], [["c"],["a"]]]}}')
    code = main(["eval", str(workdir / "chain.gcq"), str(workdir / "cycle.json")])
    assert code == 0
    # 2000 steps around a 3-cycle advance by 2000 mod 3 = 2
    assert json.loads(capsys.readouterr().out) == \
        [[["a"], ["c"]], [["b"], ["a"]], [["c"], ["b"]]]


def test_translate_ccq_to_diagram(workdir, capsys):
    (workdir / "top.ccq").write_text("signature: sig.json\n0 |- top\n")
    code = main(["translate", str(workdir / "top.ccq"), "--verify"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "id0"


def test_translate_diagram_to_ccq(workdir, capsys):
    (workdir / "copy.gcq").write_text("signature: diag.json\ncopy\n")
    code = main(["translate", str(workdir / "copy.gcq"), "--verify"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1,2 |- (x0 = y0) /\\ (x0 = y1)"


def test_translate_round_trip_keeps_a_box_and_refuses_a_constant_name(workdir, capsys):
    # a box named like a wiring constant would print as that constant and
    # parse back as it, so its signature is refused; a nearby name round-trips
    (workdir / "near.json").write_text('{"copy_": [1, 0]}')
    (workdir / "near.ccq").write_text("signature: near.json\n1 |- copy_(x0)\n")
    assert main(["translate", str(workdir / "near.ccq"), "--verify"]) == 0
    printed = capsys.readouterr().out.strip()
    sig = Signature({"copy_": (1, 0)})
    assert parse_gcq(printed, sig) == theta(parse_ccq("1 |- copy_(x0)", sig))
    (workdir / "clash.json").write_text('{"copy": [1, 0]}')
    (workdir / "clash.ccq").write_text("signature: clash.json\n1 |- copy(x0)\n")
    assert main(["translate", str(workdir / "clash.ccq")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symbol 'copy' is the name of a wiring constant\n"


def test_translate_reads_back_a_box_named_top(workdir, capsys):
    # "top" is the constant only where no argument list follows it
    (workdir / "top.json").write_text('{"top": [1, 0]}')
    (workdir / "top.gcq").write_text("signature: top.json\ntop\n")
    assert main(["translate", str(workdir / "top.gcq"), "--verify"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "1,0 |- top(x0)"
    (workdir / "back.ccq").write_text(f"signature: top.json\n{printed} /\\ top\n")
    assert main(["translate", str(workdir / "back.ccq"), "--verify"]) == 0
    assert capsys.readouterr().out.strip() == "top"


def test_translate_reads_a_box_named_exists(workdir, capsys):
    # "exists" is the quantifier only where no argument list follows it
    (workdir / "ex.json").write_text('{"exists": [1, 0]}')
    (workdir / "ex.ccq").write_text("signature: ex.json\n1 |- exists(x0) /\\ exists z. exists(z)\n")
    assert main(["translate", str(workdir / "ex.ccq"), "--verify"]) == 0
    assert capsys.readouterr().out.strip() == "exists (+) (spawn ; exists)"
    (workdir / "spaced.ccq").write_text("signature: ex.json\n1 |- exists (x0)\n")
    assert main(["translate", str(workdir / "spaced.ccq")]) == 0  # spacing does not matter
    assert capsys.readouterr().out.strip() == "exists"


def test_translate_verify_on_intro(workdir, capsys):
    code = main(["translate", str(workdir / "psi.ccq"), "--verify", "--trials", "12"])
    assert code == 0
    capsys.readouterr()


def test_translate_deep_clique(workdir, capsys):
    # K8 with x0 free: 56 atoms, a term nested about a thousand levels deep
    (workdir / "k8.ccq").write_text(f"signature: sig.json\n{clique(8, False)}\n")
    code = main(["translate", str(workdir / "k8.ccq")])
    out = capsys.readouterr().out
    assert code == 0
    assert len(re.findall(r"\bR\b", out)) == 56


def test_check_deeply_nested_quantifiers(workdir, capsys):
    body = "0 |- " + "".join(f"exists z{i}. " for i in range(600)) + "top"
    (workdir / "deep.ccq").write_text(f"signature: sig.json\n{body}\n")
    code = main(["check", str(workdir / "deep.ccq"), str(workdir / "deep.ccq")])
    capsys.readouterr()
    assert code == 0


def test_translate_long_chain(workdir, capsys):
    (workdir / "chain.gcq").write_text("signature: diag.json\n" + " ; ".join(["R"] * 600))
    code = main(["translate", str(workdir / "chain.gcq")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("1,1 |- exists z0. ") and out.count("R(") == 600


def test_export_dot_counts(workdir, capsys):
    code = main(["export-dot", str(workdir / "psi.ccq")])
    assert code == 0
    dot = capsys.readouterr().out
    assert dot.count("shape=point") == 4
    assert dot.count('label="R"') == 4
    assert dot.count("style=dotted") == 2


def test_export_dot_unit(workdir, capsys):
    code = main(["export-dot", str(workdir / "unit.gcq")])
    assert code == 0
    dot = capsys.readouterr().out
    assert "shape=point" not in dot and "style=dotted" not in dot


def test_sig_flag_wins_over_header(workdir, capsys):
    # header names a signature without S; the flag supplies one with it
    (workdir / "s.gcq").write_text("signature: sig.json\nS\n")
    assert main(["eval", str(workdir / "s.gcq"), str(workdir / "model.json")]) == 2
    capsys.readouterr()
    (workdir / "s.json").write_text('{"carrier": ["a"], "relations": {"S": [[["a", "a"], ["a"]]]}}')
    assert main(["eval", str(workdir / "s.gcq"), str(workdir / "s.json"),
                 "--sig", str(workdir / "diag.json")]) == 0
    assert capsys.readouterr().out == '[[["a", "a"], ["a"]]]\n'


def test_export_dot_writes_the_file_with_a_final_newline(workdir, capsys):
    out = workdir / "g.dot"
    assert main(["export-dot", str(workdir / "psi.ccq"), "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["export-dot", str(workdir / "psi.ccq")]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith("digraph G {\n")


@pytest.mark.parametrize("argv, flag", [
    (["check", "phi.ccq", "psi.ccq", "--budget", "0"], "--budget"),
    (["translate", "phi.ccq", "--verify", "--trials", "0"], "--trials"),
    (["axioms-verify", "--trials", "-1"], "--trials"),
    (["axioms-verify", "--max-carrier", "0"], "--max-carrier"),
])
def test_counts_that_are_not_positive_exit_2(workdir, capsys, argv, flag):
    argv = [str(workdir / a) if a.endswith(".ccq") else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} must be positive\n"


def test_axioms_verify_reports_each_kind_of_failure(capsys, monkeypatch):
    # the semantic check fails first with a countermodel, then the graphical
    # check fails alone, then both pass
    model = RelModel(Signature({"R": (1, 1)}), ["a"], {"R": [((0,), (0,))]})
    semantic = iter([AxiomReport("x", False, "left not included in right", model),
                     AxiomReport("x", True)] + [AxiomReport("x", True)] * 100)
    graphical = iter([AxiomReport("x", True), AxiomReport("x", False)]
                     + [AxiomReport("x", True)] * 100)
    monkeypatch.setattr("cqgraph.cli.verify_axiom_semantic", lambda *a, **k: next(semantic))
    monkeypatch.setattr("cqgraph.cli.verify_axiom_graphical", lambda entry: next(graphical))
    assert main(["axioms-verify"]) == 1
    first, second, *rest = capsys.readouterr().out.splitlines()
    assert first.endswith(': FAIL countermodel {"carrier": ["a"], "relations": {"R": [[["a"], ["a"]]]}}')
    assert second.endswith(": FAIL (graphical check failed)")
    assert rest and all(line.endswith(": PASS") for line in rest)


def test_check_prints_a_countermodel_in_text_and_json(workdir, capsys):
    model = ('{"carrier": ["v0", "v1", "v2", "v3"], "relations": {"R": [[["v0", "v2"], []], '
             '[["v0", "v3"], []], [["v1", "v2"], []], [["v1", "v3"], []]]}}')
    lhs, rhs = str(workdir / "psi.ccq"), str(workdir / "phi.ccq")
    assert main(["check", lhs, rhs]) == 1
    assert capsys.readouterr().out == f"FAILS: lhs included in rhs\ncountermodel: {model}\n"
    assert main(["check", lhs, rhs, "--format", "json"]) == 1
    assert capsys.readouterr().out == f'{{"holds": false, "countermodel": {model}}}\n'


def test_missing_signature_is_an_error(workdir, capsys):
    (workdir / "naked.gcq").write_text("id0\n")
    code = main(["check", str(workdir / "naked.gcq"), str(workdir / "naked.gcq")])
    assert code == 2
    capsys.readouterr()


def test_axioms_verify_all_pass(workdir, capsys):
    code = main(["axioms-verify", "--sig", str(workdir / "diag.json"),
                 "--trials", "25"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 8 + 8 + 4 + 2 * 4
    assert all(line.endswith("PASS") for line in lines)


def test_budget_flag_reaches_search(workdir, capsys):
    # K4 <= K5 does not hold, and the search needs 3 steps to say so
    sig = Signature({"R": (2, 0)})
    k4, k5 = (theta(parse_ccq(clique(n, False), sig)) for n in (4, 5))
    assert inclusion_steps(k4, k5) == 3
    (workdir / "k4.ccq").write_text(f"signature: sig.json\n{clique(4, False)}\n")
    (workdir / "k5.ccq").write_text(f"signature: sig.json\n{clique(5, False)}\n")
    code = main(["check", str(workdir / "k4.ccq"), str(workdir / "k5.ccq"),
                 "--budget", "2"])
    assert code == 2
    capsys.readouterr()


def test_translate_verify_with_symbols_of_positive_coarity(tmp_path, capsys):
    # a formula uses only the coarity-0 symbols; S, unused, changes nothing
    (tmp_path / "mixed.json").write_text('{"R": [2, 0], "S": [1, 1]}')
    (tmp_path / "q.ccq").write_text("signature: mixed.json\n2 |- R(x0, x1)\n")
    code = main(["translate", str(tmp_path / "q.ccq"), "--verify"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "R\n"


def test_translate_verify_of_wide_inputs_fits_in_1_5_gb(tmp_path):
    """A 40-variable context, a 30-ary atom, and a narrow formula whose
    signature file also declares an unused 30-ary symbol: ``--verify``
    decides on cospans as small as the input, in a child process whose
    address space is capped at 1.5 GB."""
    pytest.importorskip("resource")
    (tmp_path / "a.json").write_text('{"A": [30, 0]}')
    (tmp_path / "w.json").write_text('{"E": [2, 0], "W": [30, 0]}')
    args = ", ".join(f"x{i}" for i in range(30))
    queries = {"top.ccq": ("a.json", "40 |- top"), "atom.ccq": ("a.json", f"30 |- A({args})"),
               "unused.ccq": ("w.json", "2 |- E(x0, x1)")}
    cap = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2); "
           "from cqgraph.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(cqgraph.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, (sig, body) in queries.items():
        (tmp_path / name).write_text(f"signature: {sig}\n{body}\n")
        run = subprocess.run([sys.executable, "-c", cap, "translate", str(tmp_path / name),
                              "--verify"], env=env, capture_output=True, text=True, timeout=20)
        assert (run.returncode, run.stderr) == (0, ""), name


@pytest.mark.parametrize("formula, translated, code", [
    ("2 |- R(x0, x1)", "2 |- R(x0, x1)", 0),
    # another term with the same relation: verify compares meanings
    ("2 |- R(x0, x1)", "2 |- R(x0, x1) /\\ R(x0, x1)", 0),
    # wrong translations, one too strong and one too weak
    ("2 |- R(x0, x1)", "2 |- R(x0, x1) /\\ R(x1, x0)", 1),
    ("2 |- R(x0, x1) /\\ R(x1, x0)", "2 |- R(x0, x1)", 1),
])
def test_translate_verify_checks_the_theta_translation(workdir, capsys, monkeypatch,
                                                        formula, translated, code):
    sig = Signature({"R": (2, 0)})
    term = theta(parse_ccq(translated, sig))
    monkeypatch.setattr("cqgraph.cli.theta", lambda phi: term)
    (workdir / "r.ccq").write_text(f"signature: sig.json\n{formula}\n")
    assert main(["translate", str(workdir / "r.ccq"), "--verify"]) == code
    captured = capsys.readouterr()
    assert captured.out == print_gcq(term) + "\n"
    assert captured.err == ("verification failed\n" if code else "")


@pytest.mark.parametrize("body, printed", [
    (PSI, print_gcq(theta(parse_ccq(PSI, Signature({"R": (2, 0)}))))),
    ("copy ; (R (+) R) ; merge",
     "1,1 |- exists z0. exists z1. (exists z2. exists z3. ((x0 = z2) /\\ "
     "(x0 = z3)) /\\ (R(z2, z0) /\\ R(z3, z1))) /\\ ((z0 = y0) /\\ (z1 = y0))"),
    ("spawn ; copy ; (discard (+) id) ; discard",
     "0,0 |- exists z0. (exists z1. exists z2. (exists z3. top /\\ ((z3 = z1) /\\ "
     "(z3 = z2))) /\\ (top /\\ (z2 = z0))) /\\ top"),
    # vertices no edge constrains: the free variables of top, and the bone
    ("0 |- top", "id0"),
    ("1 |- exists z0. top", "discard ; (spawn ; discard)"),
    ("2 |- x0 = x1", "merge ; discard"),
    ("spawn ; discard", "0,0 |- exists z0. top /\\ top"),
])
def test_translate_verify_decides_once_and_evaluates_nothing(workdir, capsys, monkeypatch,
                                                             body, printed):
    """``--verify`` is one call of the decider, whatever ``--trials`` says:
    no model is drawn and nothing is evaluated.  Plain ``translate`` runs
    no search, and the output is the same either way."""
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated a query or drew a model")

    for name in ("cli.random_model", "cli.join_plan", "cli.eval_gcq", "gcq.eval_gcq",
                 "containment.eval_gcq", "cli.eval_ccq", "ccq.eval_ccq"):
        monkeypatch.setattr(f"cqgraph.{name}", refuse)
    searches, decide, search = [], decide_equivalence, find_morphisms
    monkeypatch.setattr("cqgraph.cli.decide_equivalence",
                        lambda c, d: searches.append("decide") or decide(c, d))
    monkeypatch.setattr("cqgraph.containment.find_morphisms",
                        lambda *a, **k: searches.append("search") or search(*a, **k))
    sig = "sig.json" if "|-" in body else "r.json"
    (workdir / "r.json").write_text('{"R": [1, 1]}')
    (workdir / "q.txt").write_text(f"signature: {sig}\n{body}\n")
    path = str(workdir / "q.txt")
    assert main(["translate", path]) == 0
    assert searches == []
    assert capsys.readouterr() == (printed + "\n", "")
    for trials in ("1", "50"):
        searches.clear()
        assert main(["translate", path, "--verify", "--trials", trials, "--seed", trials]) == 0
        assert searches == ["decide", "search", "search"]
        assert capsys.readouterr() == (printed + "\n", "")


@pytest.mark.parametrize("translated, code", [
    ("R", 0),  # another term with the same relation: verify compares meanings
    ("R ; R", 1),  # a wrong translation
])
def test_translate_verify_checks_the_lambda_translation(workdir, capsys, monkeypatch,
                                                         translated, code):
    sig = Signature({"R": (1, 1)})
    tsj = lambda_term(parse_gcq(translated, sig))
    monkeypatch.setattr("cqgraph.cli.lambda_term", lambda t: tsj)
    (workdir / "r.json").write_text('{"R": [1, 1]}')
    (workdir / "loop.gcq").write_text("signature: r.json\ncopy ; (R (+) R) ; merge\n")
    assert main(["translate", str(workdir / "loop.gcq"), "--verify"]) == code
    captured = capsys.readouterr()
    assert captured.out == f"{tsj}\n"
    assert captured.err == ("verification failed\n" if code else "")


def path_formula(atoms: int) -> str:
    """x0 R z0 R ... R x1 with every inner vertex bound."""
    names = ["x0"] + [f"z{i}" for i in range(atoms - 1)] + ["x1"]
    prefix = "".join(f"exists {v}. " for v in names[1:-1])
    return "2 |- " + prefix + " /\\ ".join(f"R({a}, {b})" for a, b in zip(names, names[1:]))


def test_formula_check_and_export_dot_build_no_derivation(workdir, capsys, monkeypatch):
    def refuse(j):
        raise AssertionError("a derivation was built")

    monkeypatch.setattr("cqgraph.translate.derive", refuse)
    (workdir / "p200.ccq").write_text(f"signature: sig.json\n{path_formula(200)}\n")
    phi, psi, p200 = (str(workdir / name) for name in ("phi.ccq", "psi.ccq", "p200.ccq"))
    for mode in ("inclusion", "equivalence"):
        assert main(["check", p200, p200, "--mode", mode]) == 0
        assert main(["check", psi, phi, "--mode", mode, "--format", "json"]) == 1
    assert main(["check", phi, psi]) == 0
    assert main(["export-dot", p200]) == 0
    assert main(["export-dot", phi]) == 0
    out = capsys.readouterr().out
    assert out.count("HOLDS") == 3 and out.count("digraph") == 2


def test_printed_terms_check_export_and_eval_like_the_library(tmp_path, capsys):
    """check, export-dot and eval compile a printed term straight from its
    tokens; they print what the library makes of its parsed tree."""
    sig = Signature({"R": (2, 0)})
    model_text = ('{"carrier": ["a", "b", "c"], "relations": {"R": '
                  '[[["a","b"],[]], [["b","c"],[]], [["c","a"],[]], [["a","a"],[]]]}}')
    (tmp_path / "sig.json").write_text(SIG_CCQ)
    (tmp_path / "m.json").write_text(model_text)
    model = load_model(model_text, sig)
    queries = {"phi": PHI, "psi": PSI, "k3": clique(3, False), "k4": clique(4, True),
               "path": path_formula(6)}
    files, cospans = {}, {}
    for name, formula in queries.items():
        text = print_gcq(theta(parse_ccq(formula, sig)))
        files[name] = tmp_path / f"{name}.gcq"
        files[name].write_text(f"signature: sig.json\n{text}\n")
        cospans[name] = term_to_cospan(parse_gcq(text, sig))

    def run(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out

    for a, b in (("phi", "psi"), ("psi", "phi"), ("k3", "k4"), ("k4", "k3"), ("phi", "phi")):
        inc = decide_inclusion(cospans[a], cospans[b])
        assert run("check", files[a], files[b], "--format", "json") == \
            (1 - inc.holds, json.dumps(inc.to_json_dict()) + "\n")
        eqv = decide_equivalence(cospans[a], cospans[b])
        doc = {"holds": eqv.holds, "forward": eqv.forward.to_json_dict(),
               "backward": eqv.backward.to_json_dict()}
        assert run("check", files[a], files[b], "--mode", "equivalence", "--format", "json") == \
            (1 - eqv.holds, json.dumps(doc) + "\n")
    names = model.carrier
    for name, c in cospans.items():
        assert run("export-dot", files[name]) == (0, cospan_to_dot(c) + "\n")
        rows = sorted(join_plan(c.apex, c.iota + c.omega)(model))
        doc = [[[names[x] for x in row[:c.n]], [names[x] for x in row[c.n:]]] for row in rows]
        assert run("eval", files[name], tmp_path / "m.json") == (0, json.dumps(doc) + "\n")


def test_check_reports_a_width_mismatch_like_the_term_constructor(workdir, capsys):
    assert main(["check", str(workdir / "broken.gcq"), str(workdir / "unit.gcq")]) == 2
    assert capsys.readouterr().err == \
        "error: cannot compose Sort(n=2, m=1) ; Sort(n=2, m=1): 1 != 2\n"


def test_budget_help_says_what_a_step_is(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "a step is one vertex image that passes every edge checkable at its vertex, " \
           "or one edge map emitted" in help_text


def test_check_and_translate_print_the_same_under_any_hash_seed(tmp_path):
    # K5 with F-edges the K4 side lacks: the search's swap classes are built
    # over R alone, and the witness and the translation stay byte-identical
    (tmp_path / "sig.json").write_text('{"R": [2, 0], "F": [2, 0]}')
    (tmp_path / "k5.ccq").write_text(
        f"signature: sig.json\n{clique(5, False)} /\\ F(z1, z2) /\\ F(z2, z3)\n")
    (tmp_path / "k4.ccq").write_text(f"signature: sig.json\n{clique(4, True)}\n")
    k5, k4 = str(tmp_path / "k5.ccq"), str(tmp_path / "k4.ccq")
    src = str(Path(cqgraph.__file__).parents[1])
    outputs = {}
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs[seed] = [subprocess.run([sys.executable, "-m", "cqgraph.cli", *argv], env=env,
                                        capture_output=True, check=True).stdout
                         for argv in (["check", k5, k4, "--format", "json"], ["translate", k5])]
    assert outputs["0"] == outputs["1"]
    verdict = json.loads(outputs["0"][0])
    assert verdict["holds"] and verdict["witness"]["vmap"] == [0, 1, 2, 3]
