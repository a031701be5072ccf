import dataclasses
import json

import pytest

from muaut import cli
from muaut import fixpoint as fx
from muaut import lts as L
from muaut import mso
from muaut import mucalc as mc
from muaut import onestep as o
from muaut.automata.constructs import _macro_entry
from muaut.onestep.ast import _renamed
from muaut.onestep.models import _min_valuations_range


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(
        {"props": ["p", "q"], "states": 1, "edges": [[0, 0]], "colors": {}, "init": 0}))
    return str(path)


def test_mu_eval(capsys, loop_file):
    code = cli.main(["mu", "eval", "mu x. dia x", "--lts", loop_file])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[0] == "false"


def test_mu_classify(capsys):
    assert cli.main(["mu", "classify", "mu x. box x"]) == 0
    out = capsys.readouterr().out
    assert "alternation-free=True" in out and "continuous=False" in out


def test_onestep_commands(capsys, tmp_path):
    assert cli.main(["onestep", "dual", "Einf x. a(x)"]) == 0
    assert capsys.readouterr().out.strip() == "Ainf x. a(x)"
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"size": 1, "valuation": {"a": [0]}}))
    assert cli.main(["onestep", "eval", "E x. a(x)", "--model", str(model)]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli.main(["onestep", "nf", "E x. a(x) & A y. a(y)"]) == 0
    capsys.readouterr()
    assert cli.main(["onestep", "diamond", "E x. E y. (x!=y & a(x) & a(y))"]) == 0


@pytest.mark.parametrize("text", ["E x. E y. (x!=y & a(x) & !b(y))", "A x. (a(x) | E y. (y!=x & b(y)))",
                                  "W x.(a(x), b(x))", "Ainf x. a(x)"])
def test_onestep_eval_matches_eval_finite(text, capsys, tmp_path):
    f = o.parse(text, "FOE1INF").ast
    model = tmp_path / "m.json"
    for mm in o.all_models(("a", "b"), 3):
        model.write_text(json.dumps({"size": mm.size,
                                     "valuation": {k: sorted(v) for k, v in mm.valuation.items()}}))
        assert cli.main(["onestep", "eval", text, "--model", str(model)]) == 0
        assert capsys.readouterr().out.strip() == str(o.eval_finite(f, mm)).lower(), mm


def test_lts_commands(capsys, loop_file, tmp_path):
    assert cli.main(["lts", "validate", loop_file]) == 0
    assert "not a tree" in capsys.readouterr().out
    assert cli.main(["lts", "bisim", loop_file, loop_file]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"props": ["p"], "states": 1, "edges": [[0, 7]], "colors": {}, "init": 0}))
    assert cli.main(["lts", "validate", str(bad)]) == 1


def test_game_solve(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"owner": ["E"], "moves": [[0]], "priority": [0]}))
    assert cli.main(["game", "solve", str(path)]) == 0
    assert "exists wins: [0]" in capsys.readouterr().out


def test_fuzz_deterministic(capsys, tmp_path):
    rep1 = cli.run_fuzz("dual", 8, 42)
    rep2 = cli.run_fuzz("dual", 8, 42)
    assert rep1.to_json() == rep2.to_json()
    assert rep1.passed == 8


def test_fuzz_zero_instances():
    rep = cli.run_fuzz("adequacy", 0, 1)
    assert rep.ok() and rep.instances == 0


def test_fuzz_unknown_suite():
    assert cli.main(["fuzz", "nonsense"]) == 2


def test_replay_round_trip(tmp_path, capsys):
    rep = cli.run_fuzz("adequacy", 3, 11)
    assert rep.ok()
    payload = {"replay": {"suite": "adequacy", "seed": 11, "index": 2}}
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["replay", str(path)]) == 0


def test_mso_cli(capsys, loop_file, tmp_path):
    assert cli.main(["mso", "eval", "down p", "--logic", "wmso", "--lts", loop_file]) == 0
    capsys.readouterr()
    assert cli.main(["mso", "frommu", "mu x. dia x", "--logic", "wmso"]) == 0
    capsys.readouterr()
    # compiled automata refuse non-tree inputs without --force
    assert cli.main(["mso", "compile", "down p", "--logic", "wmso",
                     "--props", "p,q", "--lts", loop_file]) == 2
    capsys.readouterr()
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(
        {"props": ["p", "q"], "states": 2, "edges": [[0, 1]], "colors": {"0": ["p"]}, "init": 0}))
    assert cli.main(["mso", "compile", "down p", "--logic", "wmso",
                     "--props", "p,q", "--lts", str(tree)]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_mso_eval_stops_at_the_first_witness_set(capsys, tmp_path):
    # 2^40 subsets per quantifier; the empty set, tried first, is a witness
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"props": ["p"], "states": 40, "colors": {}, "init": 0,
                                "edges": [[i, i + 1] for i in range(39)]}))
    assert cli.main(["mso", "eval", "ex q. ex r. (q sub p) | Rel(q,r)", "--logic", "smso",
                     "--lts", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "true"


# a chain and a system with a cycle, both rooted at 0; besides p and q,
# letters named like a fresh set variable or an individual variable of
# `mu_to_mso`, or like words of the two-sorted syntax
LETTERS = ["p", "q", "set2", "sub", "E", "v", "w1"]
SYSTEMS = [
    {"props": LETTERS, "states": 3, "edges": [[0, 1], [1, 2]],
     "colors": {"0": ["q"], "1": ["q", "sub", "E", "v"], "2": ["p", "set2", "w1"]}, "init": 0},
    {"props": LETTERS, "states": 3, "edges": [[0, 1], [0, 2], [1, 0], [2, 2]],
     "colors": {"0": ["q"], "1": ["q", "sub", "E", "v"], "2": ["p", "set2", "w1"]}, "init": 0},
]


@pytest.mark.parametrize("formula,logic,answers", [
    ("mu x. p | dia x", "wmso", ["true", "true"]), ("mu x. p | box x", "nmso", ["true", "false"]),
    ("mu x. <E y. E z. y != z & a1(y) & a2(z)>(x, q) | p", "wmso", ["false", "true"]),
    ("mu x. set2 | dia x", "wmso", ["true", "true"]),
    ("mu x. (sub & E & v) | box x", "nmso", ["true", "false"]),
    ("mu x. w1 | box x", "nmso", ["true", "false"]),
])
def test_frommu_text_evaluates_as_the_formula(formula, logic, answers, capsys, tmp_path):
    assert cli.main(["mso", "frommu", formula, "--logic", logic]) == 0
    text = capsys.readouterr().out.strip()
    for i, system in enumerate(SYSTEMS):
        path = tmp_path / ("s%d.json" % i)
        path.write_text(json.dumps(system))
        assert cli.main(["mu", "eval", formula, "--lts", str(path)]) == 0
        want = capsys.readouterr().out.splitlines()[0]
        assert want == answers[i]
        assert cli.main(["mso", "eval", "--two-sorted", text, "--logic", logic,
                         "--lts", str(path)]) == 0
        assert capsys.readouterr().out.strip() == want


@pytest.mark.parametrize("logic", ["wmso", "nmso"])
def test_frommu_keeps_letters_named_like_argument_atoms(logic, capsys, tmp_path):
    # the letter a2 is the first argument, and the modality's atom a2 stands
    # for the second: translating the atom must leave the letter alone
    formula = "<E y. E z. y != z & a1(y) & a2(z)>(a2, q)"
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"props": ["a2", "q"], "states": 3, "edges": [[0, 1], [0, 2]],
                                "colors": {"1": ["a2"], "2": ["q"]}, "init": 0}))
    assert cli.main(["mu", "eval", formula, "--lts", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "true"
    assert cli.main(["mso", "frommu", formula, "--logic", logic]) == 0
    text = capsys.readouterr().out.strip()
    assert "a2(" in text
    assert cli.main(["mso", "eval", "--two-sorted", text, "--logic", logic,
                     "--lts", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "true"


@pytest.mark.parametrize("letter", ["ex", "R", "Rel", "down"])
def test_frommu_refuses_letters_named_by_keywords(letter, capsys):
    assert cli.main(["mso", "frommu", "mu x. %s | dia x" % letter, "--logic", "wmso"]) == 2
    assert "letter %r" % letter in capsys.readouterr().err


def test_aut_cli(capsys, tmp_path, loop_file):
    assert cli.main(["aut", "fromformula", "mu x. dia x", "--props", "p,q"]) == 0
    aut_json = capsys.readouterr().out
    path = tmp_path / "a.json"
    path.write_text(aut_json)
    assert cli.main(["aut", "accept", "--in", str(path), "--lts", loop_file]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert cli.main(["aut", "classify", "--in", str(path)]) == 0
    assert "weak=True" in capsys.readouterr().out
    # a letter outside --props would read as false at every state
    assert cli.main(["aut", "fromformula", "mu x. p | dia x", "--props", "q"]) == 2
    assert "letters not in the alphabet: ['p']" in capsys.readouterr().err


def test_fix_cli(capsys, loop_file):
    assert cli.main(["fix", "trace", "p | dia r", "--var", "r", "--lts", loop_file]) == 0
    assert "fixpoint:" in capsys.readouterr().out
    assert cli.main(["fix", "unfold", "p | dia r", "--var", "r", "--lts", loop_file]) == 0
    capsys.readouterr()
    assert cli.main(["fix", "witness", "p | dia r", "--var", "r", "--lts", loop_file,
                     "--state", "9"]) == 2
    assert "unknown state 9" in capsys.readouterr().err


@pytest.mark.parametrize("letter", ["true", "false", "mu", "nu", "dia", "box"])
def test_letters_read_as_fixpoint_keywords_are_refused(letter, capsys, tmp_path):
    # over the letter `true`, the automaton's formula printed `~true` and
    # `mu eval` of it read the constant true where `aut accept` read the letter
    aut = tmp_path / "a.json"
    aut.write_text(json.dumps({"dialect": "FO1", "props": [letter], "states": 2, "init": 0,
                               "omega": [1, 0], "delta": {"0,": "E x. q0(x)", "0,%s" % letter: "A x. q1(x)",
                                                          "1,": "false", "1,%s" % letter: "true"}}))
    system = tmp_path / "s.json"
    system.write_text(json.dumps({"props": [letter], "states": 2, "edges": [[0, 1], [1, 1]],
                                  "colors": {"1": [letter]}, "init": 0}))
    for argv in (["aut", "toformula", "--in", str(aut)], ["aut", "accept", "--in", str(aut), "--lts", str(system)],
                 ["mu", "eval", "true", "--lts", str(system)]):
        assert cli.main(argv) == 2
        assert "proposition letter %r is a keyword of the fixpoint grammar" % letter in capsys.readouterr().err


@pytest.mark.parametrize("props", ["", "p,", "p q", "1p", "p-q"])
def test_letters_that_are_not_identifiers_are_refused(props, capsys):
    # with --props "" the colours {} and {""} wrote the same transition key
    assert cli.main(["mso", "compile", "ex r. down r", "--props", props]) == 2
    assert "is not an identifier" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["aut", "fromformula", "mu x. p | dia x"],
                                  ["mso", "compile", "ex r. Rel(r,p) | down r"]])
def test_empty_props_is_read_one_way(argv, capsys):
    # an empty --props names the letter "" in every command; an absent one
    # means the formula's own letters (mso compile defaults to p,q)
    assert cli.main(argv + ["--props", ""]) == 2
    assert "proposition letter '' is not an identifier" in capsys.readouterr().err
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["props"] == (["p"] if argv[0] == "aut" else ["p", "q"])


GUARD_EXAMPLE = "mu x. a | (nu y. x | dia y)"

# every (command, action) of `wb` once, with one token of its known output;
# {name} stands for the path of the file of that name in `_cli_files`
CLI_TABLE = [
    (["lts", "validate", "{chain}"], "2 states reachable; tree"),
    (["lts", "bisim", "{chain}", "{chain}"], "bisimilar; relation size 2"),
    (["onestep", "eval", "E x. a(x)", "--model", "{model}"], "true"),
    (["onestep", "dual", "Einf x. a(x)"], "Ainf x. a(x)"),
    (["onestep", "nf", "E x. a(x) & A y. a(y)"], "(E x. a(x)) & (A z. a(z))"),
    (["onestep", "diamond", "E x. E y. (x!=y & a(x) & a(y))"], "(E x. true) & (E x. a(x)) & (A z. true)"),
    (["game", "solve", "{game}"], "exists wins: [0]"),
    (["mu", "eval", GUARD_EXAMPLE, "--lts", "{chain}"], "true\nholds at: [0, 1]"),
    (["mu", "game", GUARD_EXAMPLE, "--lts", "{chain}"], "exists wins root: true"),
    (["mu", "classify", GUARD_EXAMPLE], "alternation-free=False continuous=False guarded=False"),
    (["mu", "guard", GUARD_EXAMPLE], "mu x1. a | dia (nu x2. x1 | dia x2)"),
    (["aut", "accept", "--in", "{aut}", "--lts", "{ptree}"], "false"),
    (["aut", "complement", "--in", "{aut}"], '"0,": "A x. q0(x)"'),
    (["aut", "classify", "--in", "{aut}"], "weak=True continuous-weak=True"),
    (["aut", "toformula", "--in", "{aut}"], "mu x1. ~p & dia x1 | p & "),
    (["aut", "fromformula", "mu x. p | dia x", "--props", "p"], '"1,": "E x. q2(x)"'),
    (["aut", "simulate", "--in", "{aut}"], '"0,": "(E x1. q0(x1) & W z.(z=x1 | q0(z) | q1(z), q1(z)))'),
    (["aut", "project", "--in", "{aut}", "--letter", "p"], '"props": []'),
    (["aut", "diamond", "--in", "{aut}"], '"dialect": "FO1"'),
    (["mso", "eval", "down p", "--lts", "{chain}"], "false"),
    (["mso", "compile", "down p", "--props", "p"], '"0,p": "A x. q1(x)"'),
    (["mso", "frommu", "mu x. dia x"], "ex set1. "),
    (["fix", "trace", "a | dia r", "--var", "r", "--lts", "{chain}"], "stage 2: [0, 1]"),
    (["fix", "witness", "a | dia r", "--var", "r", "--lts", "{chain}"], "witness: [0, 1]"),
    (["fix", "unfold", "a | dia r", "--var", "r", "--lts", "{chain}"], "game region: [0, 1]"),
    *((["fuzz", suite, "--n", "2"], "%s: 2/2 passed" % suite) for suite in sorted(cli.SUITES)),
    (["replay", "{replay}"], "replay dual#0: 1/1 passed"),
]


def _cli_files(tmp_path) -> dict[str, str]:
    files = {
        # 0 -> 1 with a and p at 1: the guarded transformation's example
        "chain": {"props": ["a", "p"], "states": 2, "edges": [[0, 1]],
                  "colors": {"1": ["a", "p"]}, "init": 0},
        "ptree": {"props": ["p"], "states": 2, "edges": [[0, 1]], "colors": {"1": ["p"]}, "init": 0},
        "model": {"size": 1, "valuation": {"a": [0]}},
        "game": {"owner": ["E"], "moves": [[0]], "priority": [0]},
        "aut": {"delta": {"0,": "E x. q0(x)", "0,p": "E x. E y. x!=y & q0(x) & q0(y)"},
                "dialect": "FOE1INF", "init": 0, "macro": [], "omega": [1], "props": ["p"],
                "states": 1},
        "replay": {"replay": {"suite": "dual", "seed": 7, "index": 0}},
    }
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / (name + ".json"))
        with open(paths[name], "w") as fh:
            json.dump(data, fh)
    return paths


def test_every_command_and_action_runs(capsys, tmp_path):
    paths = _cli_files(tmp_path)
    for argv, token in CLI_TABLE:
        code = cli.main([a.format(**paths) for a in argv])
        out = capsys.readouterr()
        assert code == 0 and token in out.out and not out.err, (argv, code, out)
    # the table names every action (fuzz: every suite) the parser offers
    offered = set()
    for command, sub in cli.build_parser()._subparsers._group_actions[0].choices.items():
        choices = [a.choices for a in sub._actions if a.choices and not a.option_strings]
        offered |= {(command, c) for c in choices[0]} if choices else {(command, None)}
    assert {(argv[0], argv[1] if argv[0] != "replay" else None) for argv, _ in CLI_TABLE} == offered


def test_parse_error_exit_code(capsys, loop_file):
    assert cli.main(["mu", "eval", "mu x. ((", "--lts", loop_file]) == 2


def test_deep_nesting_exits_cleanly(capsys):
    assert cli.main(["mu", "classify", "dia " * 1500 + "p"]) == 2
    assert "error: formula nesting too deep" in capsys.readouterr().err


def test_deepest_parsed_formula_translates(capsys):
    # the translation keeps its work on an explicit stack, so whatever parses answers
    formula = "dia " * 199 + "p"
    assert cli.main(["mso", "frommu", formula]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == mso.pretty(mso.mu_to_mso(mc.parse(formula), "wmso")) and not out.err


def test_overflow_past_the_parser_exits_cleanly(capsys, monkeypatch):
    # a walk that overflows the interpreter's stack after parsing ends in exit 2
    def overflow(f, logic):
        raise RecursionError
    monkeypatch.setattr(mso, "mu_to_mso", overflow)
    assert cli.main(["mso", "frommu", "dia p"]) == 2
    assert capsys.readouterr().err == "error: formula too deep to process\n"


@pytest.mark.parametrize("colors", [{0: ["p"]}, {}])
def test_frommu_of_a_deep_formula_evaluates_as_the_formula(colors, capsys, tmp_path):
    # the printed text nests past MAX_NESTING, so the formula it prints is evaluated
    formula = "dia " * 150 + "p"
    lts = L.make_lts(["p"], 1, [(0, 0)], colors)
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(lts.to_json()))
    assert cli.main(["mu", "eval", formula, "--lts", str(path)]) == 0
    want = capsys.readouterr().out.splitlines()[0]
    assert cli.main(["mso", "frommu", formula, "--logic", "wmso"]) == 0
    g = mso.mu_to_mso(mc.parse(formula), "wmso")
    assert capsys.readouterr().out.strip() == mso.pretty(g)
    assert str(mso.holds_at_init(g, lts)).lower() == want


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_fuzz_instances_repeat_with_warm_caches(suite):
    # the process-wide memos hold entries from the first run on the second
    _macro_entry.cache_clear()
    _min_valuations_range.cache_clear()
    _renamed.cache_clear()
    runs = [[cli.SUITES[suite](cli._instance_rng(7, i)) for i in range(20)] for _ in range(2)]
    assert runs[0] == runs[1]


def test_diamond_suite_catches_a_wrong_translation(monkeypatch):
    # the weighted oracle is asked once per realized type set; a wrong
    # FO1 sentence, here one that forgets the last record, must still
    # disagree with it on some one-step instance
    translate = o.diamond_translate
    monkeypatch.setattr(o, "diamond_translate",
                        lambda bf: translate(dataclasses.replace(bf, disjuncts=bf.disjuncts[:-1])))
    runs = [cli._suite_diamond(cli._instance_rng(seed, 0)) for seed in range(50)]
    assert any(not ok and "dialect" in replay for ok, _, replay in runs)


def test_keyfix_suite_catches_an_invalid_witness(monkeypatch):
    def empty_witness(F, s, noetherian_only=False):
        return frozenset() if s in fx.lfp(F)[0] else None

    monkeypatch.setattr(fx, "brute_force_witness", empty_witness)
    runs = [cli._suite_keyfix(cli._instance_rng(seed, 0)) for seed in range(50)]
    assert any(not ok and detail == "invalid witness" for ok, detail, _ in runs)


def test_raising_fuzz_instance_is_a_replayable_failure(monkeypatch, tmp_path, capsys):
    def suite(rng):
        if rng.random() < 0.5:
            raise RuntimeError("boom")
        return True, "", {}

    monkeypatch.setitem(cli.SUITES, "flaky", suite)
    rep = cli.run_fuzz("flaky", 20, 3)
    assert 0 < rep.passed < 20 and rep.passed + len(rep.failures) == 20
    fail = rep.failures[0]
    assert fail["exception"] == "RuntimeError: boom"
    assert "in suite" in fail["traceback"]
    assert fail["replay"] == {"suite": "flaky", "seed": 3, "index": fail["index"]}
    assert cli.main(["fuzz", "flaky", "--n", "20", "--seed", "3"]) == 1
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(fail))
    assert cli.main(["replay", str(path)]) == 1
    assert "RuntimeError: boom" in capsys.readouterr().out


_LOOP = {"props": ["p", "q"], "states": 1, "edges": [[0, 0]], "colors": {}, "init": 0}
_GAME = {"owner": ["E"], "moves": [[0]], "priority": [0]}
_AUT = {"dialect": "FO1", "props": ["p"], "states": 1, "init": 0, "omega": [0],
        "delta": {"0,": "true", "0,p": "true"}}
_MISTYPED = [
    ("lts", [1]), ("lts", {**_LOOP, "colors": [["p"]]}), ("lts", {**_LOOP, "props": 3}),
    ("lts", {**_LOOP, "edges": [3]}), ("lts", {**_LOOP, "colors": {"0": 3}}),
    ("game", [1]), ("game", {**_GAME, "moves": [3]}), ("game", {**_GAME, "owner": 3}),
    ("aut", [1]), ("aut", {**_AUT, "delta": [["0,", "true"]]}), ("aut", {**_AUT, "props": 3}),
    ("aut", {**_AUT, "delta": {"0,": 3, "0,p": "true"}}),
    ("replay", [1]), ("replay", {"replay": 3}), ("replay", {"suite": ["dual"], "seed": 1, "index": 0}),
    ("replay", {"suite": "dual", "seed": "1", "index": 0}), ("model", []),
    ("model", {"size": -1}), ("model", {"size": 2.5}), ("model", {"size": True}),
    ("model", {"size": "2"}), ("model", {"size": 2, "valuation": {"a": [0.5]}}),
    ("model", {"size": 2, "valuation": {"a": [True]}}), ("model", {"size": 2, "valuation": {"a": [2]}}),
    ("model", {"size": 2, "valuation": {"a": "01"}}), ("aut", {**_AUT, "macro": [5]}),
]


@pytest.mark.parametrize("kind,data", _MISTYPED)
def test_mistyped_json_is_a_clean_error(kind, data, tmp_path, capsys, loop_file):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    if kind == "lts":
        assert cli.main(["lts", "validate", str(path)]) == 1
        assert capsys.readouterr().out.startswith("invalid: ")
        argvs = [["mu", "eval", "p", "--lts", str(path)]]
    elif kind == "game":
        argvs = [["game", "solve", str(path)]]
    elif kind == "aut":
        argvs = [["aut", "classify", "--in", str(path)]]
    elif kind == "replay":
        argvs = [["replay", str(path)]]
    else:
        argvs = [["onestep", "eval", "E x. a(x)", "--model", str(path)]]
    for argv in argvs:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("colors,key", [
    ({"5": ["p"]}, "'5'"), ({"-1": ["p"]}, "'-1'"), ({"0": ["p"], "00": []}, "'00'"),
])
def test_colour_keys_that_name_no_state_or_repeat_one_are_refused(colors, key, tmp_path, capsys, loop_file):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"props": ["p", "q"], "states": 2, "edges": [[0, 1]],
                                "colors": colors, "init": 0}))
    assert cli.main(["lts", "validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid: invalid LTS: colour key ") and key in out
    assert cli.main(["lts", "bisim", str(path), loop_file]) == 2
    assert capsys.readouterr().err.startswith("error: invalid LTS: ")


@pytest.mark.parametrize("delta,message", [
    ({"5,": "true"}, "transition table has 5 entries"),
    ({"0,p,p": "false"}, "delta key '0,p,p' repeats"),
    ({"00,p": "false"}, "delta key '00,p' repeats"),
])
def test_automaton_entries_beyond_the_table_are_refused(delta, message, tmp_path, capsys, loop_file):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**_AUT, "props": ["p", "q"], "delta": {
        "0,": "true", "0,p": "true", "0,q": "true", "0,p,q": "true", **delta}}))
    assert cli.main(["aut", "accept", "--in", str(path), "--lts", loop_file]) == 2
    assert message in capsys.readouterr().err


def test_well_typed_json_still_loads(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_AUT))
    assert cli.main(["aut", "classify", "--in", str(path)]) == 0


@pytest.mark.parametrize("entry,continuous", [
    # a record ending in its infinite part as a separate Ainf conjunct: not
    # in the continuous grammar, though equivalent to the W form below
    ("(E x1. q0(x1) & (A z. z=x1 | q0(z) | q1(z))) & (Einf y. q1(y)) & (Ainf y. q1(y))", False),
    ("E x1. q0(x1) & W z.(z=x1 | q0(z) | q1(z), q1(z)) & (Einf y. q1(y))", True),
])
def test_aut_classify_reads_continuity_off_the_grammar(entry, continuous, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"dialect": "FOE1INF", "props": ["p"], "states": 2, "init": 0,
                                "omega": [1, 0], "delta": {"0,": entry, "0,p": entry,
                                                           "1,": "true", "1,p": "true"}}))
    assert cli.main(["aut", "classify", "--in", str(path)]) == 0
    assert "weak=True continuous-weak=%s" % continuous in capsys.readouterr().out


def test_game_solve_on_a_deep_ladder(tmp_path, capsys):
    n = 3000
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps({
        "owner": ["E" if i % 2 == 0 else "A" for i in range(n)],
        "moves": [[i, i + 1] if i + 1 < n else [i] for i in range(n)],
        "priority": list(range(n))}))
    assert cli.main(["game", "solve", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "exists wins: %s" % list(range(0, n, 2))
    assert out[1] == "forall wins: %s" % list(range(1, n, 2))


@pytest.mark.parametrize("kind,data", [
    ("game", {**_GAME, "owner": ["X"]}), ("game", {**_GAME, "owner": [2]}),
    ("game", {**_GAME, "owner": [None]}), ("game", {**_GAME, "owner": "EA"}),
    ("game", {**_GAME, "moves": ["0"]}), ("game", {**_GAME, "priority": "0"}),
    ("lts", {**_LOOP, "props": "pq"}), ("lts", {**_LOOP, "colors": {"0": "pq"}}),
    ("lts", {**_LOOP, "edges": ["00"]}), ("aut", {**_AUT, "props": "p"}),
    ("aut", {**_AUT, "omega": "0"}), ("aut", {**_AUT, "macro": "0"}),
])
def test_strings_and_unknown_tags_are_malformed_json(kind, data, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    if kind == "game":
        assert cli.main(["game", "solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed game JSON: ")
    elif kind == "aut":
        assert cli.main(["aut", "classify", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed automaton JSON: ")
    else:
        assert cli.main(["lts", "validate", str(path)]) == 1
        assert capsys.readouterr().out.startswith("invalid: malformed LTS JSON: ")
        assert cli.main(["mu", "eval", "p", "--lts", str(path)]) == 2


@pytest.mark.parametrize("tags", [["E", "A"], ["exists", "forall"], [0, 1]])
def test_game_owner_tags(tags, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"owner": tags, "moves": [[1], [0]], "priority": [1, 0]}))
    assert cli.main(["game", "solve", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["exists wins: []", "forall wins: [0, 1]"]


@pytest.mark.parametrize("formula", ["down p", "p sub q", "ex x. (p(x) | down q)"])
def test_two_sorted_eval_rejects_one_sorted_atoms(formula, capsys, loop_file):
    assert cli.main(["mso", "eval", "--two-sorted", formula, "--lts", loop_file]) == 2
    assert "one-sorted atom" in capsys.readouterr().err


@pytest.mark.parametrize("formula", ["p(x)", "R(v,x)", "x=v"])
def test_two_sorted_eval_names_an_unassigned_variable(formula, capsys, loop_file):
    assert cli.main(["mso", "eval", "--two-sorted", formula, "--lts", loop_file]) == 2
    assert capsys.readouterr().err.strip() == "error: unassigned variable 'x'"


@pytest.mark.parametrize("argv,missing", [
    (["lts", "bisim", "a.json"], "other"),
    (["onestep", "eval", "E x. a(x)"], "--model"),
    (["mu", "eval", "p"], "--lts"),
    (["mu", "game", "p"], "--lts"),
    (["aut", "fromformula"], "formula"),
    (["aut", "accept", "--lts", "l.json"], "--in"),
    (["aut", "accept", "--in", "a.json"], "--lts"),
    (["aut", "project", "--letter", "p"], "--in"),
    (["aut", "project", "--in", "a.json"], "--letter"),
    (["aut", "complement"], "--in"),
    (["aut", "classify"], "--in"),
    (["aut", "toformula"], "--in"),
    (["aut", "simulate"], "--in"),
    (["aut", "diamond"], "--in"),
    (["mso", "eval", "down p"], "--lts"),
])
def test_missing_companion_argument_exits_2(argv, missing, capsys):
    assert cli.main(argv) == 2
    assert "error: %s %s needs %s" % (argv[0], argv[1], missing) in capsys.readouterr().err



@pytest.mark.parametrize("argv,code", [
    (["lts", "validate", "F", "--force"], 2),
    (["game", "solve", "F", "--json", "out"], 2),
    (["mu", "classify", "X", "--seed", "3"], 2),
    (["fuzz", "dual", "--n", "5", "--seed", "7", "--json", "out"], 0),
])
def test_options_exist_only_where_they_are_read(argv, code, capsys, tmp_path, monkeypatch):
    # --seed belongs to fuzz and aut, --json to fuzz and replay, --force to mso
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    if code:
        assert "unrecognized arguments: %s" % argv[3] in capsys.readouterr().err
    else:
        assert json.loads((tmp_path / "out").read_text())["passed"] == 5


@pytest.mark.parametrize("argv", [["fuzz", "dual", "--n", "-3"],
                                  ["aut", "simulate", "--in", "A", "--check-equiv", "--trees", "-2"]])
def test_negative_counts_are_refused(argv, capsys, tmp_path, monkeypatch):
    # they printed "0/-3 passed" and "-2/-2 trees agree" and exited 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A").write_text(json.dumps({"props": ["p"], "states": 1, "init": 0, "omega": [0],
                                             "dialect": "FO1", "delta": {"0,": "E x. q0(x)",
                                                                         "0,p": "E x. q0(x)"}}))
    assert cli.main(argv) == 2
    assert "argument %s: must not be negative" % argv[-2] in capsys.readouterr().err


def _answers(formula, tmp_path, capsys):
    """What `wb mu eval`, `wb mu game`, `wb mu classify` and the two-sorted
    evaluation of `wb mso frommu` say of a formula, on three systems."""
    out = []
    assert cli.main(["mu", "classify", formula]) == 0
    out.append(capsys.readouterr().out)
    texts = {}
    for logic in ("wmso", "nmso"):
        assert cli.main(["mso", "frommu", formula, "--logic", logic]) == 0
        texts[logic] = capsys.readouterr().out.strip()
    for i, edges in enumerate(([[0, 1]], [], [[0, 1], [1, 1]])):
        path = tmp_path / ("s%d.json" % i)
        path.write_text(json.dumps({"props": ["p"], "states": 2, "edges": edges, "colors": {},
                                    "init": 0}))
        assert cli.main(["mu", "eval", formula, "--lts", str(path)]) == 0
        out.append(capsys.readouterr().out)
        assert cli.main(["mu", "game", formula, "--lts", str(path)]) == 0
        out.append(capsys.readouterr().out.split(": ")[-1])  # the count of positions differs
        for logic, text in texts.items():
            assert cli.main(["mso", "eval", "--two-sorted", text, "--logic", logic,
                             "--lts", str(path)]) == 0
            out.append(capsys.readouterr().out)
    return out


def test_a_binder_shared_by_two_places_answers_as_its_renamed_apart_text(capsys, tmp_path):
    # both occurrences of `mu x. dia x` are one binder node, so x names one binder
    shared = _answers("(mu x. dia x) | box (mu x. dia x)", tmp_path, capsys)
    assert shared == _answers("(mu x. dia x) | box (mu y. dia y)", tmp_path, capsys)
    assert [line.split()[0] for line in shared[1:]] == (
        ["false"] * 4 + ["true"] * 4 + ["false"] * 4)
    # two distinct binders of one letter are still refused
    assert cli.main(["mu", "eval", "mu x. nu x. dia x", "--lts", str(tmp_path / "s0.json")]) == 2
    assert "bound letters not pairwise distinct" in capsys.readouterr().err
