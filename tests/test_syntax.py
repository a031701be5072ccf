"""The shared node layer and parser core: corpus digest, names, columns,
nesting limit and interning."""
import copy
import dataclasses
import functools
import gc
import hashlib
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import typing
import weakref

import pytest

from muaut import cli
from muaut import gen
from muaut import mso
from muaut import mucalc as mc
from muaut import onestep as o
from muaut import syntax
from muaut.syntax import MAX_NESTING, Node, ParseError

# sha256 of `_corpus_lines()`, recorded with the hand-written parsers the
# shared core replaced; the ASTs (and so their reprs) must not change.
# Re-recorded once, when two-sorted text began to read back as the formula
# it prints: only the 375 `mso2` lines of `mu_to_mso` outputs that had not
# read back changed.  Re-recorded again when `mu_to_mso` began to reuse
# individual variables level by level: only 253 `mso2` lines of its
# outputs changed (130 wmso, 123 nmso).  Re-recorded when one `onestep_dagger`
# call began to bind one `fin` set name for all its infinity quantifiers:
# only 1 wmso `mso2` line changed.  Re-recorded when the two sorts began to
# share one class per connective: 556 of the 3,643 lines changed, each one
# equal to its old line after renaming `Not1(`/`Not2(` to `Not(`, `Or1(`/`Or2(`
# to `Or(` and `Exists1(` to `ExistsSet(`; no grammar or text column changed.
CORPUS_DIGEST = "f56472550b23fc771376a128dc0d7a901892f7b9721bcd772fc611e7ccc79058"

MSO1_POOL = [
    "down p", "p sub q", "Rel(p,q)", "ex r. (r sub p)", "ex r. (down r | Rel(r,q))",
    "~ex r. Rel(r,p)", "down q | p sub q", "~(down p | p sub q)", "ex r. (r sub p | down r)",
    "ex r. ~(r sub q)", "~down p", "~Rel(p,q)", "p sub q | Rel(q,p)", "ex r. down r",
    "ex r. (down r | r sub q)", "p sub q | ~Rel(p,q)", "ex r. (down r | r sub p)",
]
MSO2_POOL = ["p(v)", "ex x. (R(v,x) | x=v)", "ex s. s(v)", "x=y", "ex x. R(v,x)"]


@functools.lru_cache(maxsize=1)
def _corpus():
    """(grammar, text, parsed AST, printed AST) for every text of the corpus."""
    out = []
    for dialect in o.DIALECTS:
        for f in gen.enumerate_sentences(("a", "b"), 2, dialect):
            text = o.pretty(f.ast)
            out.append(("onestep", text, o.parse(text, dialect, f.preds), f.ast))
    rng = random.Random(41)
    for i in range(300):
        dialect = o.DIALECTS[i % 3]
        f = gen.rand_onestep(rng, ("a", "b", "c"), 3, dialect, positive=i % 2 == 0)
        text = o.pretty(f.ast)
        out.append(("onestep", text, o.parse(text, dialect, f.preds), f.ast))
    rng = random.Random(42)
    mus = []
    for mode in ("any", "af", "cont"):
        for modalities in ("plain",) + o.DIALECTS:
            for _ in range(25):
                f = gen.rand_mu(rng, ("p", "q"), depth=rng.randint(1, 4), mode=mode,
                                modalities=modalities)
                mus.append(f)
                text = mc.pretty(f)
                out.append(("mu", text, mc.parse(text), f))
    for logic in ("wmso", "nmso", "smso"):
        for text in MSO1_POOL:
            f = mso.parse1(text, logic)
            text = mso.pretty(f)
            out.append(("mso1 " + logic, text, mso.parse1(text, logic), f))
        for text in MSO2_POOL:
            f = mso.parse2(text, logic)
            text = mso.pretty(f)
            out.append(("mso2 " + logic, text, mso.parse2(text, logic), f))
    for f in mus:
        for logic in ("wmso", "nmso"):
            try:
                g = mso.mu_to_mso(f, logic)
            except mso.FragmentError:
                continue
            text = mso.pretty(g)
            out.append(("mso2 " + logic, text, mso.parse2(text, logic), g))
    return tuple(out)


def _corpus_lines():
    """One line per parsed text: its grammar, the text and the AST's repr."""
    return ["%s\t%s\t%r" % line[:3] for line in _corpus()]


def test_corpus_parses_to_the_recorded_asts():
    lines = _corpus_lines()
    assert len(lines) > 3000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


def test_every_corpus_formula_reads_back_as_itself():
    # `printed` is the AST each text was printed from, such as a `mu_to_mso` output
    for grammar, text, f, printed in _corpus():
        assert _parser(grammar)(syntax.pretty(printed)) is printed is getattr(f, "ast", f), text


# sha256 of `_mutation_lines()`, recorded with the hand-written rule sets
# over `Cursor` that the grammars read off the notations replaced: which
# mutated texts each grammar accepts, as which node, and each refusal's
# message and column.
MUTATION_DIGEST = "f2ed4eefe681d17eff63d6a65573895494f84c6adc1e15142ea38e0d0ecc569d"

# tokens inserted or substituted: every token some grammar reads, and names
_VOCABULARY = ("(", ")", ",", ".", "=", "!=", "!", "~", "&", "|", "<", ">", "true", "false",
               "E", "A", "Einf", "Ainf", "W", "mu", "nu", "dia", "box", "ex", "down", "sub",
               "Rel", "R", "x", "v", "p", "a1")
_GRAMMARS = ("onestep", "mu", "mso1 smso", "mso2 wmso")


def _mutation_lines():
    """For two seeded token mutations (delete, insert, replace or truncate)
    of each corpus text, the outcome of parsing it with its own grammar and
    with one other grammar: the node's repr, or the error and its column."""
    rng = random.Random(32)
    out = []
    for grammar, text, _, _ in _corpus():
        spans = [m.span() for m in re.finditer(r"[A-Za-z_][A-Za-z_0-9]*|!=|\S", text)]
        for _ in range(2):
            op, i = rng.choice(("delete", "insert", "replace", "truncate")), rng.randrange(len(spans))
            start, end = spans[i]
            word = " %s " % rng.choice(_VOCABULARY)
            mutated = {"delete": text[:start] + text[end:], "insert": text[:start] + word + text[start:],
                       "replace": text[:start] + word + text[end:], "truncate": text[:start]}[op]
            other = rng.choice([g for g in _GRAMMARS if g.split()[0] != grammar.split()[0]])
            for tag in (grammar, other):
                try:
                    outcome = repr(_parser(tag)(mutated))
                except (ParseError, mc.IllFormedError) as e:
                    outcome = "%s: %s" % (type(e).__name__, e)
                out.append("%s\t%s\t%s" % (tag, mutated, outcome))
    return out


def test_mutated_texts_parse_to_the_recorded_outcomes():
    lines = _mutation_lines()
    assert len(lines) > 14000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MUTATION_DIGEST


# sha256 of `_walker_lines()`, recorded with the match-based walkers that
# the node layer's children/rebuild replaced.  Re-recorded with the corpus
# digest: only those 375 `mso2` rows and the `mu_to_mso` entries of `mu`
# rows changed, which now name variables in their sort.  Re-recorded with
# it again: only the `mu_to_mso` entries of 131 `mu` rows and the `mso2`
# rows changed; an `mso2` row now records its stored facts in place of the
# outputs of a deleted substitution walker.  Re-recorded with the corpus
# digest for the one `fin` name per `onestep_dagger` call: only that wmso
# `mso2` row and the `mu_to_mso` entry of one `mu` row changed.  Re-recorded
# with the corpus digest for the shared connective classes: 260 rows changed,
# each one only by the same renaming.  Re-recorded when junctions began
# keeping each argument once: 23 `mu` rows changed, only in the outputs of
# `simplify`, `guard_transform` and `fo1_modal_bridge`, each by dropping
# repeated arguments (and, in three bridge outputs now unequal to their input,
# by the renaming of binders that `refresh` gives).  Re-recorded when a bound
# letter came to name one binder node: 26 `mu` rows changed, 25 in the output
# of `fo1_modal_bridge`, which no longer renames binders (a binder in a
# repeated argument stays one node under its own letter), and 2 in that of
# `substitute`, where the image `nu y. box y` at several occurrences of q is
# one binder node; each changed formula passes check_wf and means what it did
# on 20 seeded systems.
WALKER_DIGEST = "97acf13eba0aebac3651a1d1d33cf20e27a639be34bfd1dd79a7b8de07a7ccfe"

SIGMA = {"p": mc.dia(mc.Prop("q")), "q": mc.mor((mc.Prop("p"), mc.Nu("y", mc.box(mc.Prop("y")))))}


def _or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return "%s: %s" % (type(e).__name__, e)


def _walker_lines():
    """One line per corpus text: the outputs of every structural walker
    that applies to its grammar."""
    out = []
    for grammar, text, f, _ in _corpus():
        if grammar == "onestep":
            f = f.ast
            row = [o.expand_sugar(f), o.dual(f), o.rename_pred(f, {"a": "b", "b": "c"}),
                   sorted(o.free_vars(f)), sorted(o.predicates(f)), o.rank(f),
                   o.min_dialect(f), o.is_positive(f)]
        elif grammar == "mu":
            row = [sorted(mc.free_letters(f)), mc.refresh(f), mc.refresh(f, ("x1", "x3")),
                   _or_error(mc.substitute, f, SIGMA), mc.negate(f), mc.simplify(f),
                   mc.classify(f), mc.guard_transform(f),
                   sorted(mc.binder_priorities(f).items())]
            if mc.modal_dialect(f) == o.FO1:
                row.append(mc.fo1_modal_bridge(f))
            row += [_or_error(mso.mu_to_mso, f, logic) for logic in ("wmso", "nmso")]
        elif grammar.startswith("mso1"):
            row = [sorted(mso.free_names(f))]
        else:
            row = [sorted(f.facts)]
        out.append("%s\t%s\t%r" % (grammar, text, row))
    return out


def test_walkers_give_the_recorded_outputs():
    digest = hashlib.sha256("\n".join(_walker_lines()).encode()).hexdigest()
    assert digest == WALKER_DIGEST


# each AST's node classes, the name its subformula fields are annotated
# with, and its corpus grammar; the two MSO syntaxes share Not, Or and ExistsSet
SYNTAXES = {"Formula": (typing.get_args(o.Formula), "Formula", "onestep"),
            "MuFormula": (typing.get_args(mc.MuFormula), "MuFormula", "mu"),
            "Mso1": (typing.get_args(mso.Mso1), "Mso", "mso1"),
            "Mso2": (typing.get_args(mso.Mso2), "Mso", "mso2")}


@pytest.mark.parametrize("classes,formula,grammar", SYNTAXES.values(), ids=SYNTAXES)
def test_subformula_fields_are_the_fields_that_hold_formulas(classes, formula, grammar):
    # annotations are strings such as "'Formula'", "tuple['Formula', ...]" or "o.Formula"
    for cls in classes:
        assert issubclass(cls, Node)
        typed = [name for name, kind in cls.__dict__["__annotations__"].items()
                 if kind.replace("'", "").replace('"', "") in (formula, "tuple[%s, ...]" % formula)]
        assert list(cls.subs) == typed, cls
        assert "subs" not in cls.__match_args__
    # and in parsed formulas of the grammar: subformula fields hold nodes of
    # its syntax, other fields none
    seen = set()
    for tag, _, f, _ in _corpus():
        if tag.split()[0] != grammar:
            continue
        for g in _nodes(getattr(f, "ast", f)):
            seen.add(type(g))
            for name in g.__match_args__:
                v = getattr(g, name)
                assert all((type(c) in classes) == (name in g.subs)
                           for c in (v if type(v) is tuple else (v,))), (g, name)
    assert seen == set(classes)


def _nodes(f):
    yield f
    for c in f.children():
        yield from _nodes(c)


@pytest.mark.parametrize("classes,formula,grammar", SYNTAXES.values(), ids=SYNTAXES)
def test_every_node_class_declares_a_notation_and_prints(classes, formula, grammar):
    assert o.pretty is mc.pretty is mso.pretty is syntax.pretty
    first = {}  # each class's first node in the grammar's corpus, read by that grammar
    for tag, _, f, _ in _corpus():
        if tag.split()[0] == grammar:
            for g in _nodes(getattr(f, "ast", f)):
                first.setdefault(type(g), (tag, g))
    for cls in classes:
        assert "notation" in vars(cls), cls
        tag, g = first[cls]
        assert _parser(tag)(syntax.pretty(g)) is g, g


A, B, X = o.Pred("a", "x"), o.Neq("x", "y"), o.Eq("x", "x")
P, Q, Y = mc.Prop("p"), mc.NegProp("q"), mc.dia(mc.Prop("r"))
D1, D2, X1 = mso.Down("p"), mso.SubsetOf("p", "q"), mso.RelStep("p", "q")
D3, D4, X2 = mso.PredApp("p", "v"), mso.EqVar("v", "w"), mso.RelApp("v", "w")
ALPHA = o.Exists("x", o.Pred("a2", "x"))

# (node, child replaced, replacement, the node built by hand with it replaced)
REBUILDS = [
    (o.And((A, B)), B, X, o.And((A, X))), (o.Or((A, B, A)), A, X, o.Or((X, B, X))),
    (o.Exists("x", A), A, X, o.Exists("x", X)), (o.Forall("y", B), B, X, o.Forall("y", X)),
    (o.ExistsInf("x", A), A, X, o.ExistsInf("x", X)),
    (o.ForallInf("x", A), A, X, o.ForallInf("x", X)),
    (o.W("x", A, B), B, X, o.W("x", A, X)), (o.W("x", A, B), A, X, o.W("x", X, B)),
    (mc.MAnd((P, Q)), Q, Y, mc.MAnd((P, Y))), (mc.MOr((P, Q)), P, Y, mc.MOr((Y, Q))),
    (mc.Modal(ALPHA, (P, Q)), Q, Y, mc.Modal(ALPHA, (P, Y))),
    (mc.Mu("p", P), P, Y, mc.Mu("p", Y)), (mc.Nu("p", P), P, Y, mc.Nu("p", Y)),
    (mso.Not(D1), D1, X1, mso.Not(X1)), (mso.Or(D1, D2), D2, X1, mso.Or(D1, X1)),
    (mso.ExistsSet("r", D1, mso.FINITE), D1, X1, mso.ExistsSet("r", X1, mso.FINITE)),
    (mso.Not(D3), D3, X2, mso.Not(X2)), (mso.Or(D3, D4), D3, X2, mso.Or(X2, D4)),
    (mso.ExistsVar("w", D4), D4, X2, mso.ExistsVar("w", X2)),
    (mso.ExistsSet("p", D3, mso.NOETHERIAN), D3, X2, mso.ExistsSet("p", X2, mso.NOETHERIAN)),
]


def _rebuild_id(node, old, new, want):
    """The node's class, with the sort of its children when both MSO syntaxes have it."""
    name = type(node).__name__
    if all(type(node) in typing.get_args(s) for s in (mso.Mso1, mso.Mso2)):
        name += "1" if type(old) in typing.get_args(mso.Mso1) else "2"
    return name


@pytest.mark.parametrize("node,old,new,want", REBUILDS, ids=[_rebuild_id(*r) for r in REBUILDS])
def test_rebuild(node, old, new, want):
    assert node.rebuild(lambda c: c) is node
    assert node.rebuild(lambda c: new if c == old else c) == want
    assert set(node.children()) - {old} == set(want.children()) - {new}


def test_rebuild_of_an_atom_and_into_another_class():
    for atom in (A, B, P, Q, D1, D2, D3, D4):
        assert atom.children() == () and atom.rebuild(lambda c: X) is atom
    assert o.And((A, B)).rebuild(lambda c: c, o.Or) == o.Or((A, B))
    assert o.Eq("x", "y").rebuild(lambda c: c, o.Neq) == o.Neq("x", "y")
    assert mc.Mu("p", P).rebuild(lambda c: Y, mc.Nu) == mc.Nu("p", Y)


def _depth(n, per, opener, leaf, closer=""):
    """`opener` (nesting `per` levels) repeated around leaf, padded with
    parentheses to nesting depth exactly n."""
    steps, pad = divmod(n, per)
    return "(" * pad + opener * steps + leaf + closer * steps + ")" * pad


def _nested(n):
    """Texts of nesting depth n for each grammar, with their parser and printer."""
    return [
        (o.parse_formula, o.pretty, _depth(n, 1, "(", "a(x)", ")")),
        (o.parse_formula, o.pretty, _depth(n, 1, "E x. ", "a(x)")),
        (o.parse_formula, o.pretty, _depth(n, 2, "A x. (a(x) | ", "!a(x)", ")")),
        (o.parse_formula, o.pretty, _depth(n, 1, "W x.(a(x), ", "b(x)", ")")),
        (mc.parse, mc.pretty, _depth(n, 1, "dia ", "p")),
        (mc.parse, mc.pretty, _depth(n, 1, "(", "p", ")")),
        (mc.parse, mc.pretty, _depth(n, 2, "", "".join(
            "nu z%d. (p & " % i for i in range(n // 2)) + "p" + ")" * (n // 2))),
        # the innermost modality's quantifier is one level deeper
        (mc.parse, mc.pretty, "<E x. a1(x) | a2(x)>(p, " * (n - 1) + "q" + ")" * (n - 1)),
        (mso.parse1, mso.pretty, _depth(n, 1, "~", "down p")),
        (mso.parse1, mso.pretty, _depth(n, 2, "ex r. (down r | ", "r sub p", ")")),
        (mso.parse2, mso.pretty, _depth(n, 1, "(", "p(v)", ")")),
        (mso.parse2, mso.pretty, _depth(n, 1, "ex x. ", "R(v,x)")),
    ]


def _from_depth(frames, fn):
    return fn() if frames == 0 else _from_depth(frames - 1, fn)


@pytest.mark.parametrize("case", range(len(_nested(2))))
@pytest.mark.parametrize("frames", [0, 300])
def test_nesting_limit_does_not_depend_on_the_stack(case, frames):
    parse, pretty, text = _nested(MAX_NESTING)[case]

    def round_trip():
        f = parse(text)
        return f, parse(pretty(f))

    f, back = _from_depth(frames, round_trip)
    assert back == f
    parse, _, text = _nested(MAX_NESTING + 1)[case]
    with pytest.raises(ParseError, match="formula nesting too deep"):
        _from_depth(frames, lambda: parse(text))


def _deep(n):
    """(grammar, builder of a formula of nesting depth n or 2n from
    constructors, its text) for shapes of each grammar."""
    def build(leaf, wrap):  # wrap(f, i) is f wrapped at step i
        return lambda: functools.reduce(wrap, range(n), leaf)

    a, b, p, q = o.Pred("a", "x"), o.Pred("b", "x"), mc.Prop("p"), mc.Prop("q")
    alpha = o.Exists("x", o.Or((o.Pred("a1", "x"), o.Pred("a2", "x"))))
    d, x = mso.Down("p"), mso.EqVar("x", "v")
    return [
        ("onestep", build(a, lambda f, i: o.Exists("x", f)), "E x. " * n + "a(x)"),
        ("onestep", build(b, lambda f, i: o.W("x", a, f)), "W x.(a(x), " * n + "b(x)" + ")" * n),
        ("onestep", build(a, lambda f, i: o.And((a, o.Or((b, f))))),
         "a(x) & (b(x) | " * n + "a(x)" + ")" * n),
        ("mu", build(p, lambda f, i: mc.dia(f)), "dia " * n + "p"),
        ("mu", build(q, lambda f, i: mc.Modal(alpha, (p, f))),
         "<E x. a1(x) | a2(x)>(p, " * n + "q" + ")" * n),
        ("mu", build(q, lambda f, i: mc.Nu("z%d" % i, mc.MAnd((p, f)))),
         "".join("nu z%d. p & (" % i for i in range(n - 1, 0, -1))
         + "nu z0. p & q" + ")" * (n - 1)),
        ("mso1 wmso", build(d, lambda f, i: mso.Not(f)), "~" * n + "down p"),
        ("mso1 wmso", build(mso.Down("q"), lambda f, i: mso.Or(d, f)),
         "down p | (" * (n - 1) + "down p | down q" + ")" * (n - 1)),
        ("mso2 wmso", build(mso.RelApp("v", "x"), lambda f, i: mso.ExistsVar("x", f)),
         "ex x. " * n + "R(v,x)"),
        ("mso2 wmso", build(x, lambda f, i: mso.Or(f, mso.PredApp("p", "v"))),
         "(" * (n - 1) + "x=v" + " | p(v))" * (n - 1) + " | p(v)"),
    ]


@pytest.mark.parametrize("case", range(len(_deep(2))))
@pytest.mark.parametrize("frames", [0, 300])
def test_printing_depth_does_not_depend_on_the_stack(case, frames):
    _, build, text = _deep(10 ** 4)[case]
    f = build()
    assert _from_depth(frames, lambda: syntax.pretty(f)) == text
    grammar, build, text = _deep(MAX_NESTING // 2 - 1)[case]
    f = build()
    assert syntax.pretty(f) == text and _parser(grammar)(text) is f


PARSERS = {"onestep": o.parse_formula, "mu": mc.parse, "mso1": mso.parse1, "mso2": mso.parse2}


def _parser(grammar):
    """The parser of a corpus grammar such as "mso2 wmso", with its logic."""
    kind, _, logic = grammar.partition(" ")
    return functools.partial(PARSERS[kind], logic=logic) if logic else PARSERS[kind]


@pytest.mark.parametrize("grammar,text", [
    ("onestep", "E (. a(()"), ("onestep", "a(&)"), ("onestep", "!a(.)"), ("onestep", "x=("),
    ("onestep", "W |.(a(|), a(|))"), ("mu", "~("), ("mu", ")"), ("mu", "mu (. p"),
    ("mu", "p & ,"), ("mu", "<E (. a1(()>(p)"), ("mso1", "ex |. down |"), ("mso1", "down ("),
    ("mso1", "Rel((,q)"), ("mso1", ") sub q"), ("mso2", "p(,)"), ("mso2", "x=|"),
    ("mso2", "ex =. R(v,=)"),
])
def test_punctuation_is_not_a_name(grammar, text):
    with pytest.raises(ParseError, match="expected a name"):
        PARSERS[grammar](text)


@pytest.mark.parametrize("letter", ["Rq", "express", "subtree", "downs", "Relp", "R_", "ex1"])
def test_letters_that_start_with_a_keyword_round_trip(letter):
    for mode, logic in ((mso.FINITE, "wmso"), (mso.NOETHERIAN, "nmso")):
        for f in (mso.Down(letter), mso.SubsetOf(letter, "p"), mso.RelStep("p", letter),
                  mso.ExistsSet(letter, mso.Not(mso.Down(letter)), mode),
                  mso.Or(mso.Down(letter), mso.SubsetOf("q", letter))):
            assert mso.parse1(mso.pretty(f), logic) == f
        f2 = mso.ExistsSet(letter, mso.Or(mso.PredApp(letter, "v"), mso.RelApp("v", "x")), mode)
        assert mso.parse2(mso.pretty(f2), logic) == f2
    assert mso.parse1("down express") == mso.Down("express")


@pytest.mark.parametrize("grammar,text,column,message", [
    ("onestep", "", 1, "expected a name, found end of input"),
    ("onestep", "E x.", 5, "expected a name, found end of input"),
    ("onestep", "A x. x", 6, "dangling identifier 'x'"),
    ("onestep", "a(x) # b", 6, "unexpected character '#'"),
    ("onestep", "E x a(x)", 5, "expected '.', found 'a'"),
    ("onestep", "a(x) b(x)", 6, "trailing input 'b'"),
    ("onestep", "(a(x)", 6, "expected ')', found end of input"),
    ("mu", "p # q", 3, "unexpected character '#'"),
    ("mu", "mu x. ((", 9, "expected a name, found end of input"),
    ("mu", "<E x. a1(x) b>(p)", 13, "expected '>', found 'b'"),
    ("mu", "<E x. a1(x)>(p", 15, "expected ')', found end of input"),
    ("mu", "dia <E x. a1(x) & y>(p)", 19, "dangling identifier 'y'"),
    ("mso1", "down express q", 14, "trailing input 'q'"),
    ("mso1", "p", 1, "unknown one-sorted atom starting at 'p'"),
    ("mso1", "ex r down r", 6, "expected '.', found 'down'"),
    ("mso2", "p(v) | x", 8, "dangling identifier 'x'"),
    ("mso2", "R(v x)", 5, "expected ',', found 'x'"),
])
def test_errors_name_the_token_and_its_column(grammar, text, column, message):
    with pytest.raises(ParseError) as e:
        PARSERS[grammar](text)
    assert e.value.column == column
    assert str(e.value) == "%s (at column %d)" % (message, column)


@pytest.mark.parametrize("grammar,text", [
    ("onestep", "A x = (a(x) | !b(x))"), ("onestep", "E x , E y . (x != y)"),
    ("onestep", "A x. (a(x) | !<(x))"), ("onestep", "Einf x. a(x) & Ainf y. b(y <"),
    ("onestep", "E x. (a(x) & x & = y)"), ("onestep", "~a(x)"), ("onestep", "true false"),
    ("mu", "box (p | true) > false"), ("mu", "nu y. (mu x. ((p & dia x) | dia y)"),
    ("mu", "<E x. a1(x)>(p, ~q &"), ("mu", "# (p, ~q)"), ("mu", "<>(p)"), ("mu", "dia"),
    ("mu", "<E x. a1(x)(p)"), ("mu", "p !a(x)"),
    ("mso1", "ex r mu (down r | r sub p)"), ("mso1", "R p"), ("mso1", "p sub q | > Rel(p,q)"),
    ("mso1", "ex r. ("), ("mso1", "p(v)"), ("mso1", "down p & down q"),
    ("mso2", "~Rel(x,y) | z = sub q"), ("mso2", ", p(v)"), ("mso2", "ex s down s(v)"),
    ("mso2", "ex s. s(v"), ("mso2", "Rel Rel(x,y)"), ("mso2", "x"),
])
def test_malformed_inputs_are_rejected(grammar, text):
    with pytest.raises(ParseError):
        PARSERS[grammar](text)


def test_keywords_are_the_names_that_open_a_rule():
    assert o.GRAMMAR.keywords == {"E", "A", "Einf", "Ainf", "W", "true", "false"}
    assert mc.GRAMMAR.keywords == {"mu", "nu", "dia", "box", "true", "false"}
    for one, two in mso.ast.GRAMMARS.values():
        assert one.keywords == two.keywords == mso.ast.KEYWORDS == {"ex", "down", "Rel", "R"}


def test_one_error_type():
    assert o.ParseError is mc.ParseError is mso.ParseError is ParseError
    assert issubclass(ParseError, ValueError)


# --- interning ------------------------------------------------------------

def test_equal_parses_are_one_node():
    text = "E x. (a(x) & A y. (b(y) | x = y))"
    f, g = o.parse(text, o.FOE1), o.parse(text, o.FOE1)
    assert f.ast is g.ast and hash(f.ast) == hash(g.ast)
    assert mc.parse("nu y. (p & box y)") is mc.parse("nu y. ((p) & box y)")
    assert mso.parse1("ex r. down r") is mso.parse1("(ex r. (down r))")
    assert mso.parse2("ex x. R(v,x)") is mso.parse2("ex x. (R(v,x))")
    assert o.Pred("a", "x") is not o.NegPred("a", "x") != o.Pred("a", "x")
    assert pickle.loads(pickle.dumps(f.ast)) is copy.deepcopy(f.ast) is f.ast


def test_node_classes_compare_by_identity_and_keep_the_stored_hash():
    # an `__eq__` or `__hash__` on a node class would compare or hash recursively
    for classes, _, _ in SYNTAXES.values():
        for cls in classes:
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is Node.__hash__, cls


def test_nodes_are_frozen_built_from_their_fields_and_copied_as_themselves():
    # what a frozen dataclass gave each node class, and `Node` now gives
    nodes = {}
    for _, _, f, _ in _corpus():
        for g in _nodes(getattr(f, "ast", f)):
            nodes.setdefault(type(g), g)
    assert set(nodes) == {cls for classes, _, _ in SYNTAXES.values() for cls in classes}
    for cls, node in nodes.items():
        assert not dataclasses.is_dataclass(cls), cls
        fields = tuple(cls.__dict__["__annotations__"])
        assert cls.__match_args__ == fields, cls
        values = tuple(getattr(node, name) for name in fields)
        assert cls(*values) is node
        for name in fields + ("facts",):
            with pytest.raises(AttributeError):
                setattr(node, name, values[0])
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert tuple(getattr(node, name) for name in fields) == values
        for wrong in (values[:-1], values + values[:1]):
            with pytest.raises(TypeError):
                cls(*wrong)
        assert pickle.loads(pickle.dumps(node)) is copy.deepcopy(node) is node
    assert o.W.__match_args__ == ("var", "finite", "cofinite")
    assert repr(o.Pred("a", "x")) == "Pred(name='a', var='x')"
    assert repr(mso.Or(mso.Down("r"), mso.Not(mso.Down("r")))) == \
        "Or(left=Down(p='r'), right=Not(body=Down(p='r')))"
    assert repr(mc.parse("dia p")) == ("Modal(alpha=Exists(var='x', body=Pred(name='a1', var='x')), "
                                       "args=(Prop(name='p'),))")


def test_a_reparsed_sentence_hits_the_normal_form_cache():
    # a OneStepFormula that compared by identity would miss here
    text = "E x. (a(x) & A y. (b(y) | x = y))"
    o.to_basic_form(o.parse(text, o.FOE1))
    hits = o.to_basic_form.cache_info().hits
    o.to_basic_form(o.parse(text, o.FOE1))
    assert o.to_basic_form.cache_info().hits == hits + 1


def test_node_hashes_do_not_depend_on_addresses():
    code = ("from muaut import mucalc as mc; import sys; sys.stdout.write(str("
            "hash(mc.parse('mu x. (p | dia x) & <E y. a1(y) & a2(y)>(q, ~r)'))))")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(syntax.__file__)))
    runs = {subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout for _ in range(2)}
    assert len(runs) == 1


def test_dropping_a_formula_frees_its_nodes():
    gc.collect()
    before = len(syntax._interned)
    f = o.conj(o.Exists("x", o.Pred("big%d" % i, "x")) for i in range(5000))
    assert len(syntax._interned) >= before + 10_000
    assert o.rank(f) == 1 and len(o.predicates(f)) == 5000 and hash(f) == hash(f)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert len(syntax._interned) == before


def test_a_formula_and_its_stored_dual_are_freed_in_one_collection():
    # f and its dual hold each other at every level once both are dualized
    gc.collect()
    before = len(syntax._interned)
    c = o.Pred("c", "x")
    f = functools.reduce(lambda g, i: o.And((o.Pred("deep%d" % i, "x"), o.Or((g, c)))), range(300), c)
    d = o.dual(f)
    assert o.dual(d) is f and len(syntax._interned) >= before + 1200
    del c, f, d
    gc.collect()
    assert len(syntax._interned) == before


def test_no_node_keeps_itself_as_a_stored_value():
    # a sugar-free node's expansion and an atom's dual are the node itself;
    # kept as such, each would be a cycle that only the collector frees
    for suite in sorted(cli.SUITES):
        for i in range(20):
            cli.SUITES[suite](cli._instance_rng(7, i))
    nodes = [node for node in (ref() for ref in list(syntax._interned.values())) if node]
    assert sum("_expand" in node.__dict__ for node in nodes) > 100
    assert not [node for node in nodes if any(v is node for v in node.__dict__.values())]
    # so a formula expanded, but not dualized, is freed without the collector
    f = o.Exists("x", o.And((o.Pred("own1", "x"), o.W("x", o.Pred("own2", "x"), o.Pred("own3", "x")))))
    assert o.expand_sugar(f) is not f and o.expand_sugar(f.body.args[0]) is f.body.args[0]
    refs = [weakref.ref(h) for h in (f, f.body, *f.body.args, f.body.args[1].finite)]
    gc.disable()
    try:
        del f
        assert [ref() for ref in refs] == [None] * 5
    finally:
        gc.enable()


def test_threads_deriving_stored_values_of_shared_formulas_agree():
    # a race on a stored value can only compute one deterministic value twice;
    # the threads share formulas that hold no values yet, and the serial
    # answers come from the same formulas over other letters (q for k)
    text = "E x. (a%d(x) & A y. (b(y) | x = y | W z.(c(z), {0}%d(z))))"

    def derive(f):
        return "%s %s %s %r" % (o.pretty(o.dual(f)), o.pretty(o.expand_sugar(f)), sorted(f.facts.preds),
                                o.in_cocontinuous_fragment(f, {"c"}))

    want = [derive(o.parse_formula(text.format("q") % (i, i))) for i in range(200)]
    shared = [o.parse_formula(text.format("k") % (i, i)) for i in range(200)]
    out = [None] * 8

    def run(i):
        out[i] = [derive(f).replace("k", "q") for f in shared]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(out))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(rows == want for rows in out)


def test_threads_building_equal_formulas_get_one_node():
    texts = ["E x. (a%d(x) & A y. (b(y) | x = y | W z.(c(z), a%d(z))))" % (i, i)
             for i in range(200)]
    out = [None] * 8

    def build(i):
        out[i] = [o.parse_formula(t) for t in texts]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(out))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(f is g for fs in out for f, g in zip(fs, out[0]))


# a stored fact of each grammar's formulas (two-sorted MSO stores none)
FACTS = {o.parse_formula: o.predicates, mc.parse: mc.free_letters,
         mso.parse1: mso.free_names, mso.parse2: lambda f: frozenset()}


@pytest.mark.parametrize("case", range(len(_nested(2))))
def test_deep_formulas_compare_hash_and_derive_far_down_the_stack(case):
    parse, _, text = _nested(191)[case]
    f, g = parse(text), parse(text)
    assert _from_depth(700, lambda: f == g and hash(f) == hash(g)
                       and isinstance(FACTS[parse](f), frozenset))
