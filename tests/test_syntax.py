"""The shared parser core: corpus digest, names, columns and nesting limit."""
import hashlib
import random

import pytest

from muaut import gen
from muaut import mso
from muaut import mucalc as mc
from muaut import onestep as o
from muaut.syntax import MAX_NESTING, ParseError

# sha256 of `_corpus_lines()`, recorded with the hand-written parsers the
# shared core replaced; the ASTs (and so their reprs) must not change.
CORPUS_DIGEST = "a4d1969579c2d0c17dcfee3c0e97a6fec70c50b40a4e1bf77423254a16566640"

MSO1_POOL = [
    "down p", "p sub q", "Rel(p,q)", "ex r. (r sub p)", "ex r. (down r | Rel(r,q))",
    "~ex r. Rel(r,p)", "down q | p sub q", "~(down p | p sub q)", "ex r. (r sub p | down r)",
    "ex r. ~(r sub q)", "~down p", "~Rel(p,q)", "p sub q | Rel(q,p)", "ex r. down r",
    "ex r. (down r | r sub q)", "p sub q | ~Rel(p,q)", "ex r. (down r | r sub p)",
]
MSO2_POOL = ["p(v)", "ex x. (R(v,x) | x=v)", "ex s. s(v)", "x=y", "ex x. R(v,x)"]


def _corpus_lines():
    """One line per parsed text: its grammar, the text and the AST's repr."""
    out = []
    for dialect in o.DIALECTS:
        for f in gen.enumerate_sentences(("a", "b"), 2, dialect):
            text = o.pretty(f.ast)
            out.append(("onestep", text, o.parse(text, dialect, f.preds)))
    rng = random.Random(41)
    for i in range(300):
        dialect = o.DIALECTS[i % 3]
        f = gen.rand_onestep(rng, ("a", "b", "c"), 3, dialect, positive=i % 2 == 0)
        text = o.pretty(f.ast)
        out.append(("onestep", text, o.parse(text, dialect, f.preds)))
    rng = random.Random(42)
    mus = []
    for mode in ("any", "af", "cont"):
        for modalities in ("plain",) + o.DIALECTS:
            for _ in range(25):
                f = gen.rand_mu(rng, ("p", "q"), depth=rng.randint(1, 4), mode=mode,
                                modalities=modalities)
                mus.append(f)
                text = mc.pretty(f)
                out.append(("mu", text, mc.parse(text)))
    for logic in ("wmso", "nmso", "smso"):
        for text in MSO1_POOL:
            text = mso.pretty1(mso.parse1(text, logic))
            out.append(("mso1 " + logic, text, mso.parse1(text, logic)))
        for text in MSO2_POOL:
            text = mso.pretty2(mso.parse2(text, logic))
            out.append(("mso2 " + logic, text, mso.parse2(text, logic)))
    for f in mus:
        for logic in ("wmso", "nmso"):
            try:
                g = mso.mu_to_mso(f, logic)
            except mso.FragmentError:
                continue
            text = mso.pretty2(g)
            out.append(("mso2 " + logic, text, mso.parse2(text, logic)))
    return ["%s\t%s\t%r" % line for line in out]


def test_corpus_parses_to_the_recorded_asts():
    lines = _corpus_lines()
    assert len(lines) > 3000
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


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
        (mso.parse1, mso.pretty1, _depth(n, 1, "~", "down p")),
        (mso.parse1, mso.pretty1, _depth(n, 2, "ex r. (down r | ", "r sub p", ")")),
        (mso.parse2, mso.pretty2, _depth(n, 1, "(", "p(v)", ")")),
        (mso.parse2, mso.pretty2, _depth(n, 1, "ex x. ", "R(v,x)")),
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

    # dataclass equality recurses deeper than the parser, so compare here
    f, back = _from_depth(frames, round_trip)
    assert back == f
    parse, _, text = _nested(MAX_NESTING + 1)[case]
    with pytest.raises(ParseError, match="formula nesting too deep"):
        _from_depth(frames, lambda: parse(text))


PARSERS = {"onestep": o.parse_formula, "mu": mc.parse, "mso1": mso.parse1, "mso2": mso.parse2}


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
                  mso.Exists1(letter, mso.Not1(mso.Down(letter)), mode),
                  mso.Or1(mso.Down(letter), mso.SubsetOf("q", letter))):
            assert mso.parse1(mso.pretty1(f), logic) == f
        f2 = mso.ExistsSet(letter, mso.Or2(mso.PredApp(letter, "v"), mso.RelApp("v", "x")), mode)
        assert mso.parse2(mso.pretty2(f2), logic) == f2
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


def test_one_error_type():
    assert o.ParseError is mc.MuParseError is mso.MsoParseError is ParseError
    assert issubclass(ParseError, ValueError)
