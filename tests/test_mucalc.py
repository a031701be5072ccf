import random

import pytest

from muaut import fixpoint as fx
from muaut import gen
from muaut import lts as L
from muaut import mucalc as mc
from muaut import onestep as o
from muaut.mucalc import guard


def test_semantics_spec_examples():
    chain = L.make_lts(["p"], 2, [(0, 1)], {1: ["p"]})
    assert mc.semantics_eval(mc.parse("dia p"), chain) == frozenset({0})
    loop = L.make_lts(["p"], 1, [(0, 0)], {})
    assert mc.semantics_eval(mc.parse("mu x. dia x"), loop) == frozenset()
    assert mc.semantics_eval(mc.parse("nu x. dia x"), loop) == frozenset({0})
    tree = L.make_lts(["p"], 3, [(0, 1), (0, 2)], {})
    assert mc.semantics_eval(mc.parse("mu x. box x"), tree) == frozenset({0, 1, 2})
    assert mc.semantics_eval(mc.parse("mu x. box x"), loop) == frozenset()


def test_unbound_letter_rejected():
    loop = L.make_lts(["p"], 1, [(0, 0)], {})
    with pytest.raises(mc.UnboundLetterError):
        mc.semantics_eval(mc.parse("dia r"), loop)
    with pytest.raises(mc.IllFormedError):
        mc.parse("mu x. ~x")


def test_eval_game_spec_rows():
    lts = L.make_lts(["p"], 1, [(0, 0)], {0: ["p"]})
    eg = mc.build_eval_game(mc.Prop("p"), lts)
    assert eg.positions[eg.root] == ("f", mc.Prop("p"), 0)
    assert eg.game.owner[eg.root] == 1 and not eg.game.moves[eg.root]  # Forall stuck
    assert mc.game_value(mc.parse("nu x. dia x"), lts)


def test_adequacy_random():
    rng = random.Random(20)
    for _ in range(120):
        f = gen.rand_mu(rng, ("p", "q"), depth=rng.randint(1, 3),
                        mode=rng.choice(["any", "af", "cont"]))
        lts = gen.rand_lts(rng, ("p", "q"), max_states=5)
        assert mc.game_value(f, lts) == (lts.init in mc.semantics_eval(f, lts))


def test_bisimulation_invariance():
    rng = random.Random(21)
    for _ in range(25):
        s = gen.rand_lts(rng, ("p", "q"), max_states=5)
        t = L.quotient(s)
        f = gen.rand_mu(rng, ("p", "q"), depth=2, mode="any")
        assert (s.init in mc.semantics_eval(f, s)) == (t.init in mc.semantics_eval(f, t))


def test_modal_step_on_dense_successor_sets():
    # out-degrees past the rank: the capped type counts of the successors
    # must decide the modality as the full successor model does
    rng = random.Random(23)
    for i in range(30):
        alpha = gen.rand_onestep(rng, ("a1", "a2"), rng.randint(1, 3),
                                 sorted(o.DIALECTS)[i % 3], positive=True)
        lts = gen.rand_lts(rng, ("p", "q"), max_states=9, edge_prob=0.8)
        f = mc.Modal(alpha.ast, (mc.Prop("p"), mc.Prop("q")))
        want = frozenset(
            s for s in lts.states()
            if o.eval_finite(alpha.ast, o.model_of_types(
                frozenset(a for a, p in (("a1", "p"), ("a2", "q")) if t in lts.holds(p))
                for t in lts.successor_table()[s])))
        assert mc.semantics_eval(f, lts) == want, o.pretty(alpha.ast)


def test_monotone_dependency_and_iteration_bound():
    rng = random.Random(22)
    for _ in range(25):
        lts = gen.rand_lts(rng, ("p",), max_states=5)
        body = mc.MOr((gen.rand_mu(rng, ("p",), depth=1, mode="any"), mc.dia(mc.Prop("r"))))
        stages = fx.lfp(fx.formula_functional(body, "r", lts))[1]
        assert len(stages) <= lts.n + 1
        for lo, hi in zip(stages, stages[1:]):
            assert lo <= hi
        lo = frozenset(s for s in lts.states() if rng.random() < 0.4)
        hi = lo | frozenset(s for s in lts.states() if rng.random() < 0.4)
        assert mc.open_eval(body, lts, {"r": lo}) <= mc.open_eval(body, lts, {"r": hi})


def test_classify_spec_examples():
    r = mc.classify(mc.parse("mu x. dia x"))
    assert r.continuous_calculus and r.alternation_free
    r2 = mc.classify(mc.parse("mu x. box x"))
    assert r2.alternation_free and not r2.continuous_calculus
    alternating = mc.parse("nu y. mu x. ((p & dia x) | dia y)")
    assert not mc.classify(alternating).alternation_free


def test_mu_c_implies_mu_d():
    rng = random.Random(23)
    for _ in range(80):
        f = gen.rand_mu(rng, ("p",), depth=3,
                        mode=rng.choice(["any", "af", "cont"]),
                        modalities=rng.choice(["plain", "FOE1INF"]))
        rep = mc.classify(f)
        if rep.continuous_calculus:
            assert rep.alternation_free


def test_guard_transform():
    rng = random.Random(24)
    f = mc.Mu("x", mc.MOr((mc.Prop("x"), mc.Prop("p"))))
    assert mc.guard_transform(f) == mc.Prop("p")
    g = mc.parse("mu x. dia x")
    assert mc.guard_transform(g) == g
    for _ in range(60):
        f = gen.rand_mu(rng, ("p", "q"), depth=3, mode=rng.choice(["any", "af", "cont"]))
        t = mc.guard_transform(f)
        assert mc.is_guarded(t)
        rf, rt = mc.classify(f), mc.classify(t)
        if rf.alternation_free:
            assert rt.alternation_free
        if rf.continuous_calculus:
            assert rt.continuous_calculus
        for _ in range(2):
            lts = gen.rand_lts(rng, ("p", "q"), max_states=5)
            assert mc.semantics_eval(f, lts) == mc.semantics_eval(t, lts)


def test_guard_transform_unfolds_an_inner_binder(monkeypatch):
    # an unguarded occurrence of the outer letter inside an inner binder is
    # guarded by unfolding that binder once, not by replacing the occurrence:
    # on 0 -> 1 with a at 1, false in place of x would leave only {1}
    unfolded = []
    unfold = guard._unfold_offending_binder
    monkeypatch.setattr(guard, "_unfold_offending_binder",
                        lambda f, p: unfolded.append(p) or unfold(f, p))
    f = mc.parse("mu x. a | (nu y. x | dia y)")
    t = mc.guard_transform(f)
    assert t == mc.parse("mu x1. a | dia (nu x2. x1 | dia x2)") and unfolded == ["x"]
    chain = L.make_lts(("a",), 2, [(0, 1)], {1: ["a"]})
    assert mc.semantics_eval(f, chain) == mc.semantics_eval(t, chain) == frozenset({0, 1})
    cut = mc.parse("mu x. a | (nu y. false | dia y)")
    assert mc.semantics_eval(cut, chain) == frozenset({1})
    rng = random.Random(25)
    for text in ("mu x. a | (nu y. x | dia y)", "mu p. nu q. (p & dia q)",
                 "mu p. mu q. (p | dia q)", "nu p. mu q. ((p & box q) | r)",
                 "mu p. nu q. mu s. (p | (q & dia s))"):
        f = mc.parse(text)
        del unfolded[:]
        t = mc.guard_transform(f)
        assert unfolded and mc.is_guarded(t), text
        rf, rt = mc.classify(f), mc.classify(t)
        assert rt.alternation_free >= rf.alternation_free, text
        assert rt.continuous_calculus >= rf.continuous_calculus, text
        for _ in range(100):
            lts = gen.rand_lts(rng, ("a", "r"), max_states=5)
            assert mc.semantics_eval(f, lts) == mc.semantics_eval(t, lts), (text, lts)


def test_substitute():
    f = mc.parse("dia q")
    assert mc.substitute(f, {"q": mc.MAnd((mc.Prop("p"), mc.Prop("p")))}) == \
        mc.dia(mc.MAnd((mc.Prop("p"), mc.Prop("p"))))
    assert mc.substitute(f, {}) == f
    # capture avoidance: inserting a formula with a letter bound in the host
    host = mc.Mu("z1", mc.MOr((mc.dia(mc.Prop("z1")), mc.Prop("q"))))
    out = mc.substitute(host, {"q": mc.Prop("z1")})
    mc.check_wf(out)
    rng = random.Random(25)
    for _ in range(20):
        lts = gen.rand_lts(rng, ("z1",), max_states=4)
        direct = mc.open_eval(host, lts, {"q": lts.holds("z1")})
        assert mc.semantics_eval(out, lts) == direct


def test_substitution_preserves_continuous_membership():
    # substituting a continuous image for an active letter stays continuous
    rng = random.Random(26)
    hits = 0
    for _ in range(80):
        f = gen.rand_mu(rng, ("p", "q"), depth=2, mode="cont")
        g = gen.rand_mu(rng, ("p", "q"), depth=2, mode="cont")
        q = frozenset({"p"})
        if not (mc.in_continuous(f, q) and mc.in_continuous(g, q)):
            continue
        if any(isinstance(s, mc.NegProp) and s.name == "p" for s in mc.subformulas(f)):
            continue
        if "p" not in mc.free_letters(f):
            continue
        out = mc.substitute(f, {"p": g})
        assert mc.in_continuous(out, q), (mc.pretty(f), mc.pretty(g), mc.pretty(out))
        hits += 1
    assert hits > 10


def test_fo1_modal_bridge():
    alpha = o.Exists("x", o.And((o.Pred("a1", "x"), o.Forall("y", o.Pred("a2", "y")))))
    f = mc.Modal(alpha, (mc.Prop("p"), mc.Prop("q")))
    br = mc.fo1_modal_bridge(f)
    assert mc.is_plain_modal(br)
    d = mc.parse("dia p")
    assert mc.fo1_modal_bridge(d) == d
    rng = random.Random(27)
    for _ in range(50):
        g = gen.rand_mu(rng, ("p", "q"), depth=3,
                        mode=rng.choice(["any", "af", "cont"]), modalities="FO1")
        b = mc.fo1_modal_bridge(g)
        mc.check_wf(b)
        assert mc.is_plain_modal(b)
        rg, rb = mc.classify(g), mc.classify(b)
        if rg.continuous_calculus:
            assert rb.continuous_calculus
        if rg.alternation_free:
            assert rb.alternation_free
        for _ in range(2):
            lts = gen.rand_lts(rng, ("p", "q"), max_states=4)
            assert mc.semantics_eval(g, lts) == mc.semantics_eval(b, lts)
    with pytest.raises(mc.NotFO1Error):
        mc.fo1_modal_bridge(mc.Modal(o.ExistsInf("x", o.Pred("a1", "x")), (mc.Prop("p"),)))


def test_modality_moves_match_full_enumeration():
    rng = random.Random(28)
    for _ in range(60):
        f = gen.rand_mu(rng, ("p",), depth=2, mode="any", modalities="FOE1INF")
        lts = gen.rand_lts(rng, ("p",), max_states=4)
        for g in mc.subformulas(f):
            if isinstance(g, mc.Modal) and len(g.args) * 3 <= 12:
                for succ in lts.successor_table():
                    mins = set(o.min_valuations(g.alpha, succ))
                    full = set(o.all_valuations(g.alpha, succ, g.pred_names()))
                    assert mins <= full
                    assert all(any(w <= z for w in mins) for z in full)


def test_negate_involutive_and_complementary():
    rng = random.Random(29)
    for _ in range(40):
        f = gen.rand_mu(rng, ("p", "q"), depth=2, mode="any")
        n = mc.negate(f)
        mc.check_wf(n)
        lts = gen.rand_lts(rng, ("p", "q"), max_states=4)
        assert mc.semantics_eval(n, lts) == frozenset(lts.states()) - mc.semantics_eval(f, lts)


def test_parse_pretty_round_trip():
    rng = random.Random(30)
    for _ in range(50):
        f = gen.rand_mu(rng, ("p", "q"), depth=3, mode="any", modalities="FOE1INF")
        assert mc.parse(mc.pretty(f)) == f


def test_modality_without_arguments_reads_back():
    # `to_formula` gives an entry that names no state such a modality
    for text in ("<false>()", "~p & <A x. true>() | p & <false>()"):
        f = mc.parse(text)
        assert mc.pretty(f) == text and mc.parse(mc.pretty(f)) is f
    assert mc.parse("<false>()") == mc.Modal(o.BOT, ())
    with pytest.raises(mc.ParseError):
        mc.parse("<false>(,)")


@pytest.mark.parametrize("text", ["dia " * 1500 + "p", "(" * 2000 + "p" + ")" * 2000,
                                  "<E x. " + "(" * 2000 + "a1(x)" + ")" * 2000 + ">(p)"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(mc.ParseError, match="formula nesting too deep"):
        mc.parse(text)
