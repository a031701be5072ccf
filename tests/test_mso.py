import random

import pytest

from muaut import automata as au
from muaut import gen
from muaut import lts as L
from muaut import mso
from muaut import mucalc as mc


def test_one_sorted_atoms():
    chain = L.make_lts(["p", "q"], 2, [(0, 1)], {0: ["p"], 1: ["q"]})
    assert mso.eval_mso(mso.parse1("down p"), chain)
    both = L.make_lts(["p", "q"], 2, [(0, 1)], {0: ["p"], 1: ["p"]})
    assert not mso.eval_mso(mso.parse1("down p"), both)
    sub = L.make_lts(["p", "q"], 2, [(0, 1)], {0: ["p", "q"], 1: ["q"]})
    assert mso.eval_mso(mso.parse1("p sub q"), sub)
    rel = L.make_lts(["p", "q"], 2, [(0, 1)], {0: ["p"], 1: ["q"]})
    assert mso.eval_mso(mso.parse1("Rel(p,q)"), rel)
    assert not mso.eval_mso(mso.parse1("Rel(q,p)"), rel)


def test_noetherian_quantifier():
    rng = random.Random(1)
    f = mso.parse1("ex r. down r", "nmso")
    for _ in range(15):
        lts = gen.rand_lts(rng, ("p", "q"), max_states=4)
        assert mso.eval_mso(f, lts)  # the root singleton is always coverable


def test_two_sorted_atoms():
    chain = L.make_lts(["p", "q"], 2, [(0, 1)], {0: ["p"]})
    assert mso.eval_mso(mso.parse2("p(v)"), chain, {"v": 0})
    leaf = L.make_lts(["p"], 1, [], {})
    assert not mso.eval_mso(mso.parse2("ex x. R(v,x)"), leaf, {"v": 0})
    assert mso.eval_mso(mso.parse2("x=y"), chain, {"x": 1, "y": 1})
    assert not mso.eval_mso(mso.parse2("x=y"), chain, {"x": 0, "y": 1})


def test_de_morgan_on_corpus():
    rng = random.Random(2)
    pool = ["down p", "p sub q", "Rel(p,q)", "ex r. (r sub p)"]
    for _ in range(20):
        a = mso.parse1(rng.choice(pool))
        b = mso.parse1(rng.choice(pool))
        lts = gen.rand_lts(rng, ("p", "q"), max_states=4)
        lhs = mso.eval_mso(mso.Not(mso.Or(a, b)), lts)
        rhs = mso.eval_mso(mso.Not(a), lts) and mso.eval_mso(mso.Not(b), lts)
        assert lhs == rhs


def test_modes_agree_on_finite_trees():
    # finite sets exhaust all subsets, and on trees every subset is
    # noetherian, so the three modes coincide there
    rng = random.Random(3)
    pool = ["ex r. (r sub p)", "ex r. (down r | Rel(r,q))", "~ex r. Rel(r,p)"]
    for _ in range(15):
        tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
        for text in pool:
            vals = [mso.eval_mso(mso.parse1(text, logic), tree)
                    for logic in ("smso", "wmso", "nmso")]
            assert len(set(vals)) == 1


def test_compiler_base_automata():
    rng = random.Random(4)
    ps = L.PropSet(("p", "q"))
    for text in ("down p", "p sub q", "Rel(p,q)"):
        f = mso.parse1(text)
        for logic in ("wmso", "nmso"):
            aut = mso.compile_mso(f, logic, ps)
            for _ in range(15):
                tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
                assert au.accepts(aut, tree) == mso.eval_mso(f, tree)


def test_compiler_negation_disagrees_everywhere():
    rng = random.Random(5)
    ps = L.PropSet(("p", "q"))
    a = mso.compile_mso(mso.parse1("down p"), "wmso", ps)
    na = mso.compile_mso(mso.parse1("~down p"), "wmso", ps)
    for _ in range(15):
        tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
        assert au.accepts(a, tree) != au.accepts(na, tree)


def test_compiler_projection_case():
    rng = random.Random(6)
    ps = L.PropSet(("p", "q"))
    for logic in ("wmso", "nmso"):
        f = mso.parse1("ex r. down r", logic)
        aut = mso.compile_mso(f, logic, ps)
        for _ in range(10):
            tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
            assert au.accepts(aut, tree)


def test_compiler_connective_combinations():
    rng = random.Random(7)
    ps = L.PropSet(("p", "q"))
    pool = [
        "down q | p sub q", "~(down p | p sub q)", "ex r. (r sub p | down r)",
        "~ex r. Rel(r,p)", "ex r. ~(r sub q)",
    ]
    for text in pool:
        for logic in ("wmso", "nmso"):
            f = mso.parse1(text, logic)
            aut = mso.compile_mso(f, logic, ps)
            for _ in range(8):
                tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
                assert au.accepts(aut, tree) == mso.eval_mso(f, tree), (text, logic)


def test_compiler_mode_mismatch_rejected():
    f = mso.parse1("ex r. down r", "smso")
    with pytest.raises(mso.CompileError):
        mso.compile_mso(f, "wmso", L.PropSet(("p",)))


def test_free_letters_outside_the_alphabet_are_one_error():
    loop = L.make_lts(["p"], 1, [(0, 0)], {})
    f = mc.parse("p | dia r")
    for check in (lambda: mso.compile_mso(mso.parse1("ex s. Rel(s,r)"), "wmso", loop.props),
                  lambda: au.from_formula(f, loop.props),
                  lambda: mc.build_eval_game(f, loop),
                  lambda: mc.open_eval(f, loop, {})):
        with pytest.raises(L.UnboundLetterError, match=r"^letters not in the alphabet: \['r'\]$"):
            check()
    assert mc.open_eval(f, loop, {"r": frozenset()}) == frozenset()


def test_dagger_examples():
    counter = [0]

    def fresh(base):
        counter[0] += 1
        return "%s%d" % (base, counter[0])

    import muaut.onestep as o
    dag = mso.onestep_dagger(o.parse("E x. a1(x)").ast, "v", fresh, mso.PredApp)
    assert dag == mso.ExistsVar("w1", mso.conj((mso.RelApp("v", "w1"), mso.PredApp("a1", "w1"))))
    top = mso.onestep_dagger(o.TOP, "v", fresh, mso.PredApp)
    lts = L.make_lts(["a1"], 1, [], {})
    assert mso.eval_mso(top, lts, {"v": 0})


def test_dagger_agreement_random():
    import muaut.onestep as o

    rng = random.Random(8)
    for _ in range(40):
        alpha = gen.rand_onestep(rng, ("a1", "a2"), rng.randint(1, 2),
                                 rng.choice([o.FOE1, o.FOE1INF]), positive=rng.random() < 0.7)
        k = rng.randint(0, 3)
        edges = [(0, t + 1) for t in range(k)]
        cols = {t + 1: [a for a in ("a1", "a2") if rng.random() < 0.5] for t in range(k)}
        lts = L.make_lts(("a1", "a2"), k + 1, edges, cols, init=0)
        m = o.model_of_types(frozenset(cols[t + 1]) for t in range(k))  # the successors of 0
        counter = [0]

        def fresh(base):
            counter[0] += 1
            return "%s%d" % (base, counter[0])

        dag = mso.onestep_dagger(alpha.ast, "v", fresh, mso.PredApp)
        assert o.eval_finite(alpha.ast, m) == mso.eval_mso(dag, lts, {"v": 0})


def test_mu_to_mso_spec_examples():
    assert mso.mu_to_mso(mc.Prop("p"), "wmso") == mso.PredApp("p", "v")
    loop = L.make_lts(["p", "q"], 1, [(0, 0)], {})
    assert not mso.mu_holds_via_mso(mc.parse("mu x. dia x"), loop, "wmso")
    assert not mso.mu_holds_via_mso(mc.parse("mu x. dia x"), loop, "nmso")


def test_mu_to_mso_fragment_enforcement():
    alternating = mc.parse("nu y. mu x. ((p & dia x) | dia y)")
    with pytest.raises(mso.FragmentError):
        mso.mu_to_mso(alternating, "nmso")
    box_mu = mc.parse("mu x. box x")  # alternation-free but not continuous
    with pytest.raises(mso.FragmentError):
        mso.mu_to_mso(box_mu, "wmso")
    mso.mu_to_mso(box_mu, "nmso")
    # each bound letter names one binder, so one that is also free is refused
    with pytest.raises(mc.IllFormedError):
        mso.mu_to_mso(mc.MAnd((mc.Prop("p"), mc.Mu("p", mc.dia(mc.Prop("p"))))), "wmso")


def test_mu_to_mso_agreement():
    rng = random.Random(9)
    for _ in range(50):
        logic = rng.choice(["wmso", "nmso"])
        f = gen.rand_mu(rng, ("p", "q"), depth=rng.randint(1, 2),
                        mode="cont" if logic == "wmso" else "af")
        star = mso.mu_to_mso(f, logic)
        lts = gen.rand_lts(rng, ("p", "q"), max_states=4)
        assert mso.holds_at_init(star, lts) == (lts.init in mc.semantics_eval(f, lts))


def test_mu_to_mso_witness_contains_restricted_fixpoint():
    from muaut import fixpoint as fx
    from muaut.mso.eval import _candidates

    rng = random.Random(10)
    checked = 0
    for _ in range(40):
        body = mc.MOr((mc.Prop("p"), mc.dia(mc.Prop("r"))))
        f = mc.Mu("r", body)
        lts = gen.rand_lts(rng, ("p",), max_states=4)
        if lts.init not in mc.semantics_eval(f, lts):
            continue
        F = fx.formula_functional(body, "r", lts)
        # some finite witness set q must restrict the functional while
        # keeping the root inside the restricted fixpoint
        found = False
        for q in _candidates(lts, mso.FINITE):
            fix, _ = fx.lfp(fx.restrict(F, q))
            if lts.init in fix:
                found = True
                break
        assert found
        checked += 1
    assert checked > 5


def test_parse_round_trip():
    for text in ("down p", "p sub q | ~Rel(p,q)", "ex r. (down r | r sub p)"):
        f = mso.parse1(text)
        assert mso.parse1(mso.pretty(f)) == f
    for text in ("p(v)", "ex x. (R(v,x) | x=v)", "ex s. s(v)"):
        f2 = mso.parse2(text)
        assert mso.parse2(mso.pretty(f2)) == f2


def test_parsers_take_the_logic_in_any_case_and_refuse_an_unknown_one():
    for logic, mode in (("WMSO", mso.FINITE), ("Nmso", mso.NOETHERIAN), ("smso", mso.STANDARD)):
        assert mso.parse1("ex r. down r", logic) is mso.ExistsSet("r", mso.Down("r"), mode)
        assert mso.parse2("ex s. s(v)", logic) is mso.ExistsSet("s", mso.PredApp("s", "v"), mode)
    for parse in (mso.parse1, mso.parse2):
        with pytest.raises(ValueError, match="unknown logic 'mso'"):
            parse("down p", "mso")


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(mso.ParseError, match="formula nesting too deep"):
        mso.parse1("~" * 3000 + "down p")
    with pytest.raises(mso.ParseError, match="formula nesting too deep"):
        mso.parse2("(" * 3000 + "p(v)" + ")" * 3000)


@pytest.mark.parametrize("text", ["down p", "p sub q", "ex x. (p(x) | down q)", "~(v sub w)"])
def test_two_sorted_grammar_rejects_one_sorted_atoms(text):
    with pytest.raises(mso.ParseError, match="one-sorted atom"):
        mso.parse2(text)
