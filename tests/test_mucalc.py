import functools
import itertools
import random
import sys
import time
import tracemalloc

import pytest

from muaut import automata as au
from muaut import fixpoint as fx
from muaut import gen
from muaut import lts as L
from muaut import mso
from muaut import mucalc as mc
from muaut import onestep as o
from muaut.mucalc import guard
from muaut.mucalc.bridge import _rewrite
from muaut.mucalc.classify import _leaving


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


def _doubled(lts):
    """A bisimilar copy with each state s twice, as s and s + n."""
    n, succ = lts.n, lts.successor_table()
    edges = [(u + i * n, v + j * n) for u in range(n) for v in succ[u] for i in (0, 1) for j in (0, 1)]
    return L.LTS(lts.props, 2 * n, edges, lts.colours * 2, lts.init + n)


def test_bisimulation_invariance():
    # a system, its quotient and a copy with each state doubled: the
    # semantics agrees at every bisimilar pair of states, and the
    # evaluation game and the formula's automaton give its initial answer
    rng = random.Random(21)
    props = L.PropSet(("p", "q"))
    answers = []
    for i in range(99):
        f = gen.rand_mu(rng, props.names, depth=rng.randint(2, 4), mode=("any", "af", "cont")[i % 3],
                        modalities=("plain", o.FOE1)[i // 3 % 2])
        aut = au.from_formula(f, props)
        s = gen.rand_lts(rng, props.names, max_states=5)
        sem_s = mc.semantics_eval(f, s)
        answers.append(s.init in sem_s)
        for t in (s, L.quotient(s), _doubled(s)):
            rel = L.bisimilar(s, t)
            assert rel is not None
            assert {u for u, _ in rel} == set(s.states()) and {v for _, v in rel} == set(t.states())
            sem_t = mc.semantics_eval(f, t)
            assert all((u in sem_s) == (v in sem_t) for u, v in rel), mc.pretty(f)
            assert mc.game_value(f, t) == au.accepts(aut, t) == answers[-1], mc.pretty(f)
    assert 20 < sum(answers) < 80


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


def test_wide_modality_reads_only_the_types_that_occur():
    # 200 arguments: the successors' capped counts are kept per type that
    # occurs, never over all 2^200 types
    k = 200
    f = mc.parse("<E x. %s>(%s)" % (" | ".join("a%d(x)" % i for i in range(1, k + 1)),
                                   ", ".join(["p"] * k)))
    rng = random.Random(24)
    answers = []
    for _ in range(6):
        lts = gen.rand_lts(rng, ("p",), max_states=3)
        answers.append(lts.init in mc.semantics_eval(f, lts))
        assert mc.game_value(f, lts) == answers[-1]
    assert 0 < sum(answers) < len(answers)


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


def test_guard_transform_unfolds_a_shared_binder_into_itself():
    # the unfolded copy keeps the inner binder node that stays under `dia`,
    # so the two copies meet again as one node (they were two `nu` binders)
    f = mc.parse("mu x. p | (nu y. x | dia y) & dia (nu y. x | dia y)")
    t = mc.guard_transform(f)
    assert t == mc.parse("mu x1. p | dia (nu x2. x1 | dia x2)")
    assert [type(g).__name__ for g, _ in mc.binders(t)] == ["Mu", "Nu"]
    rng = random.Random(26)
    for _ in range(100):
        lts = gen.rand_lts(rng, ("p",), max_states=5)
        assert mc.semantics_eval(f, lts) == mc.semantics_eval(t, lts)


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
    # a letter bound twice could not say which binder's class its modality takes
    shadowed = mc.Mu("x", mc.Nu("x", mc.Modal(alpha, (mc.Prop("x"), mc.Prop("p")))))
    with pytest.raises(mc.IllFormedError, match="pairwise distinct"):
        mc.fo1_modal_bridge(shadowed)


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


# --- recursive walkers that stored values and scoped walks replaced, kept as
# references --------------------------------------------------------------

def _subformulas_ref(f):
    out = [f]
    for a in f.children():
        out.extend(_subformulas_ref(a))
    return out


def _in_grammar_ref(f, q, binder, fragment=None):
    """Membership in the grammar where the letters q occur only positively,
    only below binders of class `binder`, and, when `fragment` is given,
    only in argument positions B of a modality alpha with fragment(alpha, B)."""
    if not mc.free_letters(f) & q:
        return True
    match f:
        case mc.Prop(p):
            return p in q
        case mc.NegProp():
            return False
        case mc.Mu(p, b) | mc.Nu(p, b):
            return isinstance(f, binder) and _in_grammar_ref(b, q | {p}, binder, fragment)
        case mc.Modal(alpha, args) if fragment is not None:
            touching = frozenset(
                name for name, a in zip(f.pred_names(), args) if mc.free_letters(a) & q
            )
            if not fragment(alpha, touching):
                return False
    return all(_in_grammar_ref(a, q, binder, fragment) for a in f.children())


# the grammars of `_leaving`, in its order
GRAMMARS = ((mc.Mu, None), (mc.Nu, None), (mc.Mu, o.in_continuous_fragment),
            (mc.Nu, o.in_cocontinuous_fragment))


def _unguarded_occurs_ref(f, p):
    match f:
        case mc.Prop(q):
            return q == p
        case mc.Modal():
            return False
    return any(_unguarded_occurs_ref(a, p) for a in f.children())


def _has_unguarded_under_binder_ref(f, p):
    def go(g, inside):
        match g:
            case mc.Prop(q):
                return inside and q == p
            case mc.Modal():
                return False
            case mc.Mu() | mc.Nu():
                inside = True
        return any(go(a, inside) for a in g.children())

    return go(f, False)


def _check_wf_ref(f):
    # one entry per distinct binder node: a repeated binder names its letter once
    bound = [g.var for g in dict.fromkeys(_subformulas_ref(f)) if isinstance(g, (mc.Mu, mc.Nu))]
    if len(bound) != len(set(bound)):
        raise mc.IllFormedError("bound letters not pairwise distinct: %r" % bound)
    clash = mc.free_letters(f) & set(bound)
    if clash:
        raise mc.IllFormedError("letters both free and bound: %r" % sorted(clash))

    def neg_check(g, scoped):
        match g:
            case mc.NegProp(p) if p in scoped:
                raise mc.IllFormedError("bound letter %r occurs negated" % p)
            case mc.Mu(p, _) | mc.Nu(p, _):
                scoped = scoped | {p}
        for a in g.children():
            neg_check(a, scoped)

    neg_check(f, frozenset())
    for g in _subformulas_ref(f):
        if isinstance(g, mc.Modal):
            if not o.is_positive(g.alpha):
                raise mc.IllFormedError("modality formula must be positive: %s" % o.pretty(g.alpha))
            if not o.predicates(g.alpha) <= set(g.pred_names()):
                raise mc.IllFormedError("modality mentions undeclared argument predicates")
            if o.free_vars(g.alpha):
                raise mc.IllFormedError("modality formula must be a sentence")


def _open_eval_ref(f, lts, env):
    full = frozenset(lts.states())
    succ = lts.successor_table()

    def sem(g, env):
        match g:
            case mc.Prop(p):
                return env[p] if p in env else lts.holds(p)
            case mc.NegProp(p):
                return full - (env[p] if p in env else lts.holds(p))
            case mc.MAnd(args):
                out = full
                for a in args:
                    out &= sem(a, env)
                return out
            case mc.MOr(args):
                out = frozenset()
                for a in args:
                    out |= sem(a, env)
                return out
            case mc.Modal(alpha, args):
                val = dict(zip(g.pred_names(), (sem(a, env) for a in args)))
                return frozenset(s for s, ok in enumerate(o.eval_capped(alpha, val, succ)) if ok)
            case mc.Mu(p, b) | mc.Nu(p, b):
                x = frozenset() if type(g) is mc.Mu else full
                while True:
                    nxt = sem(b, {**env, p: x})
                    if nxt == x:
                        return x
                    x = nxt
        raise TypeError(g)

    return sem(f, env)


_NEGATE_REF = {mc.MAnd: mc.MOr, mc.MOr: mc.MAnd, mc.Mu: mc.Nu, mc.Nu: mc.Mu}


def _negate_ref(f, flipped=frozenset()):
    match f:
        case mc.Prop(p):
            return mc.Prop(p) if p in flipped else mc.NegProp(p)
        case mc.NegProp(p):
            if p in flipped:
                raise mc.IllFormedError("flipped letter %r occurs negated" % p)
            return mc.Prop(p)
        case mc.Modal(alpha, args):
            return mc.Modal(o.dual(alpha), tuple(_negate_ref(a, flipped) for a in args))
        case mc.Mu(p, _) | mc.Nu(p, _):
            flipped = flipped | {p}
    return f.rebuild(lambda a: _negate_ref(a, flipped), _NEGATE_REF[type(f)])


def _simplify_ref(f):
    match f:
        case mc.MAnd(args):
            return mc.mand(map(_simplify_ref, args))
        case mc.MOr(args):
            return mc.mor(map(_simplify_ref, args))
        case mc.Mu(p, b) | mc.Nu(p, b):
            b = _simplify_ref(b)
            return f.rebuild(lambda _: b) if p in mc.free_letters(b) else b
    return f.rebuild(_simplify_ref)


def _fo1_modal_bridge_ref(f):
    def go(g, cont_active, cocont_active):
        match g:
            case mc.MAnd(args):
                return mc.mand(go(a, cont_active, cocont_active) for a in args)
            case mc.MOr(args):
                return mc.mor(go(a, cont_active, cocont_active) for a in args)
            case mc.Mu(p, _):
                cont_active = cont_active | {p}
            case mc.Nu(p, _):
                cocont_active = cocont_active | {p}
            case mc.Modal(alpha, margs):
                if o.min_dialect(alpha) != o.FO1:
                    raise mc.NotFO1Error("modality is not plain FO1: %s" % o.pretty(alpha))
                new_args = tuple(go(a, cont_active, cocont_active) for a in margs)
                if mc.is_dia(g) or mc.is_box(g):
                    return mc.Modal(alpha, new_args)
                preds = g.pred_names()
                sent = o.sentence(alpha, o.FO1, preds)
                b_cont = frozenset(
                    preds[i] for i, a in enumerate(margs) if mc.free_letters(a) & cont_active
                )
                b_cocont = frozenset(
                    preds[i] for i, a in enumerate(margs) if mc.free_letters(a) & cocont_active
                )
                if b_cont and o.in_continuous_fragment(alpha, b_cont):
                    bf = o.to_continuous_basic_form(sent, b_cont)
                    return _rewrite(bf, new_args)
                if b_cocont and o.in_cocontinuous_fragment(alpha, b_cocont):
                    bf = o.to_continuous_basic_form(
                        o.sentence(o.dual(alpha), o.FO1, preds), b_cocont)
                    return _rewrite(bf, new_args, dual=True)
                return _rewrite(o.to_basic_form(sent), new_args)
        return g.rebuild(lambda a: go(a, cont_active, cocont_active))

    # repeated arguments are shared nodes, so each binder keeps its letter
    return go(f, frozenset(), frozenset())


def _or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return "%s: %s" % (type(e).__name__, e)


def _wf_message(check, f):
    try:
        check(f)
    except mc.IllFormedError as e:
        return str(e)
    return None


def _replace_at(f, i, new):
    """f with its i-th subformula in pre-order replaced by new."""
    count = 0

    def go(g):
        nonlocal count
        count += 1
        if count - 1 == i:
            count += len(_subformulas_ref(g)) - 1
            return new
        return g.rebuild(go)

    return go(f)


# one-step sentences that make a modality ill-formed: not positive, naming
# an undeclared argument, with a free variable
BAD_ALPHAS = (o.Exists("x", o.NegPred("a1", "x")), o.Exists("x", o.Pred("a9", "x")),
              o.Pred("a1", "y"))


def _mutant(f, rng):
    """f with one or two subformulas replaced, usually ill-formed: a letter
    negated or renamed, a binder renamed, or a modality's sentence spoilt."""
    for _ in range(rng.randint(1, 2)):
        subs = _subformulas_ref(f)
        letters = sorted({g.name for g in subs if isinstance(g, (mc.Prop, mc.NegProp))}
                         | {g.var for g in subs if isinstance(g, (mc.Mu, mc.Nu))} | {"p"})
        i = rng.randrange(len(subs))
        match subs[i]:
            case mc.Prop(p):
                new = rng.choice([mc.NegProp(p), mc.Prop(rng.choice(letters))])
            case mc.NegProp():
                new = mc.NegProp(rng.choice(letters))
            case mc.Mu(_, b) | mc.Nu(_, b):
                new = type(subs[i])(rng.choice(letters), b)
            case mc.Modal(_, args):
                new = mc.Modal(rng.choice(BAD_ALPHAS), args)
            case g:
                new = mc.NegProp(rng.choice(letters)) if rng.random() < 0.5 else g
        f = _replace_at(f, i, new)
    return f


def reference_corpus(n, seed=31):
    """n fixpoint formulas: random ones in every mode and modality dialect,
    their negations and guarded forms, and every tenth triple a random
    automaton's formula."""
    rng = random.Random(seed)
    out, i = [], 0
    while len(out) < n:
        f = gen.rand_mu(rng, ("p", "q"), depth=1 + i % 4, mode=("any", "af", "cont")[i % 3],
                        modalities=(("plain",) + o.DIALECTS)[i // 3 % 4])
        out += [f, mc.negate(f), mc.guard_transform(f)]
        if i % 10 == 0:
            out.append(au.to_formula(gen.rand_automaton(
                rng, ("p",), 2, o.DIALECTS[i // 10 % 3], want=("any", "weak", "cw")[i // 30 % 3])))
        i += 1
    return out[:n]


def reference_disagreements(n, seed=31):
    """Where the stored values, the scoped walks and the pre-order list
    disagree with the recursive references over `reference_corpus(n, seed)`:
    classification and continuity on every subformula and every set of up
    to 4 of its free letters, both guard sets on every letter, `check_wf` on
    each formula and on a mutant of it, `negate` of each formula and of each
    binder body with its letter flipped, `simplify`, `fo1_modal_bridge` (or
    its error), and `semantics_eval` on one seeded system of at most 4
    states per formula."""
    rng, lts_rng = random.Random(seed), random.Random(seed)
    bad = []
    for f in reference_corpus(n, seed):
        lts = gen.rand_lts(lts_rng, ("p", "q"), max_states=4)
        if mc.semantics_eval(f, lts) != _open_eval_ref(f, lts, {}):
            bad.append(("semantics_eval", f, lts))
        if mc.negate(f) != _negate_ref(f) or any(
                _or_error(mc.negate, g.body, {g.var}) != _or_error(_negate_ref, g.body, {g.var})
                for g, _ in mc.binders(f)):
            bad.append(("negate", f))
        if mc.simplify(f) != _simplify_ref(f):
            bad.append(("simplify", f))
        if _or_error(mc.fo1_modal_bridge, f) != _or_error(_fo1_modal_bridge_ref, f):
            bad.append(("fo1_modal_bridge", f))
        if mc.subformulas(f) != list(dict.fromkeys(_subformulas_ref(f))):
            bad.append(("subformulas", f))
        if mc.is_guarded(f) != (not any(_unguarded_occurs_ref(g.body, g.var) for g in
                                        _subformulas_ref(f) if isinstance(g, (mc.Mu, mc.Nu)))):
            bad.append(("is_guarded", f))
        for g in dict.fromkeys(_subformulas_ref(f)):
            ref = tuple((h.var, "mu" if isinstance(h, mc.Mu) else "nu",
                         _in_grammar_ref(h.body, frozenset({h.var}), type(h)),
                         _in_grammar_ref(h.body, frozenset({h.var}), type(h),
                                         GRAMMARS[isinstance(h, mc.Nu) + 2][1]))
                        for h in dict.fromkeys(_subformulas_ref(g)) if isinstance(h, (mc.Mu, mc.Nu)))
            if mc.classify(g).binders != ref:
                bad.append(("classify", g))
            letters = sorted(mc.free_letters(g))
            for q in itertools.chain.from_iterable(
                    itertools.combinations(letters, k) for k in range(min(4, len(letters)) + 1)):
                q = frozenset(q)
                if mc.in_continuous(g, q) != _in_grammar_ref(g, q, mc.Mu, o.in_continuous_fragment):
                    bad.append(("in_continuous", g, q))
                for k, (binder, fragment) in enumerate(GRAMMARS):
                    if _leaving(g)[k].isdisjoint(q) != _in_grammar_ref(g, q, binder, fragment):
                        bad.append(("grammar %d" % k, g, q))
            for p in {h.name for h in _subformulas_ref(g) if isinstance(h, (mc.Prop, mc.NegProp))}:
                if (p in guard._unguarded(g)[0]) != _unguarded_occurs_ref(g, p):
                    bad.append(("unguarded", g, p))
                if (p in guard._unguarded(g)[1]) != _has_unguarded_under_binder_ref(g, p):
                    bad.append(("unguarded under a binder", g, p))
        for h in (f, _mutant(f, rng)):
            if _wf_message(mc.check_wf, h) != _wf_message(_check_wf_ref, h):
                bad.append(("check_wf", h))
    return bad


def test_stored_grammar_guard_and_wf_checks_match_the_recursive_walkers():
    start = time.perf_counter()
    assert reference_disagreements(2000) == []
    assert time.perf_counter() - start < 3
    # the mutants reach every message of check_wf
    messages = {_wf_message(mc.check_wf, _mutant(f, random.Random(i)))
                for i, f in enumerate(reference_corpus(300))}
    assert {m and m.split(":")[0].split(" '")[0] for m in messages} == {
        None, "bound letters not pairwise distinct", "letters both free and bound",
        "bound letter", "modality formula must be positive",
        "modality mentions undeclared argument predicates", "modality formula must be a sentence"}


def _from_depth(frames, fn):
    return fn() if frames == 0 else _from_depth(frames - 1, fn)


def _deep_formulas(n, leaf):
    """Formulas of nesting depth n over the predicate or letter leaf: W in
    W's second component (its expansion and dual hold every other one-step
    connective and quantifier), least binders behind diamonds alternating
    with greatest ones behind boxes around an unguarded one (binder letters
    distinct), and binary modalities."""
    a = o.Pred("a", "x")
    w = functools.reduce(lambda f, i: o.W("x", a, f), range(n), o.Pred(leaf, "x"))
    p, alpha = mc.Prop(leaf), o.Exists("x", o.Or((o.Pred("a1", "x"), o.Pred("a2", "x"))))

    def fixpoint(f, i):
        z = mc.Prop("z%d" % i)
        return mc.Mu(z.name, mc.MOr((f, mc.dia(z)))) if i % 2 else mc.Nu(z.name, mc.MAnd((f, mc.box(z))))

    binders = functools.reduce(fixpoint, range(n // 2), mc.Nu("y", mc.MAnd((p, mc.Prop("y")))))
    return w, binders, functools.reduce(lambda f, i: mc.Modal(alpha, (p, f)), range(n), mc.Prop("q"))


@pytest.mark.parametrize("frames", [0, 300])
def test_stored_values_and_fragment_tests_answer_at_depth_ten_thousand(frames):
    # a leaf of its own for each run, so that no node holds a value yet
    n, leaf = 10 ** 4, "b%d" % frames
    w, binders, modal = _deep_formulas(n, leaf)

    def onestep(f):
        e, d = o.expand_sugar(f), o.dual(f)
        return (o.dual(d) is e, o.rank(f), o.rank(e), o.is_positive(d),
                o.in_continuous_fragment(f, {"a"}), o.in_cocontinuous_fragment(f, {"a"}),
                o.in_continuous_fragment(f, {"c"}), o.in_cocontinuous_fragment(f, {"c"}))

    assert _from_depth(frames, lambda: onestep(w)) == (True, n, n, True, False, False, True, True)

    def mu(f):
        rep = mc.classify(f)
        return (mc.check_wf(f), rep.plain_modal, rep.alternation_free, rep.continuous_calculus,
                rep.guarded, mc.is_guarded(f), len(rep.binders), mc.in_continuous(f, {leaf}),
                mc.simplify(f) is f)

    assert _from_depth(frames, lambda: mu(binders)) == (None, True, True, True, False, False,
                                                        n // 2 + 1, False, True)
    assert _from_depth(frames, lambda: mu(modal)) == (None, False, True, True, True, True, 0, True,
                                                      True)
    assert sys.getrecursionlimit() == 1000


def test_fixpoint_walkers_answer_a_chain_of_ten_thousand_modalities():
    # evaluation, negation, renaming, guarding, the bridge and the translation
    # run on explicit stacks, so the chain answers from deep in a caller's stack
    n = 10 ** 4
    f = functools.reduce(lambda g, _: mc.dia(g), range(n), mc.Prop("p"))
    boxes = functools.reduce(lambda g, _: mc.box(g), range(n), mc.NegProp("p"))
    points = ["v"] + ["w%d" % (1 + i % 2) for i in range(n)]  # v, w1, w2, w1, ...
    want = mso.PredApp("p", points[n])
    for i in reversed(range(n)):
        want = mso.ExistsVar(points[i + 1], mso.conj((mso.RelApp(points[i], points[i + 1]), want)))
    loop = L.make_lts(["p"], 2, [(0, 0), (1, 1)], {0: ["p"]})

    def walk():
        return [mc.semantics_eval(f, loop) == {0}, mc.open_eval(boxes, loop, {}) == {1},
                mc.negate(f) is boxes, mc.negate(boxes) is f, mc.refresh(f) is f,
                mc.substitute(f, {"p": mc.Prop("q")}) is mc.refresh(f, (), {"p": mc.Prop("q")}),
                mc.guard_transform(f) is f, mc.fo1_modal_bridge(f) is f,
                mso.mu_to_mso(f, "wmso") is want]

    assert _from_depth(300, walk) == [True] * 9
    assert sys.getrecursionlimit() == 1000


def test_check_wf_accepts_a_shared_binder_node_and_refuses_two_binders_of_one_letter():
    # a binder node that occurs many times names its letter once, at its deepest
    b = mc.parse("mu x. dia x")
    for f, bound in ((mc.MAnd((b, mc.box(b))), [("x", 0)]),
                     (mc.MOr((mc.Nu("y", mc.MAnd((b, mc.Prop("y")))), b)), [("y", 0), ("x", 1)])):
        assert [(g.var, d) for g, d in mc.binders(f)] == bound
        assert _wf_message(mc.check_wf, f) is None is _wf_message(_check_wf_ref, f)
    # two distinct binder nodes of one letter are refused, as before
    for f in (mc.MAnd((b, mc.box(mc.parse("mu x. box x")))),
              mc.Mu("x", mc.Nu("x", mc.dia(mc.Prop("x"))))):
        msg = _wf_message(mc.check_wf, f)
        assert msg == "bound letters not pairwise distinct: ['x', 'x']"
        assert msg == _wf_message(_check_wf_ref, f)


def test_binders_lists_each_binder_with_its_depth():
    f = mc.parse("(mu x. dia x & nu y. box (y & mu z. dia z)) | nu w. box w")
    assert [(g.var, d) for g, d in mc.binders(f)] == [("x", 0), ("y", 1), ("z", 2), ("w", 0)]
    assert mc.binder_priorities(f) == {"x": 5, "y": 2, "z": 1, "w": 4}


def _dag(levels, leaf=mc.Prop("p")):
    """`levels` binary modalities, each over the one below in both arguments:
    about 2^levels occurrences of levels + 1 distinct nodes."""
    alpha = o.And((o.Exists("x", o.Pred("a1", "x")), o.Exists("y", o.Pred("a2", "y"))))
    return functools.reduce(lambda g, _: mc.Modal(alpha, (g, g)), range(levels), leaf)


def test_walkers_enter_each_shared_subformula_once():
    f, image = _dag(60), mc.dia(mc.Prop("q"))
    start = time.perf_counter()
    assert len(mc.subformulas(f)) == 61
    assert mc.check_wf(f) is None and mc.binders(f) == []
    rep = mc.classify(f)
    assert rep.alternation_free and rep.continuous_calculus and rep.guarded and not rep.binders
    # booleans only, so that a failure never prints a formula of 2^60 occurrences
    assert [mc.refresh(f) is f, mc.guard_transform(f) is f,
            mc.substitute(f, {"p": image}) is _dag(60, image)] == [True, True, True]
    bridged = mc.fo1_modal_bridge(f)
    # a 3-cycle with p at state 1: a path of 60 steps from s ends at p iff s is 1
    cycle = L.make_lts(["p"], 3, [(0, 1), (1, 2), (2, 0)], {1: ["p"]})
    assert [mc.negate(mc.negate(f)) is f, mc.simplify(f) is f, mc.is_plain_modal(bridged),
            mc.semantics_eval(f, cycle), mc.semantics_eval(bridged, cycle)] == [
        True, True, True, frozenset({1}), frozenset({1})]
    assert time.perf_counter() - start < 1
    # an image with a binder is one binder node at each of its occurrences
    h = mc.dia(mc.Prop("p"))
    out = mc.substitute(mc.MAnd((h, mc.box(h))), {"p": mc.Nu("y", mc.box(mc.Prop("y")))})
    assert mc.pretty(out) == "dia (nu x1. box x1) & box dia (nu x1. box x1)"
    assert [g.var for g, _ in mc.binders(out)] == ["x1"]
    mc.check_wf(out)


def shared_binder_formulas(n, modes, seed=30):
    """n formulas, each with one closed binder node Z of a random formula of
    the next mode at two places, so at two depths: at the top, and under one
    or two new binders of y and u, each over a diamond of its letter when
    least and a box when greatest, so that this context is in the
    continuous calculus."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        g = gen.rand_mu(rng, ("p", "q"), depth=rng.randint(2, 4), mode=modes[len(out) % len(modes)],
                        modalities=rng.choice(["plain", o.FO1, o.FOE1]))
        zs = [h for h in mc.subformulas(g) if isinstance(h, (mc.Mu, mc.Nu)) and h.facts <= {"p", "q"}]
        if not zs:
            continue
        z = ctx = rng.choice(zs)
        for letter in ("y", "u")[:rng.randint(1, 2)]:
            binder = rng.choice([mc.Mu, mc.Nu])
            loop = (mc.dia if binder is mc.Mu else mc.box)(mc.Prop(letter))
            ctx = binder(letter, rng.choice([mc.mor, mc.mand])([loop, rng.choice([mc.dia, mc.box])(ctx)]))
        f = rng.choice([mc.mor, mc.mand])([z, ctx])
        assert dict(mc.binders(f))[z] > 0  # met at depth 0 first, kept at its deepest
        out.append(f)
    return out


def test_a_binder_node_shared_at_two_depths_evaluates_as_the_tree():
    # the recursive reference reads the formula as a tree; the game, the
    # automaton and the renamed formula read one binder node at two depths
    rng, answers = random.Random(31), []
    for f in shared_binder_formulas(180, ("any", "af", "cont")):
        aut = au.from_formula(f, L.PropSet(("p", "q")))
        g = mc.refresh(f)
        for _ in range(3):
            lts = gen.rand_lts(rng, ("p", "q"), max_states=4)
            want = lts.init in _open_eval_ref(f, lts, {})
            assert [lts.init in mc.semantics_eval(f, lts), mc.game_value(f, lts), au.accepts(aut, lts),
                    lts.init in mc.semantics_eval(g, lts)] == [want] * 4, mc.pretty(f)
            answers.append(want)
    assert len(answers) == 540 and 0 < sum(answers) < 540


def test_mu_to_mso_reads_a_shared_binder_node_as_the_tree():
    rng, checked = random.Random(32), 0
    for f in shared_binder_formulas(60, ("af", "cont"), seed=33):
        rep = mc.classify(f)
        for logic, admitted in (("wmso", rep.continuous_calculus), ("nmso", rep.alternation_free)):
            if not admitted:
                continue
            g = mso.mu_to_mso(f, logic)
            for _ in range(2):
                tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
                assert mso.holds_at_init(g, tree) == (tree.init in _open_eval_ref(f, tree, {})), mc.pretty(f)
                checked += 1
    assert checked == 236


def test_each_modality_is_evaluated_once_per_value_of_its_free_letters(monkeypatch):
    # the inner nu mentions no letter of the outer mu: it is evaluated once,
    # not once per outer round (27 modality evaluations, 16 of them repeats)
    calls = []
    eval_capped = o.eval_capped
    monkeypatch.setattr(o, "eval_capped", lambda alpha, val, succ: calls.append(
        (alpha, tuple(sorted(val.items())))) or eval_capped(alpha, val, succ))
    f = mc.parse("mu x. (q & (nu y. q & box y)) | dia x")
    chain = L.make_lts(["q"], 8, [(s, s + 1) for s in range(7)], {7: ["q"]})
    assert mc.semantics_eval(f, chain) == frozenset(range(8))
    assert len(calls) == len(set(calls)) == 11
    del calls[:]
    assert _open_eval_ref(f, chain, {}) == frozenset(range(8)) and len(calls) == 27


def test_fixpoint_rounds_keep_one_value_per_subformula():
    # 200 rounds on a 200-state chain: keeping every approximant of x and of
    # `dia x` took 2.3 MB at this size (and grows as n^2); one value per
    # subformula takes about 0.1 MB
    n = 200
    chain = L.make_lts(["q"], n, [(s, s + 1) for s in range(n - 1)], {n - 1: ["q"]})
    f = mc.parse("mu x. q | dia x")
    tracemalloc.start()
    try:
        assert mc.semantics_eval(f, chain) == frozenset(range(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
