"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every criterion demands zero violations at the stated instance
counts; sizes are pinned here, not calibrated elsewhere.
"""
import functools
import random
import time

from muaut import automata as au
from muaut import fixpoint as fx
from muaut import gen
from muaut import lts as L
from muaut import mso
from muaut import mucalc as mc
from muaut import onestep as o


def _report(name, violations, instances, t0):
    status = "PASS" if violations == 0 else "FAIL"
    print("[%s] %s: %d violations over %d instances (%.1fs)"
          % (status, name, violations, instances, time.time() - t0))
    assert violations == 0, name


def test_criterion_1_adequacy():
    t0 = time.time()
    rng = random.Random(101)
    bad = 0
    for _ in range(200):
        f = gen.rand_mu(rng, ("p", "q"), depth=rng.randint(1, 3),
                        mode=rng.choice(["any", "af", "cont"]))
        lts = gen.rand_lts(rng, ("p", "q"), max_states=6)
        sem = lts.init in mc.semantics_eval(f, lts)
        game = mc.game_value(f, lts)
        acc = au.accepts(au.from_formula(f, lts.props), lts)
        if not (sem == game == acc):
            bad += 1
    _report("1 adequacy (semantics = game = automaton)", bad, 200, t0)


def test_criterion_2_complementation():
    t0 = time.time()
    rng = random.Random(102)
    bad = 0
    for _ in range(100):
        aut = gen.rand_automaton(rng, ("p",), rng.randint(1, 3),
                                 dialect=rng.choice([o.FOE1, o.FOE1INF]), want="any")
        lts = gen.rand_lts(rng, ("p",), max_states=6)
        if au.accepts(aut, lts) == au.accepts(au.complement(aut), lts):
            bad += 1
    _report("2 complementation xor", bad, 100, t0)


def test_criterion_3_dual_law_exhaustive():
    t0 = time.time()
    models = o.all_models(("a", "b"), 3)  # includes the empty model
    bad = 0
    count = 0
    for f in gen.enumerate_sentences(("a", "b"), max_rank=2, dialect=o.FOE1INF):
        d = o.dual(f.ast)
        count += 1
        for m in models:
            if o.eval_finite(f.ast, m) == o.eval_finite(d, m.complemented(("a", "b"))):
                bad += 1
                break
    _report("3 dual law + empty domain (exhaustive rank<=2)", bad, count, t0)


def test_criterion_4_normal_forms():
    t0 = time.time()
    rng = random.Random(104)
    bad = 0
    for i in range(100):
        dialect = (o.FO1, o.FOE1, o.FOE1INF)[i % 3]
        f = gen.rand_onestep(rng, ("a", "b"), 2, dialect, positive=True)
        bf = o.to_basic_form(f)
        if not o.equivalent(f, o.expand(bf), o.rank(f.ast) + 1):
            bad += 1
            continue
        if dialect != o.FOE1:
            b = frozenset({"a"})
            try:
                cbf = o.to_continuous_basic_form(f, b)
            except o.NotContinuousError:
                continue
            for d in cbf.disjuncts:
                tail = d.inf_cover if dialect == o.FOE1INF else d.cover
                if any(s & b for s in tail or ()):
                    bad += 1
    _report("4 normal forms (equivalence + continuous shape)", bad, 100, t0)


def test_criterion_5_simulation():
    t0 = time.time()
    rng = random.Random(105)
    bad = 0
    for _ in range(30):
        aut = gen.rand_automaton(rng, ("p",), rng.choice([1, 2, 2, 3]),
                                 dialect=o.FOE1INF, want="cw")
        sim = au.finitary_construct(aut)
        if not au.classify_automaton(sim).continuous_weak:
            bad += 1
        tree = gen.rand_tree(rng, ("p",), depth=3, max_branch=2)
        if au.accepts(aut, tree) != au.accepts(sim, tree):
            bad += 1
    for _ in range(30):
        aut = gen.rand_automaton(rng, ("p",), rng.choice([1, 2, 2, 3]),
                                 dialect=o.FOE1, want="weak")
        sim = au.noetherian_construct(aut)
        if not au.classify_automaton(sim).weak:
            bad += 1
        tree = gen.rand_tree(rng, ("p",), depth=3, max_branch=2)
        if au.accepts(aut, tree) != au.accepts(sim, tree):
            bad += 1
    _report("5 simulation (A = A^F and A = A^N, classified)", bad, 60, t0)


def test_criterion_6_projection():
    t0 = time.time()
    rng = random.Random(106)
    bad = 0
    done = 0
    while done < 20:
        kind = "finitary" if done % 2 == 0 else "noetherian"
        if kind == "finitary":
            aut = gen.rand_automaton(rng, ("p", "r"), rng.randint(1, 2),
                                     dialect=o.FOE1INF, want="cw")
            sim = au.finitary_construct(aut)
        else:
            aut = gen.rand_automaton(rng, ("p", "r"), rng.randint(1, 2),
                                     dialect=o.FOE1, want="weak")
            sim = au.noetherian_construct(aut)
        tree = gen.rand_tree(rng, ("p",), depth=2, max_branch=2)
        if tree.n > 5:
            continue
        done += 1
        lhs = au.accepts(au.project(sim, "r"), tree)
        rhs = any(
            au.accepts(aut, L.p_variant(tree, "r", [s for s in range(tree.n) if mask >> s & 1]))
            for mask in range(1 << tree.n)
        )
        if lhs != rhs:
            bad += 1
    _report("6 projection (brute force over all variants, |T|<=5)", bad, done, t0)


def test_criterion_7_translation_fragments():
    t0 = time.time()
    rng = random.Random(107)
    bad = 0
    n = 0
    for _ in range(40):
        f = gen.rand_mu(rng, ("p",), depth=3, mode="af")
        if not au.classify_automaton(au.from_formula(f, L.PropSet(("p",)))).weak:
            bad += 1
        g = gen.rand_mu(rng, ("p",), depth=3, mode="cont")
        if not au.classify_automaton(au.from_formula(g, L.PropSet(("p",)))).continuous_weak:
            bad += 1
        n += 2
    for _ in range(20):
        aut = gen.rand_automaton(rng, ("p",), rng.randint(1, 3),
                                 dialect=rng.choice(list(o.DIALECTS)), want="weak")
        if not mc.classify(au.to_formula(aut)).alternation_free:
            bad += 1
        aut2 = gen.rand_automaton(rng, ("p",), rng.randint(1, 3),
                                  dialect=rng.choice(list(o.DIALECTS)), want="cw")
        if not mc.classify(au.to_formula(aut2)).continuous_calculus:
            bad += 1
        n += 2
    _report("7 translation fragment guarantees (both directions)", bad, n, t0)


@functools.lru_cache(maxsize=1)
def _construct_formulas():
    """(formula, fragment, logic) for 60 finitary constructs of random
    continuous-weak automata and 60 noetherian constructs of weak ones."""
    rng = random.Random(105)
    out = []
    for dialect, want, construct, fragment, logic in (
            (o.FOE1INF, "cw", au.finitary_construct, "continuous_calculus", "wmso"),
            (o.FOE1, "weak", au.noetherian_construct, "alternation_free", "nmso")):
        for _ in range(60):
            aut = gen.rand_automaton(rng, ("p",), rng.choice([1, 2]), dialect=dialect, want=want)
            out.append((au.to_formula(construct(aut)), fragment, logic))
    return tuple(out)


def test_criterion_7_on_construct_outputs():
    # finitary constructs are continuous-weak and noetherian ones weak, so
    # their formulas, printed and read back, land in the continuous and
    # alternation-free calculi
    t0 = time.time()
    bad = sum(mc.parse(mc.pretty(f)) is not f or not getattr(mc.classify(f), fragment)
              for f, fragment, _ in _construct_formulas())
    _report("7 translation fragment guarantees on construct outputs", bad, 120, t0)


def _distinct_nodes(roots):
    seen = set()
    todo = list(roots)
    while todo:
        g = todo.pop()
        if g not in seen:
            seen.add(g)
            todo.extend(g.children())
    return seen


def test_criterion_8_on_construct_outputs():
    # each subformula is translated once per individual variable, so the
    # translation's distinct nodes grow linearly with the distinct
    # subformulas and the expanded sentences of the distinct modalities;
    # and it agrees with the semantics on trees
    t0 = time.time()
    rng = random.Random(108)
    bad = 0
    for f, _, logic in _construct_formulas():
        star = mso.mu_to_mso(f, logic)
        subs = _distinct_nodes([f])
        size = len(subs) + sum(len(_distinct_nodes([o.expand_sugar(g.alpha)]))
                               for g in subs if isinstance(g, mc.Modal))
        if len(_distinct_nodes([star])) > 16 * size:
            bad += 1
        for _ in range(2):
            tree = gen.rand_tree(rng, ("p",), depth=1)
            if mso.holds_at_init(star, tree) != (tree.init in mc.semantics_eval(f, tree)):
                bad += 1
    _report("8 translation size and agreement on construct outputs", bad, 120, t0)


def test_criterion_8_mu_to_mso():
    t0 = time.time()
    rng = random.Random(108)
    bad = 0
    for i in range(100):
        logic = "wmso" if i % 2 == 0 else "nmso"
        depth = rng.randint(1, 2)
        f = gen.rand_mu(rng, ("p", "q"), depth=depth,
                        mode="cont" if logic == "wmso" else "af")
        lts = gen.rand_lts(rng, ("p", "q"), max_states=5 if depth == 1 else 4)
        star = mso.mu_to_mso(f, logic)
        if mso.holds_at_init(star, lts) != (lts.init in mc.semantics_eval(f, lts)):
            bad += 1
    _report("8 mu-calculus to second-order translation", bad, 100, t0)


def test_criterion_9_fixpoint_theory():
    t0 = time.time()
    rng = random.Random(109)
    bad = 0
    for _ in range(30):
        lts = gen.rand_lts(rng, ("p", "q"), max_states=5)
        inner = gen.rand_mu(rng, ("p", "q"), depth=1, mode="any")
        body = mc.MOr((inner, mc.dia(mc.Prop("r"))))
        F = fx.formula_functional(body, "r", lts)
        fix, stages = fx.lfp(F)
        xs = frozenset(s for s in F.carrier if rng.random() < 0.5)
        if not fx.lfp(fx.restrict(F, xs))[0] <= fix:
            bad += 1
        if fx.unfolding_region(F) != fix:
            bad += 1
        strat = fx.descending_strategy(F)
        if not fx.is_descending(F, strat):
            bad += 1
        for r in sorted(fix)[:2]:
            tree = fx.strategy_tree(F, strat, r)
            if r not in fx.lfp(fx.restrict(F, tree.nodes))[0]:
                bad += 1
        for s in sorted(F.carrier)[:3]:
            w = fx.finite_witness(F, s)
            if (w is None) != (s not in fix):
                bad += 1
            if w is not None and s not in fx.lfp(fx.restrict(F, w))[0]:
                bad += 1
            nw = fx.brute_force_witness(F, s, noetherian_only=True)
            if (nw is None) != (s not in fix):
                bad += 1
    _report("9 fixpoint theory (restriction, game, tree, witnesses)", bad, 30, t0)


def test_criterion_10_diamond():
    t0 = time.time()
    rng = random.Random(110)
    bad = 0
    models = o.all_models(("a", "b"), 3)
    count = 0
    corpus = [f for f in gen.enumerate_sentences(("a", "b"), 1, o.FOE1INF)
              if o.is_positive(f.ast)]
    corpus += [gen.rand_onestep(rng, ("a", "b"), 2, d, positive=True)
               for d in (o.FOE1, o.FOE1INF) for _ in range(40)]
    for f in corpus:
        if f.dialect == o.FO1:
            continue
        dia = o.diamond_translate(o.to_basic_form(f))
        count += 1
        for m in models:
            wm = o.weighted(("a", "b"), {m.element_type(d): o.OMEGA for d in range(m.size)})
            if o.eval_finite(dia.ast, m) != o.eval_weighted(f.ast, wm):
                bad += 1
                break
    for _ in range(50):
        g = gen.rand_mu(rng, ("p",), depth=2, mode="any")
        base = au.from_formula(g, L.PropSet(("p",)))
        lifted = au.ParityAutomaton(o.FOE1, base.props, base.n, base.init,
                                    base.omega, base.delta) if base.dialect == o.FO1 else base
        dia_aut = au.diamond_automaton(lifted)
        lts = gen.rand_lts(rng, ("p",), max_states=5)
        if au.accepts(lifted, lts) != au.accepts(dia_aut, lts):
            bad += 1
    _report("10 diamond translation (one-step oracle + automata)", bad, count + 50, t0)


def test_criterion_11_mso_compiler():
    t0 = time.time()
    rng = random.Random(111)
    ps = L.PropSet(("p", "q"))
    combos = [
        "down p", "p sub q", "Rel(p,q)",
        "~down p", "~Rel(p,q)",
        "down p | p sub q", "p sub q | Rel(q,p)",
        "ex r. down r", "ex r. (r sub p)",
        "ex r. (down r | r sub q)", "~ex r. Rel(r,p)", "ex r. ~(r sub q)",
        # connectives under the quantifier: the union's 5 states are trimmed
        # to 4, and the construct builds 4 of their 15 macro-states
        "ex r. Rel(r,p) | down r", "~ex r. ~(Rel(r,p) | ~down r)", "ex r. (r sub p) | Rel(p,r)",
    ]
    bad = 0
    n = 0
    for text in combos:
        for logic in ("wmso", "nmso"):
            f = mso.parse1(text, logic)
            aut = mso.compile_mso(f, logic, ps)
            for _ in range(30):
                tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
                n += 1
                if au.accepts(aut, tree) != mso.eval_mso(f, tree):
                    bad += 1
    _report("11 second-order compiler vs brute-force evaluation", bad, n, t0)
