import collections
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from muaut import automata as au
from muaut import gen
from muaut import mucalc as mc
from muaut import onestep as o
from muaut import syntax
from muaut.mucalc import guard
from muaut.mucalc.classify import _leaving
from muaut.onestep import ast as onestep_ast
from muaut.onestep import normalform as nf
from muaut.onestep.models import _min_valuations_range
from muaut.syntax import MAX_NESTING

from construct_reference import full_finitary, full_noetherian

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def m(size, **val):
    return o.OneStepModel(size, {k: frozenset(v) for k, v in val.items()})


def test_eval_finite_basics():
    assert o.eval_finite(o.parse("E x. a(x)").ast, m(1, a=[0]))
    assert not o.eval_finite(o.parse("E x. a(x)").ast, m(1))
    assert o.eval_finite(o.parse("A x. a(x)").ast, m(0))
    assert not o.eval_finite(o.parse("E x. a(x)").ast, m(0))
    pigeon = o.parse("E x. E y. (x!=y & a(x) & a(y))").ast
    assert not o.eval_finite(pigeon, m(1, a=[0]))
    assert o.eval_finite(pigeon, m(2, a=[0, 1]))


def test_empty_domain_clauses():
    empty = m(0)
    for q, want in [("E", False), ("A", True), ("Einf", False), ("Ainf", True)]:
        f = o.parse("%s x. a(x)" % q, "FOE1INF").ast
        assert o.eval_finite(f, empty) == want
    both = o.parse("(A x. a(x)) & (E y. a(y))", "FOE1INF").ast
    assert not o.eval_finite(both, empty)
    for text, want in [("A x. E y. a(y)", True), ("E x. A y. a(y)", False),
                       ("Ainf x. E y. a(y)", True), ("Einf x. A y. a(y)", False),
                       ("W x.(a(x), b(x))", True), ("true", True), ("false", False),
                       ("(A x. a(x)) | E x. b(x)", True)]:
        f = o.parse(text, "FOE1INF").ast
        assert o.eval_finite(f, empty) == want, text
        assert o.eval_capped(f, {}, [()]) == [want], text


def _exact(mm: o.OneStepModel) -> o.WeightedOneStepModel:
    """The weighted model counting each type of mm exactly."""
    types = [mm.element_type(d) for d in range(mm.size)]
    return o.weighted(("a", "b"), {tp: types.count(tp) for tp in set(types)})


def test_shadowed_binders_take_their_own_slot():
    for text in ["E x. (a(x) & E x. b(x))", "E x. ((E x. b(x)) & a(x))",
                 "E x. ((A x. b(x)) | (a(x) & E y. (y!=x & E x. (x=y & !a(x)))))",
                 "A x. (E x. a(x) | b(x))"]:
        f = o.parse(text).ast
        for mm in o.all_models(("a", "b"), 3):
            assert o.eval_finite(f, mm) == o.eval_weighted(f, _exact(mm)), (text, mm)
    assert o.eval_finite(o.parse("E x. ((E x. b(x)) & a(x))").ast, m(2, a=[0], b=[1]))
    assert not o.eval_finite(o.parse("E x. ((E x. a(x)) & b(x))").ast, m(2, a=[0]))


@pytest.mark.parametrize("text", [
    "E x. " * MAX_NESTING + "a(x)",
    "E x. (a(x) & " * (MAX_NESTING // 2) + "a(x)" + ")" * (MAX_NESTING // 2),
])
def test_sentence_nested_to_the_limit_evaluates(text):
    f = o.parse(text).ast
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert o.eval_finite(f, m(1, a=[0]))
        assert o.eval_finite(f, m(2, a=[1]))
        assert not o.eval_finite(f, m(1))
        assert not o.eval_finite(f, m(0))
    finally:
        sys.setrecursionlimit(limit)


def test_weighted_infinity():
    einf = o.parse("Einf x. a(x)").ast
    assert o.eval_weighted(einf, o.weighted(("a",), {frozenset({"a"}): o.OMEGA}))
    assert not o.eval_weighted(einf, o.weighted(("a",), {frozenset({"a"}): 5}))


def test_weighted_agrees_with_expansion():
    rng = random.Random(4)
    models = o.all_weighted_models(("a", "b"), 3, with_omega=False)
    for _ in range(60):
        f = gen.rand_onestep(rng, ("a", "b"), 2, o.FOE1, positive=False)
        for wm in models[:150]:
            assert o.eval_weighted(f.ast, wm) == o.eval_finite(f.ast, wm.expand())


def test_weighted_agrees_with_expansion_at_depth_3():
    # at depth 3 two variables can pin one element while a third still
    # needs another copy of its type
    rng = random.Random(5)
    corpus = [(("a",), f) for f in gen.enumerate_sentences(("a",), 3, o.FOE1)]
    corpus += [(("a", "b"), gen.rand_onestep(rng, ("a", "b"), 3, d, positive=False))
               for d in (o.FOE1, o.FOE1INF) for _ in range(30)]
    for preds in dict.fromkeys(preds for preds, _ in corpus):
        models = o.all_weighted_models(preds, 2, with_omega=False)
        types = nf._all_types(preds)
        counts = np.array([[wm.count(tp) for wm in models] for tp in types])
        for f in (f for p, f in corpus if p == preds):
            got = o.eval_counts(o.expand_sugar(f.ast), types, counts)
            for j, wm in enumerate(models):
                want = o.eval_finite(f.ast, wm.expand())
                assert o.eval_weighted(f.ast, wm) == want == got[j], (o.pretty(f.ast), wm)


def test_weighted_counts_distinct_pinned_elements():
    f = o.parse("E x. E y. x = y & a(x) & (E z. z != x & a(z))", "FOE1", ("a",))
    two = o.weighted(("a",), {frozenset({"a"}): 2})
    assert o.eval_weighted(f.ast, two) and o.eval_finite(f.ast, two.expand())
    assert o.equivalent(f, o.parse("E x. E y. x != y & a(x) & a(y)", "FOE1", ("a",)), 4)
    g = o.parse("E v1. E v2. A v3. v3=v2", "FOE1")
    bf = o.expand(o.to_basic_form(g))
    for mm in o.all_models((), 4):
        assert o.eval_finite(bf.ast, mm) == o.eval_finite(g.ast, mm) == (mm.size == 1)


def _count_oracle_corpus():
    """Depth-2 sentences, negated predicates included: the enumerated
    corpora of all three dialects and 200 random ones."""
    out = [f for d in sorted(o.DIALECTS) for f in gen.enumerate_sentences(("a", "b"), 2, d)]
    rng = random.Random(15)
    dialects = sorted(o.DIALECTS)
    return out + [gen.rand_onestep(rng, ("a", "b"), 2, dialects[i % 3], positive=False)
                  for i in range(200)]


def test_eval_counts_matches_weighted_oracle_on_every_profile():
    for f in _count_oracle_corpus():
        ast = o.expand_sugar(f.ast)
        occ = tuple(sorted(o.predicates(ast)))
        space = nf._space_for(f.dialect, occ, max(o.rank(ast), 1))
        got = o.eval_counts(ast, space.types, *nf._grid(len(space.types), space.reps))
        for j, profile in enumerate(itertools.product(space.reps, repeat=len(space.types))):
            counts = {tp: c for tp, c in zip(space.types, profile) if c}
            assert got[j] == o.models.eval_weighted_raw(ast, counts), (o.pretty(f.ast), counts)


def test_exact_count_pass_matches_every_finite_model():
    types = nf._all_types(("a", "b"))
    exact = nf._exact_counts(len(types), 3)
    column = {tuple(exact[:, j].astype(int)): j for j in range(exact.shape[1])}
    assert len(column) == exact.shape[1] == 35  # multisets of at most 3 of 4 types
    models = [(mm, tuple(sum(mm.element_type(d) == tp for d in range(mm.size)) for tp in types))
              for mm in o.all_models(("a", "b"), 3)]
    for f in _count_oracle_corpus():
        got = o.eval_counts(o.expand_sugar(f.ast), types, exact)
        for mm, counts in models:
            assert got[column[counts]] == o.eval_finite(f.ast, mm), (o.pretty(f.ast), counts)


def test_capped_counts_match_every_finite_model():
    models = o.all_models(("a", "b"), 3)
    for f in _count_oracle_corpus():
        for mm in models:
            want = o.eval_finite(f.ast, mm)
            assert o.eval_capped(f.ast, mm.valuation, [range(mm.size)]) == [want], (o.pretty(f.ast), mm)


def test_capped_counts_match_models_past_the_cap():
    rng = random.Random(31)
    for i in range(60):
        f = gen.rand_onestep(rng, ("a", "b"), 3, sorted(o.DIALECTS)[i % 3], positive=False)
        for _ in range(4):
            mm = o.model_of_types(frozenset(p for p in ("a", "b") if rng.random() < 0.5)
                                  for _ in range(rng.randint(4, 9)))
            want = o.eval_finite(f.ast, mm)
            assert o.eval_capped(f.ast, mm.valuation, [range(mm.size)]) == [want], (o.pretty(f.ast), mm)


def test_eval_counts_expands_w_sugar():
    texts = ["W x.(a(x), b(x))", "W x.(a(x) & b(x), !a(x))", "E y. W x.(x=y | a(x), b(x))",
             "A y. (a(y) | W x.(x!=y & b(x), a(x) | b(x)))"]
    models = o.all_weighted_models(("a", "b"), 2, with_omega=True)
    types = [tp for tp, _ in models[0].counts]
    counts = np.array([[wm.count(tp) for wm in models] for tp in types], dtype=float)
    for text in texts:
        f = o.parse(text, "FOE1INF").ast
        got = o.eval_counts(f, types, counts)
        assert list(got) == [o.eval_weighted(f, wm) for wm in models], text


def test_dual_table_and_involution():
    f = o.parse("Einf x. a(x)").ast
    assert o.dual(f) == o.parse("Ainf x. a(x)").ast
    rng = random.Random(5)
    for _ in range(50):
        g = gen.rand_onestep(rng, ("a", "b"), 2, o.FOE1INF, positive=False).ast
        if any(isinstance(s, o.W) for s in _walk(g)):
            continue
        assert o.dual(o.dual(g)) == g


def _walk(f):
    yield f
    match f:
        case o.And(args) | o.Or(args):
            for a in args:
                yield from _walk(a)
        case o.Exists(_, b) | o.Forall(_, b) | o.ExistsInf(_, b) | o.ForallInf(_, b):
            yield from _walk(b)
        case o.W(_, a, b):
            yield from _walk(a)
            yield from _walk(b)


def test_dual_law_on_models():
    rng = random.Random(6)
    models = o.all_models(("a", "b"), 3)
    for _ in range(60):
        f = gen.rand_onestep(rng, ("a", "b"), 2, o.FOE1INF, positive=False).ast
        d = o.dual(f)
        for mm in models[:60]:
            assert o.eval_finite(f, mm) != o.eval_finite(d, mm.complemented(("a", "b")))


def test_fragment_check_examples():
    b = frozenset({"b"})
    assert o.in_continuous_fragment(o.parse("A x. c(x)").ast, b)  # vacuous
    assert not o.in_continuous_fragment(o.parse("A x. b(x)").ast, b)
    assert o.in_continuous_fragment(o.parse("W x.(b(x), c(x))", "FOE1INF").ast, b)
    assert o.in_continuous_fragment(o.parse("E x. b(x)").ast, b)
    assert not o.in_continuous_fragment(o.parse("Einf x. b(x)", "FOE1INF").ast, b)
    negated = o.parse_formula("E x. (!a(x) | E y. a(y))")
    assert not o.in_continuous_fragment(negated, frozenset({"a"}))
    assert not o.in_cocontinuous_fragment(negated, frozenset({"a"}))


def test_expanded_w_is_continuous_as_w_is():
    # the W-bearing entries of the 60 finitary criterion-5 constructs (gen
    # seed 105: each automaton, then its check tree): the grammar gives W,
    # its expansion, and the expansion as the dual of a dual one answer
    rng = random.Random(105)
    entries = {}
    for _ in range(60):
        aut = gen.rand_automaton(rng, ("p",), rng.choice([1, 2, 2, 3]),
                                 dialect=o.FOE1INF, want="cw")
        gen.rand_tree(rng, ("p",), depth=3, max_branch=2)
        for e in au.finitary_construct(aut).delta.values():
            if not e.facts.sugar_free:
                entries[e] = None
    pairs = [(f, frozenset(c)) for f in entries for k in range(len(o.predicates(f)) + 1)
             for c in itertools.combinations(sorted(o.predicates(f)), k)]
    assert (len(entries), len(pairs)) == (55, 596)
    answers = []
    for f, b in pairs:
        answer = o.in_continuous_fragment(f, b)
        assert o.in_continuous_fragment(o.expand_sugar(f), b) == answer, (o.pretty(f), b)
        assert o.in_cocontinuous_fragment(o.dual(f), b) == answer, (o.pretty(f), b)
        answers.append(answer)
    assert 0 < sum(answers) < len(answers)


def test_each_stored_value_is_derived_once_per_node(monkeypatch):
    # every function body decorated with `stored`, counted per node over
    # one-step sentences of every dialect with their fragment tests and
    # fixpoint formulas with their classification and guarded forms; the
    # counter holds each node, so no node dies and comes back without a value
    calls = collections.Counter()
    for st in (syntax.Node.facts, onestep_ast._expand, o.dual, _leaving, guard._unguarded):
        monkeypatch.setattr(st, "fn", lambda node, fn=st.fn, name=st.__name__:
                            calls.update([(name, node)]) or fn(node))
    rng = random.Random(41)
    a, b = o.Pred("a9", "x"), o.Pred("b9", "x")
    shared = o.And((a, o.Or((a, o.W("x", a, b)))))  # a fresh node, pushed twice
    for i in range(300):
        f = shared if i == 0 else gen.rand_onestep(rng, ("a", "b"), 3, o.DIALECTS[i % 3],
                                                    positive=i % 4 != 0).ast
        for g in (f, o.expand_sugar(f), o.dual(f), o.dual(o.dual(f))):
            for c in ({"a"}, {"b"}, {"a", "b"}):
                o.in_continuous_fragment(g, c), o.in_cocontinuous_fragment(g, c)
        f = gen.rand_mu(rng, ("p", "q"), depth=3, mode=("any", "af", "cont")[i % 3],
                        modalities=(("plain",) + o.DIALECTS)[i % 4])
        mc.classify(f), mc.in_continuous(f, {"p"}), mc.classify(mc.guard_transform(f))
    assert max(calls.values()) == 1
    assert all(name in node.__dict__ for name, node in calls)
    assert {name for name, _ in calls} == {"facts", "_expand", "dual", "_leaving", "_unguarded"}
    assert calls[("_expand", shared)] == calls[("dual", shared)] == 1


def test_monotonicity_of_positive_sentences():
    rng = random.Random(7)
    for _ in range(40):
        f = gen.rand_onestep(rng, ("a", "b"), 2, o.FOE1, positive=True).ast
        for mm in o.all_models(("a", "b"), 2):
            if not o.eval_finite(f, mm):
                continue
            dom = frozenset(range(mm.size))
            bigger = o.OneStepModel(mm.size, {"a": dom, "b": dom})
            assert o.eval_finite(f, bigger)


def test_continuity_witness_on_finite_models():
    rng = random.Random(8)
    b = frozenset({"a"})
    found = 0
    for _ in range(60):
        f = gen.rand_onestep(rng, ("a", "b"), 2, o.FOE1INF, positive=True)
        if not o.in_continuous_fragment(f.ast, b):
            continue
        for mm in o.all_models(("a", "b"), 2):
            if o.eval_finite(f.ast, mm):
                assert o.satisfying_restriction_exists(f, mm, b)
                found += 1
    assert found > 10


def test_normal_form_spec_examples():
    bf = o.to_basic_form(o.parse("E x. a(x) & A y. a(y)", "FOE1", ("a",)))
    assert o.equivalent(o.expand(bf), o.parse("E x. a(x) & A y. a(y)", "FOE1", ("a",)), 3)
    assert o.to_basic_form(o.parse("false", "FOE1", ("a",))).disjuncts == ()
    bf2 = o.to_basic_form(o.parse("A x. a(x)", "FOE1", ("a",)))
    assert o.equivalent(o.expand(bf2), o.parse("A x. a(x)", "FOE1", ("a",)), 2)
    # the all-universal sentence admits the empty model
    assert any(not d.witnesses for d in bf2.disjuncts)


def test_normal_form_random_equivalence():
    rng = random.Random(9)
    for _ in range(40):
        dialect = rng.choice(list(o.DIALECTS))
        f = gen.rand_onestep(rng, ("a", "b"), 2, dialect, positive=True)
        bf = o.to_basic_form(f)
        assert bf.dialect == dialect
        assert o.equivalent(f, o.expand(bf), o.rank(f.ast) + 1)
        if dialect == o.FOE1:
            for d in bf.disjuncts:
                assert d.cover <= set(d.witnesses)  # cover types are witnessed


def test_non_positive_rejected():
    with pytest.raises(o.NotPositiveError):
        o.to_basic_form(o.parse("E x. !a(x)"))


def test_continuous_basic_form():
    b = frozenset({"b"})
    cbf = o.to_continuous_basic_form(o.parse("E x. b(x)", "FO1", ("b",)), b)
    assert all(not (s & b) for d in cbf.disjuncts for s in d.cover)
    with pytest.raises(o.NotContinuousError):
        o.to_continuous_basic_form(o.parse("A x. b(x)", "FO1", ("b",)), b)
    f = o.parse("E x. (a(x) & b(x)) | A y. a(y)", "FO1", ("a", "b"))
    assert o.to_continuous_basic_form(f, frozenset()).disjuncts == o.to_basic_form(f).disjuncts
    w = o.parse("W x.(b(x), c(x))", "FOE1INF", ("b", "c"))
    cw = o.to_continuous_basic_form(w, b)
    assert all(not (s & b) for d in cw.disjuncts for s in (d.inf_cover or ()))
    with pytest.raises(o.DialectError):
        o.to_continuous_basic_form(o.parse("E x. b(x)", "FOE1", ("b",)), b)


def test_separation_sufficient_condition():
    # records whose types carry at most one b-predicate admit separating
    # restrictions on every satisfying model
    rng = random.Random(10)
    b = frozenset({"a", "b"})
    checked = 0
    for _ in range(40):
        f = gen.rand_onestep(rng, ("a", "b"), 2, o.FOE1, positive=True)
        bf = o.to_basic_form(f)
        for d in bf.disjuncts:
            types = list(d.witnesses) + list(d.cover)
            if not o.separation_sufficient(types, b):
                continue
            sent = o.sentence(o.expand_disjunct(d, o.FOE1), o.FOE1, ("a", "b"))
            for mm in o.all_models(("a", "b"), 2):
                if not o.eval_finite(sent.ast, mm):
                    continue
                assert _separating_restriction_exists(sent, mm, b)
                checked += 1
    assert checked > 20


def _separating_restriction_exists(sent, mm, b):
    from itertools import chain, combinations, product
    names = sorted(b)
    exts = [sorted(mm.valuation.get(a, frozenset())) for a in names]

    def powerset(xs):
        return chain.from_iterable(combinations(xs, k) for k in range(len(xs) + 1))

    for combo in product(*[list(powerset(e)) for e in exts]):
        val = dict(mm.valuation)
        for a, sub in zip(names, combo):
            val[a] = frozenset(sub)
        shrunk = o.OneStepModel(mm.size, val)
        if o.eval_finite(sent.ast, shrunk) and o.separates(val, b, range(mm.size)):
            return True
    return False


def test_equivalent_examples():
    f = o.parse("E x. a(x)")
    g = o.parse("E x. E y. a(x)")
    assert o.equivalent(f, g, 2)
    h = o.sentence(o.ExistsInf("x", o.Pred("a", "x")), o.FOE1INF, ("a",))
    assert not o.equivalent(o.sentence(f.ast, o.FOE1INF, ("a",)), h, 2)


def test_diamond_translate_record():
    bf = o.BasicForm("FOE1", ("a",), (o.BasicFormDisjunct(
        (frozenset({"a"}),), frozenset({frozenset({"a"})})),))
    dia = o.diamond_translate(bf)
    want = o.parse("(E x. a(x)) & (A z. a(z))", "FO1", ("a",))
    assert o.equivalent(dia, want, 2)
    empty = o.BasicForm("FOE1", ("a",), ())
    assert o.diamond_translate(empty).ast == o.BOT


def test_diamond_against_weighted_oracle():
    rng = random.Random(11)
    models = o.all_models(("a", "b"), 3)
    for _ in range(30):
        f = gen.rand_onestep(rng, ("a", "b"), 2, rng.choice([o.FOE1, o.FOE1INF]), positive=True)
        dia = o.diamond_translate(o.to_basic_form(f))
        for mm in models:
            wm = o.weighted(("a", "b"), {mm.element_type(d): o.OMEGA for d in range(mm.size)})
            assert o.eval_finite(dia.ast, mm) == o.eval_weighted(f.ast, wm)


def test_parse_pretty_round_trip():
    rng = random.Random(12)
    for _ in range(60):
        f = gen.rand_onestep(rng, ("a", "b"), 2, o.FOE1INF, positive=False).ast
        assert o.parse_formula(o.pretty(f)) == f


# ---------------------------------------------------------------------------
# the array pruner against a scalar greedy reference

REFERENCE_RECORD_CAP = 20_000


def _subsumes(weak, strong, dialect):
    """Sound, incomplete check that every model of `strong` models `weak`."""
    cover_w = set(weak.cover) | set(weak.inf_cover or ())
    cover_s = set(strong.cover) | set(strong.inf_cover or ())
    if dialect == o.FO1:
        return (
            all(any(u >= s for u in strong.witnesses) for s in weak.witnesses)
            and all(any(s <= u for s in weak.cover) for u in cover_s)
        )
    # greedy witness matching with type inclusion
    avail = list(strong.witnesses)
    for t in sorted(weak.witnesses, key=len, reverse=True):
        cands = [u for u in avail if t <= u]
        if not cands:
            return False
        avail.remove(min(cands, key=lambda u: (len(u), sorted(u))))
    for u in avail:  # leftover strong witnesses must fall under weak's cover
        if not any(s <= u for s in cover_w):
            return False
    for u in cover_s:
        if not any(s <= u for s in cover_w):
            return False
    if dialect == o.FOE1INF:
        inf_w = weak.inf_cover or frozenset()
        inf_s = strong.inf_cover or frozenset()
        if not all(any(s <= u for u in inf_s) for s in inf_w):
            return False
        if not all(any(s <= u for s in inf_w) for u in inf_s):
            return False
    return True


def _reference_disjuncts(f):
    """Every record of f, walked in the pruner's canonical order and kept
    unless an earlier kept record subsumes it; None past the record cap."""
    W, C, I, rk = nf._records(f)
    if len(W) > REFERENCE_RECORD_CAP:
        return None
    order = nf._canonical_order(W, C, I)
    kept = []
    for rec in nf._disjuncts(W[order], C[order], I[order], f.dialect, rk.types):
        if not any(_subsumes(k, rec, f.dialect) for k in kept):
            kept.append(rec)
    return tuple(kept)


def _check_against_reference(corpus):
    compared = 0
    for f in corpus:
        bf = o.to_basic_form(f)
        want = _reference_disjuncts(f)
        if want is not None:
            assert bf.disjuncts == want, o.pretty(f.ast)
            compared += 1
        assert o.equivalent(f, o.expand(bf), o.rank(f.ast) + 1), o.pretty(f.ast)
    return compared


@pytest.mark.parametrize("dialect", sorted(o.DIALECTS))
def test_pruner_matches_reference_on_enumerated_sentences(dialect):
    corpus = [f for f in gen.enumerate_sentences(("a", "b"), 2, dialect) if o.is_positive(f.ast)]
    assert _check_against_reference(corpus) == len(corpus)


def test_pruner_matches_reference_on_random_sentences():
    rng = random.Random(13)
    dialects = sorted(o.DIALECTS)
    corpus = [gen.rand_onestep(rng, ("a", "b"), 2, dialects[i % 3], positive=True)
              for i in range(200)]
    assert _check_against_reference(corpus) == 200


def _criterion_entries(monkeypatch):
    """The sentences normalized by acceptance criteria 4, 5 and 10."""
    rng = random.Random(104)
    out = [gen.rand_onestep(rng, ("a", "b"), 2, (o.FO1, o.FOE1, o.FOE1INF)[i % 3], positive=True)
           for i in range(100)]
    rng = random.Random(110)
    out += [f for f in gen.enumerate_sentences(("a", "b"), 1, o.FOE1INF) if o.is_positive(f.ast)]
    out += [gen.rand_onestep(rng, ("a", "b"), 2, d, positive=True)
            for d in (o.FOE1, o.FOE1INF) for _ in range(40)]
    normalize = o.to_basic_form

    def record(f):
        out.append(f)
        return normalize(f)

    with monkeypatch.context() as m:
        m.setattr(o, "to_basic_form", record)
        rng = random.Random(105)
        for dialect, want, construct in ((o.FOE1INF, "cw", full_finitary),
                                         (o.FOE1, "weak", full_noetherian)):
            for _ in range(30):
                construct(gen.rand_automaton(rng, ("p",), rng.choice([1, 2, 2, 3]),
                                             dialect=dialect, want=want))
                gen.rand_tree(rng, ("p",), depth=3, max_branch=2)
    return list(dict.fromkeys(out))


def test_pruner_matches_reference_on_criterion_entries(monkeypatch):
    corpus = _criterion_entries(monkeypatch)
    compared = _check_against_reference(corpus)
    assert compared == len(corpus) - 1  # only the 64,256-record entry is past the cap


# sha256 of `_nf_lines`, recorded before the profile spaces took one type
# order and one omega encoding; the normal forms must not drift
NF_DIGEST = "23aa8f370370105068e10d5ef305e1a613c2d09fe7b451537e6102389f5d7ec5"


def _nf_corpus() -> list[o.OneStepFormula]:
    """The positive rank-2 enumerated sentences over a, b in every dialect,
    and random positive ones over a, b, c, many of whose leaves name fewer
    predicates than their sentence and are swept on its space."""
    corpus = [f for d in sorted(o.DIALECTS) for f in gen.enumerate_sentences(("a", "b"), 2, d)
              if o.is_positive(f.ast)]
    rng = random.Random(16)
    corpus += [gen.rand_onestep(rng, ("a", "b", "c"), 2, o.DIALECTS[i % 3], positive=True)
               for i in range(300)]
    return corpus


def _nf_lines():
    """One line per normal form of `_nf_corpus`, types printed as sorted names."""

    def types(ts):
        return sorted(sorted(t) for t in ts)

    for f in _nf_corpus():
        yield "%s %s %r\n" % (f.dialect, o.pretty(f.ast), [
            ([sorted(t) for t in r.witnesses], types(r.cover),
             None if r.inf_cover is None else types(r.inf_cover))
            for r in o.to_basic_form(f).disjuncts])


def test_normal_forms_match_the_recorded_digest():
    text = "".join(_nf_lines())
    assert text.count("\n") == 1122
    assert hashlib.sha256(text.encode()).hexdigest() == NF_DIGEST
    # every expanded normal form prints as text that reads back as itself
    for f in _nf_corpus():
        e = o.expand(o.to_basic_form(f))
        assert o.parse(o.pretty(e.ast), e.dialect, e.preds).ast is e.ast, o.pretty(e.ast)


# sha256 of `_continuity_lines`, recorded with the record-shape recognizer
# that decided continuity before records were written in the grammar's W
# shape; the grammar must give the same answer on every pair
CONTINUITY_DIGEST = "d276450048210fceaa424281d357eb8a703484c7056981720d1dff5b7bf41be5"


def _continuity_lines():
    """One line per (record or entry, B) pair, named without printing the
    record: every record of a `_nf_corpus` normal form and the expanded
    entry, and every entry of the criterion-7 constructs and each of its
    disjuncts, each with every set B of its predicates; with the answers of
    `in_continuous_fragment` and `in_cocontinuous_fragment`."""

    def subsets(preds):
        return [frozenset(c) for k in range(len(preds) + 1)
                for c in itertools.combinations(sorted(preds), k)]

    def lines(name, formulas, preds):
        for i, g in enumerate(formulas):
            for b in subsets(preds(g)):
                yield "%s %s %s %d %d\n" % (name, i, sorted(b), o.in_continuous_fragment(g, b),
                                             o.in_cocontinuous_fragment(g, b))

    for f in _nf_corpus():
        bf = o.to_basic_form(f)
        formulas = [o.expand_disjunct(d, f.dialect) for d in bf.disjuncts] + [o.expand(bf).ast]
        yield from lines("%s %s" % (f.dialect, o.pretty(f.ast)), formulas, lambda g: f.preds)
    for j, sim in enumerate(_criterion_7_constructs()):
        for (a, c), e in sorted(sim.delta.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
            formulas = list(e.args) + [e] if isinstance(e, o.Or) else [e]
            yield from lines("%d %d %s" % (j, a, sorted(c)), formulas, o.predicates)


def _criterion_7_constructs() -> list[au.ParityAutomaton]:
    """60 full finitary constructs of 1-2-state continuous-weak automata,
    then 60 full noetherian constructs of weak ones (gen seed 105)."""
    rng = random.Random(105)
    out = []
    for dialect, want, construct in ((o.FOE1INF, "cw", full_finitary),
                                     (o.FOE1, "weak", full_noetherian)):
        for _ in range(60):
            out.append(construct(gen.rand_automaton(rng, ("p",), rng.choice([1, 2]),
                                                    dialect=dialect, want=want)))
    return out


def test_continuity_matches_the_recorded_digest():
    text = "".join(_continuity_lines())
    answers = [line.rsplit(" ", 2)[1:] for line in text.splitlines()]
    assert len(answers) == 35_162
    assert [sum(a[k] == "1" for a in answers) for k in (0, 1)] == [23_565, 18_536]
    assert hashlib.sha256(text.encode()).hexdigest() == CONTINUITY_DIGEST


# sha256 of `_continuous_nf_lines`, recorded while continuous basic forms
# were rewritten from the pruned records of `to_basic_form`; rewriting the
# sentence's own profile records must give the same forms and refusals
CONTINUOUS_NF_DIGEST = "bb9217d88224a5011d5931a65193f253f61d9993f4ee25995df390dc799f24fd"


def _continuous_nf_lines():
    """One line per FO1 or FOE1INF sentence of `_nf_corpus` and set B of its
    predicates: the records of its continuous basic form, or the refusal."""
    for f in _nf_corpus():
        if f.dialect == o.FOE1:
            continue
        preds = sorted(o.predicates(f.ast))
        for b in itertools.chain.from_iterable(
                itertools.combinations(preds, k) for k in range(len(preds) + 1)):
            try:
                out = [([sorted(w) for w in r.witnesses], sorted(sorted(s) for s in r.cover),
                        None if r.inf_cover is None else sorted(sorted(s) for s in r.inf_cover))
                       for r in o.to_continuous_basic_form(f, frozenset(b)).disjuncts]
            except o.NotContinuousError as e:
                out = "NotContinuousError: %s" % e
            yield "%s %s %s %r\n" % (f.dialect, o.pretty(f.ast), list(b), out)


def test_continuous_normal_forms_match_the_recorded_digest():
    lines = list(_continuous_nf_lines())
    assert len(lines) == 2321 and sum("NotContinuousError" in x for x in lines) == 972
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == CONTINUOUS_NF_DIGEST


def test_largest_construct_entry_is_fast():
    f = o.parse("((E x. q2(x)) | (E x. q1(x)) | (E x. q0(x))) & (E x. E y. x!=y & q2(x) & q2(y))",
                "FOE1INF", ("q0", "q1", "q2"))
    assert len(nf._records(f)[0]) == 64_256
    t0 = time.perf_counter()
    nf.to_basic_form.__wrapped__(f)
    assert time.perf_counter() - t0 < 5.0


def test_normal_forms_do_not_depend_on_hash_seed():
    script = (
        "import json, random\n"
        "from muaut import automata as au, gen, onestep as o\n"
        "def types(ts):\n"
        "    return sorted(sorted(t) for t in ts)\n"
        "for d in sorted(o.DIALECTS):\n"
        "    for f in gen.enumerate_sentences(('a', 'b'), 1, d):\n"
        "        if o.is_positive(f.ast):\n"
        "            print([([sorted(t) for t in r.witnesses], types(r.cover),\n"
        "                    None if r.inf_cover is None else types(r.inf_cover))\n"
        "                   for r in o.to_basic_form(f).disjuncts])\n"
        "rng = random.Random(105)\n"
        "aut = gen.rand_automaton(rng, ('p',), rng.choice([1, 2, 2, 3]), dialect=o.FOE1INF, want='cw')\n"
        "print(json.dumps(au.finitary_construct(aut).to_json(), sort_keys=True))\n"
    )
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                   capture_output=True).stdout)
    assert outs[0] and outs[0] == outs[1]


def test_leaf_cache_stays_within_byte_budget(monkeypatch):
    monkeypatch.setattr(nf, "LEAF_CACHE_BYTES", 4096)
    monkeypatch.setattr(nf, "_leaf_cache", nf._LeafCache())
    cache = nf._leaf_cache
    space = nf._space_for(o.FOE1INF, ("a", "b"), 2)  # 4**4 profiles, 256 bytes a leaf
    corpus = [f for f in gen.enumerate_sentences(("a", "b"), 2, o.FOE1INF)
              if o.is_positive(f.ast) and len(o.predicates(f.ast)) == 2]
    cleared = False
    for f in corpus[:60]:
        before = cache.nbytes
        nf._sat_vector(o.expand_sugar(f.ast), space)
        cleared |= cache.nbytes < before
        assert sum(v.nbytes for v in cache.values()) == cache.nbytes <= 4096
    assert cleared
    # an array past the whole budget is computed but not kept
    monkeypatch.setattr(nf, "LEAF_CACHE_BYTES", space.size - 1)
    nf._sat_vector(o.parse("E x. E y. a(x) & b(y) & x!=y", o.FOE1INF).ast, space)
    assert cache == {} and cache.nbytes == 0


def test_memoized_min_valuations_match_direct():
    # valuations over range(k), relabelled onto ascending successors, equal
    # the direct computation list for list, in the same order
    rng = random.Random(14)
    memo = _min_valuations_range
    entries = [f.ast for f in gen.enumerate_sentences(("a", "b"), 2, o.FOE1INF)
               if o.is_positive(f.ast)]
    for f in entries:
        for k in range(6):
            for draw in range(2):
                hits = memo.cache_info().hits
                succ = tuple(sorted(rng.sample(range(12), k)))
                relabelled = [frozenset((a, succ[d]) for a, d in mv) for mv in memo(f, k)]
                assert relabelled == o.min_valuations(f, succ)
                if draw:  # the second draw reads the memo
                    assert memo.cache_info().hits > hits
    info = memo.cache_info()
    assert info.currsize <= info.maxsize < 6 * len(entries)


def test_min_valuations_are_the_minimal_satisfying_valuations():
    # definition-level oracle: the subset-minimal members of the full
    # enumeration, fewest pairs first, then by sorted pairs; the entries name
    # state predicates q0..q11, so "q10" sorts before "q2"
    rng = random.Random(21)
    names = ["q%d" % i for i in range(12)]
    seen = set()
    for i in range(300):
        preds = rng.sample(names, rng.randint(1, 3))
        if i % 3 == 0:
            preds = ["q2", "q10"]
        f = gen.rand_onestep(rng, preds, rng.randint(1, 2), sorted(o.DIALECTS)[i % 3],
                             positive=True).ast
        k = i % 5
        succ = tuple(sorted(rng.sample(range(12), k)))
        full = o.all_valuations(f, succ)
        want = sorted((v for v in full if not any(u < v for u in full)),
                      key=lambda v: (len(v), sorted(v)))
        got = o.min_valuations(f, succ)
        assert got == want, (o.pretty(f), succ)
        seen.add(k)
        seen.add("q10 before q2" if any({"q2", "q10"} <= {a for a, _ in v} for v in got) else "")
    assert seen >= {0, 1, 2, 3, 4, "q10 before q2"}


def test_memoized_min_valuations_do_not_depend_on_hash_seed():
    # every valuation is stored sorted, so the acceptance arena's order of
    # moves out of a valuation position is the same in every process; the
    # full construct's entries mention q0..q10, so "q10" sorts before "q2"
    script = (
        "import random\n"
        "from muaut import gen, onestep as o\n"
        "from muaut.onestep.models import _min_valuations_range\n"
        "from construct_reference import full_finitary\n"
        "entries = [f.ast for d in (o.FOE1, o.FOE1INF)\n"
        "           for f in gen.enumerate_sentences(('a', 'b'), 2, d) if o.is_positive(f.ast)]\n"
        "aut = gen.rand_automaton(random.Random(32), ('p',), 3, dialect=o.FOE1INF, want='cw')\n"
        "sim = full_finitary(aut)\n"
        "entries += [sim.delta[k] for k in sorted(sim.delta, key=lambda k: (k[0], sorted(k[1])))]\n"
        "for f in entries:\n"
        "    for k in range(5):\n"
        "        vals = _min_valuations_range(f, k)\n"
        "        print(all(list(v) == sorted(v) for v in vals), o.pretty(f), k, vals)\n"
    )
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([SRC, TESTS, os.environ.get("PYTHONPATH", "")]))
        outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    lines = outs[0].splitlines()
    assert len(lines) > 1000 and all(line.startswith("True ") for line in lines)
    assert "q10" in outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("text", ["(" * 2000 + "a(x)" + ")" * 2000, "E x. " * 2000 + "a(x)"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(o.ParseError, match="formula nesting too deep"):
        o.parse_formula(text)
    with pytest.raises(o.ParseError, match="formula nesting too deep"):
        o.parse(text)
