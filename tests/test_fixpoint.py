import collections
import hashlib
import itertools
import random
import sys
import threading

import pytest

from muaut import fixpoint as fx
from muaut import gen
from muaut import lts as L
from muaut import mucalc as mc


def rand_functional(rng, n=4):
    lts = gen.rand_lts(rng, ("p", "q"), max_states=n)
    inner = gen.rand_mu(rng, ("p", "q"), depth=1, mode="any")
    body = rng.choice([
        mc.MOr((inner, mc.dia(mc.Prop("r")))),
        mc.MOr((inner, mc.MAnd((mc.Prop("q"), mc.Prop("r"))))),
        mc.MOr((mc.Prop("p"), mc.dia(mc.Prop("r")))),
        inner,
    ])
    return fx.formula_functional(body, "r", lts)


def test_lfp_trivial():
    ident = fx.MonotoneFunctional(frozenset({0, 1}), lambda x: x)
    assert fx.lfp(ident)[0] == frozenset()
    const = fx.MonotoneFunctional(frozenset({0, 1}), lambda x: frozenset({1}))
    fix, trace = fx.lfp(const)
    assert fix == frozenset({1}) and len(trace) == 2


def test_lfp_grows_backward_from_targets():
    lts = L.make_lts(["p"], 3, [(0, 1), (1, 2)], {2: ["p"]})
    body = mc.MOr((mc.Prop("p"), mc.dia(mc.Prop("r"))))
    F = fx.formula_functional(body, "r", lts)
    fix, trace = fx.lfp(F)
    assert fix == frozenset({0, 1, 2})
    assert trace == [frozenset(), frozenset({2}), frozenset({1, 2}), frozenset({0, 1, 2})]


def test_restrict_inclusion():
    rng = random.Random(1)
    for _ in range(30):
        F = rand_functional(rng, n=rng.randint(1, 5))
        xs = frozenset(s for s in F.carrier if rng.random() < 0.5)
        assert fx.lfp(fx.restrict(F, xs))[0] <= fx.lfp(F)[0]
    F = rand_functional(rng)
    assert fx.lfp(fx.restrict(F, F.carrier))[0] == fx.lfp(F)[0]
    assert fx.lfp(fx.restrict(F, frozenset()))[0] == frozenset()


def test_unfolding_game_region_is_lfp():
    rng = random.Random(2)
    for _ in range(30):
        F = rand_functional(rng, n=rng.randint(1, 5))
        assert fx.unfolding_region(F) == fx.lfp(F)[0]


@pytest.mark.parametrize("n", [9, 10, 12])
def test_unfolding_region_is_lfp_past_eight_states(n, monkeypatch):
    # Exists may offer every subset of the carrier up to its limit, so the
    # game is built without the least fixpoint it decides; on a chain with p
    # at n-3 and q everywhere but at 2 both least fixpoints are proper and nonempty
    lts = L.make_lts(["p", "q"], n, [(s, s + 1) for s in range(n - 1)],
                     {s: ["q"] + ["p"] * (s == n - 3) for s in range(n) if s != 2})
    p, q, r = mc.Prop("p"), mc.Prop("q"), mc.Prop("r")
    for body in (mc.MOr((p, mc.dia(r))), mc.MOr((p, mc.MAnd((q, mc.dia(r)))))):
        F = fx.formula_functional(body, "r", lts)
        fix = fx.lfp(F)[0]
        assert fix and fix != F.carrier
        with monkeypatch.context() as m:
            m.setattr(fx, "lfp", lambda f: pytest.fail("the game asked for the least fixpoint"))
            assert fx.unfolding_region(F) == fix


def test_unfolding_game_trivial_cases():
    const = fx.MonotoneFunctional(frozenset({0}), lambda x: frozenset({0}))
    assert fx.unfolding_region(const) == frozenset({0})
    ident = fx.MonotoneFunctional(frozenset({0, 1}), lambda x: x)
    assert fx.unfolding_region(ident) == frozenset()
    big = fx.MonotoneFunctional(frozenset(range(13)), lambda x: x)
    with pytest.raises(ValueError):
        fx.unfolding_game(big)


def test_descending_strategy():
    rng = random.Random(3)
    for _ in range(30):
        F = rand_functional(rng, n=rng.randint(1, 5))
        fix, stages = fx.lfp(F)
        strat = fx.descending_strategy(F)
        assert set(strat) == set(fix)
        assert fx.is_descending(F, strat)
        for s in sorted(fix):
            assert fx.strategy_wins(F, strat, s)
        for s, xs in strat.items():
            assert xs in stages  # moves are approximant stages
        for s in fix:
            if s in stages[1]:
                assert strat[s] == frozenset()


def test_strategy_tree_inclusion():
    rng = random.Random(4)
    for _ in range(30):
        F = rand_functional(rng, n=rng.randint(1, 5))
        fix, _ = fx.lfp(F)
        strat = fx.descending_strategy(F)
        for r in sorted(fix)[:3]:
            tree = fx.strategy_tree(F, strat, r)
            assert r in tree.nodes
            assert r in fx.lfp(fx.restrict(F, tree.nodes))[0]


def test_strategy_tree_trivial():
    const = fx.MonotoneFunctional(frozenset({0, 1}), lambda x: frozenset({0}))
    strat = fx.descending_strategy(const)
    tree = fx.strategy_tree(const, strat, 0)
    assert tree.nodes == frozenset({0})


def _successor_chain(n):
    """F(X) = {0} | {s + 1 : s in X} on range(n), whose least fixpoint is
    the whole carrier."""
    return fx.MonotoneFunctional(frozenset(range(n)),
                                 lambda xs: frozenset({0} | {s + 1 for s in xs if s + 1 < n}))


def test_strategy_wins_rejects_a_long_cycle():
    F = _successor_chain(3000)
    strat = {s: frozenset({s - 1}) for s in range(1, 3000)}
    strat[0] = frozenset({2999})  # legal, since 0 is in every image
    assert not fx.strategy_wins(F, strat, 2999)


def test_strategy_wins_needs_a_move_at_every_reached_state():
    F = _successor_chain(3)
    strat = {2: frozenset({1}), 1: frozenset({0})}
    assert not fx.strategy_wins(F, strat, 2)
    with pytest.raises(ValueError, match="not winning"):
        fx.strategy_tree(F, strat, 2)
    with pytest.raises(ValueError, match="root is not"):
        fx.strategy_tree(F, strat, 0)
    strat[0] = frozenset()
    assert fx.strategy_wins(F, strat, 2)


def test_strategy_tree_on_a_long_chain():
    F = _successor_chain(3000)
    strat = {s: frozenset({s - 1}) for s in range(1, 3000)}
    strat[0] = frozenset()
    tree = fx.strategy_tree(F, strat, 2999)
    assert tree.nodes == F.carrier
    assert tree.children == strat


def test_finite_witness():
    rng = random.Random(5)
    for _ in range(30):
        F = rand_functional(rng, n=rng.randint(1, 5))
        fix, _ = fx.lfp(F)
        for s in sorted(F.carrier):
            w = fx.finite_witness(F, s)
            if s not in fix:
                assert w is None
            else:
                assert w is not None
                assert s in fx.lfp(fx.restrict(F, w))[0]
            bw = fx.brute_force_witness(F, s)
            assert (bw is None) == (s not in fix)


def test_witness_searches_reject_an_unknown_state():
    lts = L.make_lts(["p"], 3, [(0, 1), (1, 2)], {2: ["p"]})
    F = fx.formula_functional(mc.MOr((mc.Prop("p"), mc.dia(mc.Prop("r")))), "r", lts)
    for s in (9, -1):
        with pytest.raises(ValueError, match="unknown state %d" % s):
            fx.finite_witness(F, s)
        for noeth in (False, True):
            with pytest.raises(ValueError, match="unknown state %d" % s):
                fx.brute_force_witness(F, s, noetherian_only=noeth)


def test_noetherian_witness_matches_membership():
    rng = random.Random(6)
    for _ in range(25):
        F = rand_functional(rng, n=rng.randint(1, 5))
        fix, _ = fx.lfp(F)
        for s in sorted(F.carrier)[:3]:
            w = fx.brute_force_witness(F, s, noetherian_only=True)
            assert (w is None) == (s not in fix)


def test_monotonicity_spot_check():
    rng = random.Random(7)
    for _ in range(20):
        F = rand_functional(rng, n=4)
        pairs = []
        for _ in range(10):
            lo = frozenset(s for s in F.carrier if rng.random() < 0.4)
            hi = lo | frozenset(s for s in F.carrier if rng.random() < 0.4)
            pairs.append((lo, hi))
        assert fx.monotone_on_samples(F, pairs)


# sha256 of `_witness_lines`, recorded before functionals stored their
# images; every stage, move and witness set must stay as it was
WITNESS_DIGEST = "4b57f86a526e1b86c0ee917ac9ff9f5bda3e86e476e632cf72ac8c4e74c3ef75"


def _keyfix_corpus():
    """200 functionals shaped like the keyfix fuzz suite: a continuous or
    alternation-free body over p, or dia r, on a system of at most 4 states."""
    rng = random.Random(23)
    for i in range(200):
        body = gen.rand_mu(rng, ("p",), depth=2, mode=("cont", "af")[i % 2])
        body = mc.MOr((body, mc.dia(mc.Prop("r"))))
        lts = L.p_variant(gen.rand_lts(rng, ("p",), max_states=4), "r", [])
        yield fx.formula_functional(body, "r", lts)


def _witness_lines():
    def show(xs):
        return None if xs is None else sorted(xs)

    for F in _keyfix_corpus():
        _, stages = fx.lfp(F)
        strat = fx.descending_strategy(F)
        yield "%r %r %r\n" % ([sorted(st) for st in stages],
                              sorted((s, sorted(xs)) for s, xs in strat.items()),
                              sorted(fx.unfolding_region(F)))
        for s in sorted(F.carrier):
            yield "  %d %r %r %r\n" % (s, show(fx.finite_witness(F, s)),
                                       show(fx.brute_force_witness(F, s)),
                                       show(fx.brute_force_witness(F, s, noetherian_only=True)))


def test_witnesses_match_the_recorded_digest():
    text = "".join(_witness_lines())
    assert text.count("\n") == 669
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGEST


def test_each_set_reaches_apply_once_per_functional():
    for F in _keyfix_corpus():
        seen = collections.Counter()

        def apply(xs, inner=F.apply, seen=seen):
            seen[xs] += 1
            return inner(xs)

        G = fx.MonotoneFunctional(F.carrier, apply, F.lts)
        fx.lfp(G)
        fx.descending_strategy(G)
        for s in sorted(G.carrier):
            fx.finite_witness(G, s)
            fx.brute_force_witness(G, s)
            fx.brute_force_witness(G, s, noetherian_only=True)
        fx.unfolding_region(G)  # the game applies G to every subset
        assert max(seen.values()) == 1
        assert len(seen) == 2 ** len(G.carrier)


def test_noetherian_search_reaches_from_each_state_once_per_system(monkeypatch):
    # the reach calls made by the noetherian test, over the keyfix corpus
    reached, inside = collections.Counter(), []
    reach, noetherian = L.reach, fx.noetherian_subset

    def counted_reach(succ, starts):
        if inside:
            reached.update([(id(succ), tuple(starts))])
        return reach(succ, starts)

    def counted_noetherian(lts, xs):
        inside.append(lts)
        try:
            return noetherian(lts, xs)
        finally:
            inside.pop()

    monkeypatch.setattr(L, "reach", counted_reach)
    monkeypatch.setattr(fx, "noetherian_subset", counted_noetherian)
    corpus = list(_keyfix_corpus())  # kept alive, so no table's id is reused
    for F in corpus:
        for s in sorted(F.carrier):
            fx.brute_force_witness(F, s, noetherian_only=True)
    assert max(reached.values()) == 1
    assert len(reached) == sum(F.lts.n for F in corpus)


def test_threads_sharing_functionals_read_the_serial_witnesses():
    # a race on the image memo can only compute one image twice
    def witnesses(F):
        return [(fx.lfp(F)[1], fx.finite_witness(F, s), fx.brute_force_witness(F, s))
                for s in sorted(F.carrier)]

    shared = list(itertools.islice(_keyfix_corpus(), 30))
    want = [witnesses(F) for F in itertools.islice(_keyfix_corpus(), 30)]
    out = [None] * 8

    def run(i):
        out[i] = [witnesses(F) for F in shared]

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
    assert all(got == want for got in out)
