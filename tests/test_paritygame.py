import hashlib
import random
import sys

import pytest

from muaut import automata as au
from muaut import gen
from muaut import lts as L
from muaut import mucalc as mc
from muaut import onestep as o
from muaut import paritygame as pg


def test_stuck_owner_loses():
    g = pg.ParityGame((pg.EXISTS,), ((),), (0,))
    sol = pg.solve(g)
    assert sol.win_forall == frozenset({0})
    g2 = pg.ParityGame((pg.FORALL,), ((),), (1,))
    assert pg.solve(g2).win_exists == frozenset({0})


def test_single_cycles():
    even = pg.ParityGame((pg.EXISTS,), ((0,),), (0,))
    assert pg.solve(even).win_exists == frozenset({0})
    odd = pg.ParityGame((pg.EXISTS,), ((0,),), (1,))
    assert pg.solve(odd).win_forall == frozenset({0})


def test_empty_game():
    g = pg.ParityGame((), (), ())
    sol = pg.solve(g)
    assert sol.win_exists == sol.win_forall == frozenset()
    assert pg.check_strategy(g, sol)


def _rand_game(rng, n):
    owner = tuple(rng.randint(0, 1) for _ in range(n))
    moves = tuple(tuple(sorted(rng.sample(range(n), rng.randint(0, min(2, n)))))
                  for _ in range(n))
    prio = tuple(rng.randint(0, 4) for _ in range(n))
    return pg.ParityGame(owner, moves, prio)


def test_determinacy_and_verifier_on_random_games():
    rng = random.Random(0)
    for _ in range(150):
        g = _rand_game(rng, rng.randint(1, 12))
        sol = pg.solve(g)
        assert sol.win_exists | sol.win_forall == frozenset(range(g.n))
        assert not sol.win_exists & sol.win_forall
        assert pg.check_strategy(g, sol)


def test_solver_matches_strategy_enumeration():
    rng = random.Random(1)
    for _ in range(120):
        g = _rand_game(rng, rng.randint(1, 6))
        assert pg.solve(g).win_exists == pg.solve_by_enumeration(g)


def test_sabotaged_strategy_rejected():
    rng = random.Random(2)
    found = 0
    for _ in range(200):
        g = _rand_game(rng, rng.randint(2, 8))
        sol = pg.solve(g)
        for v in sorted(sol.strategy_exists):
            alts = [t for t in g.moves[v] if t in sol.win_forall]
            if alts:
                bad = dict(sol.strategy_exists)
                bad[v] = alts[0]
                wrong = pg.Solution(sol.win_exists, sol.win_forall, bad, sol.strategy_forall)
                assert not pg.check_strategy(g, wrong)
                found += 1
                break
        if found >= 10:
            break
    assert found >= 10


def test_json_round_trip():
    g = _rand_game(random.Random(3), 5)
    assert pg.game_from_json(g.to_json()) == g


# (positions, moves, digest of positions and game) of the arenas of
# `_arena_corpus`, recorded from the per-position arena builders that
# preceded `build_arena`; the positions, their numbering and every move
# must stay exactly as they were.
RECORDED_ARENAS = [
    (1, 0, '4accd4db2c562c0c'), (12, 22, '27c3562854aa85f4'), (2, 1, '9c9b2db134c6c189'),
    (71, 163, '316a0d03fdb18fd6'), (77, 194, '418b8b2b7f270647'), (1, 0, 'b44fe2fbe7b15eca'),
    (19, 27, '22ce680549933452'), (106, 274, '12d5d738b9e94cae'), (1, 0, 'dd70afc851511d2c'),
    (2, 1, '1089ccf06ffc5ee0'), (1, 0, 'b113fd724a1d3c20'), (100, 203, '624039d057e4c1c2'),
    (39, 81, 'db46bdeccb5c254e'), (41, 76, '93c0e879cde67616'), (1, 0, '95edccbceb2555e5'),
    (8, 10, '81bd2de08e43ab74'), (46, 85, '85b6c33f8fd8f9b7'), (1, 0, '52f5a5a7ddee8790'),
    (1, 0, '166eb17acb81ab16'), (26, 42, 'e7688068d525944e'), (22, 25, '34f55b67f36e7d03'),
    (2, 1, '780c786f55b18572'), (212, 758, '6a388219622ea354'), (17, 23, 'c889cbd75a32a112'),
    (1, 0, '00a6936e23375190'), (88, 216, '4e7724456c357b0f'), (1, 0, 'b82bfef778fe4b83'),
    (1, 0, '9bfd32c13533529b'), (2, 1, '9c9b2db134c6c189'), (34, 46, 'c5fc490d0c7faffb'),
    (1, 0, 'a414ce7397817464'), (1, 0, '9639661409d0c2e5'), (42, 46, '966d823cbf7e378e'),
    (4, 3, 'bb6279fcaccf429e'), (1, 0, '755bbeb3eb3b184d'), (53, 63, '0db359c7aef0e1ff'),
    (4, 3, '948a1dbe77023472'), (44, 44, 'ec3bc9bfbaa466c3'), (2, 1, 'dd78a025c5a00e2a'),
    (7, 8, 'e77a5f8bd17fb3dd'), (7, 6, 'da3e35d49f845240'), (12, 11, 'e1bab97f72afc096'),
    (2, 1, 'd6159edb5a3d0b22'), (56, 67, '413009bf460a2f78'), (37, 42, '2935760ad384549a'),
    (1, 0, '4e3a427b996fc811'), (1, 0, 'd3ab23de7540fd70'), (73, 106, '4daed23aee2f861b'),
    (2, 2, '6aec39ed7a9324b0'), (3, 2, 'c70e9659c2a3b0dc'), (56, 69, 'd71c24ea3e399d90'),
    (14, 13, '24dc5f64ddc89b5f'), (101, 148, '8739a9d2a6cf4831'), (31, 30, 'c1ca750c470249cc'),
    (1, 0, 'c86ce75b61e86fa8'), (1, 0, 'dc2b93d3a2844c60'), (1, 0, '904a01378530ce95'),
    (12, 14, 'ea8a776c11ec7210'), (69, 87, 'bc5d322346e5f0b3'), (10, 12, '185a7a32a9642a53'),
]



def _canon(x) -> str:
    """Hash-seed independent text of a position description."""
    if isinstance(x, frozenset):
        return "{%s}" % ",".join(sorted(_canon(e) for e in x))
    if isinstance(x, tuple):
        return "(%s)" % ",".join(_canon(e) for e in x)
    return repr(x)


def _fingerprint(arena):
    g = arena.game
    h = hashlib.sha256()
    h.update(_canon(arena.positions).encode())
    h.update(repr((arena.root, g.owner, g.moves, g.priority)).encode())
    return g.n, sum(len(m) for m in g.moves), h.hexdigest()[:16]


def _arena_corpus():
    rng = random.Random(31)

    def system(props, n):
        edges = [(a, b) for a in range(n) for b in rng.sample(range(n), rng.randint(0, 5))]
        cols = {s: [p for p in props if rng.random() < 0.4] for s in range(n)}
        return L.make_lts(props, n, edges, cols, init=rng.randrange(n))

    for _ in range(30):
        aut = gen.rand_automaton(rng, ("p",), rng.randint(1, 3),
                                 dialect=rng.choice([o.FOE1, o.FOE1INF]), want="any")
        yield au.acceptance_game(aut, system(("p",), 20))
    for _ in range(30):
        f = gen.rand_mu(rng, ("p", "q"), depth=5, mode="any",
                        modalities=rng.choice([o.FOE1, o.FOE1INF]))
        yield mc.build_eval_game(f, system(("p", "q"), 20))


def test_arenas_match_recorded_corpus():
    assert [_fingerprint(a) for a in _arena_corpus()] == RECORDED_ARENAS


# (positions, moves, digest) of the acceptance arenas of `_extra_arena_corpus`:
# constructs, whose valuations order "q10" before "q2" in the last one, and
# full-enumeration arenas.  Positions and moves were recorded from the
# string-keyed acceptance arena that preceded integer position codes; the
# digests of the constructs were recorded again when constructs were
# trimmed, which renumbers their states and keeps their arenas' sizes.
RECORDED_EXTRA_ARENAS = [
    (106, 265, 'e4d1a789261d73bb'), (1, 0, '6a0eb23edd06bb81'), (1, 0, '61cf5b4db733bb87'),
    (321, 1054, '01e0c65861350cc8'), (2, 1, '59053ccb6a21d4a6'), (2, 1, 'ec8e69f99846d569'),
    (118, 272, '829b1265941715dd'), (7, 6, '90dac4b7c2c53633'), (5, 4, 'ee581c6b738c9213'),
    (64, 160, '4eeacf7b80cce8c8'), (1, 0, '0e0560c8b05f2227'), (91, 220, 'ebeb337e321ddef5'),
    (1, 0, '0e0560c8b05f2227'), (343, 1068, '60901fb086f7373e'), (596, 2455, '5e8a0cacc834293b'),
    (13, 18, '63e18e6f2c9b30cf'), (17, 37, '1bb6e4ce0169d5f1'), (27, 63, '5c54934dc58c3617'),
    (5, 6, '1f2002858560c264'), (1, 0, '166eb17acb81ab16'), (8, 11, '8413043378c59825'),
    (12, 23, '3a73cac7fc2dcdc9'), (7, 12, '10d69860023d010e'), (1, 0, '93a517005ea72dfc'),
    (8, 10, 'aee47260c401c3da'), (4, 5, '4680bb5ceaeef7ed'), (1, 0, '26be57d9e1a100e2'),
    (2, 1, '892425fe3a72456c'), (633, 2146, 'c1c697455da3a6ed'),
]


def _extra_arena_corpus():
    rng = random.Random(32)

    def system(n, deg):
        edges = [(a, b) for a in range(n) for b in rng.sample(range(n), rng.randint(1, min(deg, n)))]
        cols = {s: ["p"] if rng.random() < 0.4 else [] for s in range(n)}
        return L.make_lts(("p",), n, edges, cols, init=rng.randrange(n))

    for _ in range(8):
        aut = gen.rand_automaton(rng, ("p",), 3, dialect=o.FOE1INF, want="cw")
        yield au.acceptance_game(au.finitary_construct(aut), system(20, 5))
        aut = gen.rand_automaton(rng, ("p",), 3, dialect=o.FOE1, want="weak")
        yield au.acceptance_game(au.noetherian_construct(aut), system(20, 5))
    for _ in range(12):
        aut = gen.rand_automaton(rng, ("p",), rng.randint(1, 2),
                                 dialect=rng.choice([o.FOE1, o.FOE1INF]), want="any")
        yield au.acceptance_game(aut, system(rng.randint(2, 6), 3), full_enumeration=True)
    # a 4-state input, whose construct has 13 states: the constructs of the
    # 3-state ones above are trimmed to at most 9
    aut = gen.rand_automaton(random.Random(1), ("p",), 4, dialect=o.FOE1, want="weak")
    yield au.acceptance_game(au.noetherian_construct(aut), system(20, 5))


def test_construct_and_full_enumeration_arenas_match_recorded():
    arenas = list(_extra_arena_corpus())
    assert [_fingerprint(a) for a in arenas] == RECORDED_EXTRA_ARENAS
    # the corpus reaches the state whose predicate sorts before "q2"
    assert any(name == "q10" for a in arenas for pos in a.positions
               if pos[0] == "v" for name, _ in pos[1])


# (positions, moves, order-free digest, game value) of the evaluation arenas
# of `_wide_modal_corpus`, recorded from the frozenset-keyed evaluation game
# that preceded integer position codes.  Its modalities have 10-12 arguments,
# so the memo's names put "a10" before "a2" and the moves out of a modality
# position are numbered in another order than then; the digest covers the
# set of (position, owner, priority, sorted targets) rows, which does not
# depend on the numbering.  Row 7 was re-recorded when junctions began keeping
# each argument once: its modality repeated the disjunct `A v1. a8(v1)`.
RECORDED_WIDE_MODAL_ARENAS = [
    (4, 3, '91a35010ca842159', True), (9, 10, 'd22669b9728096e5', True),
    (51, 166, '3c8d6d0e53a69c4c', True), (43, 76, 'bcb721f4f3b21489', True),
    (15, 19, '7467ce8c03a30975', True), (16, 33, 'd62cf7042cc94f65', False),
    (40, 108, 'e9bc7d618d9a23f4', True), (20, 33, '1e3958a76cae3243', True),
    (53, 121, 'e87a86c359f8102b', False), (61, 299, 'fdd591ab855f90b4', False),
    (72, 153, 'd2cf79082a6b3b7c', True), (10, 15, '7a3bda5ba449d6f5', True),
]


def _wide_modal_corpus():
    rng = random.Random(33)
    pool = [mc.Prop("x"), mc.Prop("y"), mc.Prop("p"), mc.NegProp("q"),
            mc.dia(mc.Prop("x")), mc.MAnd((mc.Prop("q"), mc.Prop("y")))]
    for _ in range(12):
        k = rng.randint(10, 12)
        names = tuple("a%d" % (i + 1) for i in range(k))
        parts = [gen.rand_onestep(rng, names, 2, rng.choice([o.FOE1, o.FOE1INF])).ast
                 for _ in range(3)]
        a, b, c = rng.sample(names[1:9], 2) + rng.sample(names[9:], 1)
        parts.append(o.parse("E x. E y. %s(x) & %s(y) | %s(x) & %s(y)" % (a, c, b, c)).ast)
        alpha = o.disj(parts) if rng.random() < 0.7 else o.conj([parts[0], parts[3]])
        f = mc.Nu("x", mc.Mu("y", mc.Modal(alpha, tuple(rng.choice(pool) for _ in range(k)))))
        n = rng.randint(3, 6)
        edges = [(s, t) for s in range(n) for t in rng.sample(range(n), rng.randint(1, 3))]
        cols = {s: [p for p in ("p", "q") if rng.random() < 0.5] for s in range(n)}
        yield f, L.make_lts(("p", "q"), n, edges, cols, init=rng.randrange(n))


def _order_free_fingerprint(f, lts):
    eg = mc.build_eval_game(f, lts)
    g, pos = eg.game, eg.positions
    rows = sorted(_canon((pos[i], g.owner[i], g.priority[i],
                          tuple(sorted(_canon(pos[j]) for j in g.moves[i]))))
                  for i in range(g.n))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
    return g.n, sum(map(len, g.moves)), digest, mc.game_value(f, lts)


def test_wide_modality_arenas_match_recorded():
    fingerprints = [_order_free_fingerprint(f, lts) for f, lts in _wide_modal_corpus()]
    assert fingerprints == RECORDED_WIDE_MODAL_ARENAS


def test_build_arena_numbers_in_discovery_order():
    # a chain 0 -> 1 -> 2 with a back edge; positions are the integers
    def expand(pos):
        return pos % 2, pos, [(pos + 1) % 3]

    # the roots come first, in order; the rest in discovery order
    for roots, want, moves in (([0], (0, 1, 2), ((1,), (2,), (0,))),
                               ([0, 2], (0, 2, 1), ((2,), (0,), (1,)))):
        g, positions = pg.build_arena(roots, expand)
        assert positions == want
        assert g.moves == moves
        assert g.owner == tuple(p % 2 for p in want) and g.priority == want

    # a tuple is Forall's choice among the positions it holds, with
    # priority 0; expand is never called on it
    calls = []

    def expand(pos):
        calls.append(pos)
        return pg.EXISTS, pos + 1, [(1, 2)] if pos == 0 else []

    g, positions = pg.build_arena([0], expand)
    assert positions == (0, (1, 2), 1, 2) and calls == [0, 2, 1]
    assert g.moves == ((1,), (2, 3), (), ())
    assert g.owner == (pg.EXISTS, pg.FORALL, pg.EXISTS, pg.EXISTS)
    assert g.priority == (1, 0, 2, 3)


# --- SCCs, the cycle-parity helper and the solver at depth ---------------


def _rand_graph(rng, n):
    """Random digraph on 0..n-1 with self-loops, isolated and stuck nodes."""
    graph = {}
    for v in range(n):
        k = rng.choice([0, 0, 1, 1, 2, 3])
        graph[v] = sorted(set(rng.randrange(n) for _ in range(k)))
    return graph


def _reach_sets(nodes, graph):
    inside = set(nodes)
    out = {}
    for v in nodes:
        seen, todo = {v}, [v]
        while todo:
            for t in graph[todo.pop()]:
                if t in inside and t not in seen:
                    seen.add(t)
                    todo.append(t)
        out[v] = seen
    return out


def _rand_sccs_cases():
    """300 random graphs, each with a random subset of its nodes."""
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 14)
        graph = _rand_graph(rng, n)
        yield rng.sample(range(n), rng.randint(1, n)), graph


def test_sccs_match_mutual_reachability_sinks_first():
    for nodes, graph in _rand_sccs_cases():
        reach = _reach_sets(nodes, graph)
        comps = pg._sccs(nodes, graph)
        assert sorted(v for c in comps for v in c) == sorted(nodes)
        which = {v: i for i, c in enumerate(comps) for v in c}
        for u in nodes:
            for v in nodes:
                assert (which[u] == which[v]) == (v in reach[u] and u in reach[v])
                if v in graph[u] and which[u] != which[v]:
                    assert which[v] < which[u]  # edges lead to earlier components


def _sccs_by_dicts(nodes, graph):
    """Reference for `_sccs`: the same Tarjan with its numbers in dicts and
    membership in a set, as it was before its tables were indexed by
    position.  `_sccs` must return exactly these lists, so that no region
    or strategy of the solver moves."""
    inside = set(nodes)
    index = {}
    low = {}        # holds exactly the nodes still on the stack
    stack = []
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, it = work[-1]
            for t in it:
                if t in low:
                    if index[t] < low[v]:
                        low[v] = index[t]
                elif t not in index and t in inside:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    work.append((t, iter(graph[t])))
                    break
            else:
                work.pop()
                lv = low[v]
                if lv < index[v]:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                    continue
                comp = []
                while True:
                    w = stack.pop()
                    del low[w]
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def _assert_sccs_as_reference(nodes, graph, num, low):
    """`_sccs` on graph as given and as a tuple of rows returns the
    reference's lists, with its own tables and with the shared pair, which
    it leaves all `_DONE`."""
    want = _sccs_by_dicts(nodes, graph)
    rows = tuple(tuple(graph[v]) for v in range(len(graph)))
    assert pg._sccs(nodes, graph) == want
    assert pg._sccs(nodes, rows) == want
    assert pg._sccs(nodes, rows, num, low) == want
    assert num.count(pg._DONE) == len(num)


def test_sccs_match_the_dict_reference_exactly():
    num, low = pg._tables(14)
    for nodes, graph in _rand_sccs_cases():
        _assert_sccs_as_reference(nodes, graph, num, low)


def test_sccs_skip_successors_outside_the_nodes_and_above_them():
    rng = random.Random(45)
    num, low = pg._tables(20)
    above = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        graph = _rand_graph(rng, n + rng.randint(1, 6))  # nodes n.. are successors only
        nodes = rng.sample(range(n), rng.randint(1, n))
        above += any(t > max(nodes) for v in nodes for t in graph[v])
        _assert_sccs_as_reference(nodes, graph, num, low)
    assert above > 100


def test_sccs_match_the_dict_reference_on_the_benchmark_games():
    for g in _games_corpus_random_games():
        num, low = pg._tables(g.n)
        # the whole game, as at the first split, and a part of it, as on a
        # re-split, with one pair of tables
        for nodes in (range(g.n), [v for v in range(g.n) if g.priority[v] % 5]):
            assert pg._sccs(nodes, g.moves, num, low) == _sccs_by_dicts(nodes, g.moves)
            assert num.count(pg._DONE) == g.n


def _dominated_cycles_by_priority(nodes, graph, priority, parity):
    """Reference for `_dominated_cycles`, one sweep per priority: for each
    priority d of the parity, every nontrivial SCC of the nodes with
    priority at most d that contains d."""
    for d in sorted({priority[v] for v in nodes if priority[v] % 2 == parity}):
        sub = [v for v in nodes if priority[v] <= d]
        for comp in pg._sccs(sub, graph):
            nontrivial = len(comp) > 1 or comp[0] in graph.get(comp[0], [])
            if nontrivial and any(priority[v] == d for v in comp):
                yield comp


def test_dominated_cycles_match_the_per_priority_sweep():
    rng = random.Random(42)
    for _ in range(400):
        n = rng.randint(1, 14)
        graph = _rand_graph(rng, n)
        priority = [rng.randint(0, 5) for _ in range(n)]
        nodes = rng.sample(range(n), rng.randint(1, n))
        for parity in (0, 1):
            new = list(pg._dominated_cycles(nodes, graph, priority, parity))
            ref = list(_dominated_cycles_by_priority(nodes, graph, priority, parity))
            assert bool(new) == bool(ref)
            assert {v for c in new for v in c} == {v for c in ref for v in c}


def test_solver_matches_enumeration_on_games_with_several_sccs():
    rng = random.Random(43)
    checked = 0
    while checked < 300:
        g = _rand_game(rng, rng.randint(2, 7))
        if len(pg._sccs(range(g.n), g.moves)) < 2:
            continue
        sol = pg.solve(g)
        assert sol.win_exists == pg.solve_by_enumeration(g)
        assert pg.check_strategy(g, sol)
        checked += 1


def _stuck_game(rng, n):
    """Random game on n positions, about a quarter of them without a move."""
    owner = tuple(rng.randint(0, 1) for _ in range(n))
    moves = tuple(tuple(sorted(rng.sample(range(n), rng.randint(0, min(3, n)))))
                  for _ in range(n))
    return pg.ParityGame(owner, moves, tuple(rng.randint(0, 6) for _ in range(n)))


def _games_corpus_random_games():
    """The six 3,000-position games of the `games` benchmark corpus
    (generator seed 1): the draws of its automata, formulas and systems,
    then the games themselves."""
    rng = random.Random(1)

    def system(n):  # an LTS on n states with out-degrees 1..5, drawn but unused
        for _ in range(n):
            rng.sample(range(n), rng.randint(1, 5))
        for _ in range(n):
            [rng.random() for _ in props]
        rng.randrange(n)

    props = ("p",)
    for _ in range(90):
        gen.rand_automaton(rng, props, rng.randint(2, 3),
                           dialect=rng.choice([o.FOE1, o.FOE1INF]), want="any")
        system(120)
    props = ("p", "q")
    for _ in range(40):
        gen.rand_mu(rng, props, depth=5, mode=rng.choice(["any", "af", "cont"]),
                    modalities=rng.choice([o.FOE1, o.FOE1INF]))
        system(100)
    for _ in range(6):
        owner = tuple(rng.randrange(2) for _ in range(3000))
        moves = tuple(tuple(sorted(set(rng.randrange(3000) for _ in range(rng.randint(1, 3)))))
                      for _ in range(3000))
        yield pg.ParityGame(owner, moves, tuple(rng.randrange(24) for _ in range(3000)))


def _region_corpus():
    for arena in _arena_corpus():
        yield arena.game
    rng = random.Random(44)
    for _ in range(200):
        yield _stuck_game(rng, rng.randint(1, 40))
    yield from _games_corpus_random_games()


# sha256 of the Exists regions of `_region_corpus`, recorded from the
# recursive Zielonka solver that preceded the SCC-by-SCC one
RECORDED_REGIONS = "894cc224b2f21e27af06796b937efd75d3dcfd228d3d8651ee15856e936caf77"


def test_winning_regions_match_recorded_corpus():
    h = hashlib.sha256()
    for g in _region_corpus():
        sol = pg.solve(g)
        assert pg.check_strategy(g, sol)
        h.update(repr(sorted(sol.win_exists)).encode())
    assert h.hexdigest() == RECORDED_REGIONS


# sha256 of the Exists region and both positional strategies of every game
# of `_region_corpus`, recorded from the solver whose SCC split kept Tarjan's
# numbers in dicts; a change of strategy with unchanged regions fails here
RECORDED_STRATEGIES = "3bde7af2d76785e35469ec84063cef821a84a3fa11cedd1b91a506c150969ec9"


def test_strategies_match_recorded_corpus():
    h = hashlib.sha256()
    for g in _region_corpus():
        sol = pg.solve(g)
        h.update(repr((sorted(sol.win_exists), sorted(sol.strategy_exists.items()),
                       sorted(sol.strategy_forall.items()))).encode())
    assert h.hexdigest() == RECORDED_STRATEGIES


def _four_cycles(n, seed):
    """n positions, n a multiple of 4, in disjoint 4-cycles: each position
    steps along its cycle or stays, with seeded owners and priorities 0-5.
    Most cycles are split again inside their Zielonka steps."""
    rng = random.Random(seed)
    moves = tuple(tuple(sorted((v, v - v % 4 + (v + 1) % 4))) for v in range(n))
    return pg.ParityGame(tuple(rng.randrange(2) for _ in range(n)), moves,
                         tuple(rng.randrange(6) for _ in range(n)))


def test_solve_makes_at_most_one_pair_of_scc_tables(monkeypatch):
    made, splits = [], []
    tables, sccs = pg._tables, pg._sccs
    monkeypatch.setattr(pg, "_tables", lambda size: made.append(size) or tables(size))
    monkeypatch.setattr(pg, "_sccs", lambda *args: splits.append(1) or sccs(*args))
    g = _four_cycles(4000, 1)
    sol = pg.solve(g)
    assert made == [g.n] and len(splits) > 500
    # one pair for each region's cycle check
    made.clear()
    assert pg.check_strategy(g, sol)
    assert len(made) == 2
    # a solve that never splits makes none
    made.clear()
    pg.solve(pg.ParityGame((pg.EXISTS,) * 2, ((0, 1), (0,)), (2, 2)))
    assert made == []


def _ladder(n):
    """Position i loops with priority i or steps to i + 1; owners alternate."""
    moves = tuple((i, i + 1) if i + 1 < n else (i,) for i in range(n))
    return pg.ParityGame(tuple(i % 2 for i in range(n)), moves, tuple(range(n)))


def _cyclic_ladder(n):
    """The ladder with a step from its top back to 0: one SCC until the top
    is removed."""
    moves = tuple((i, (i + 1) % n) for i in range(n))
    return pg.ParityGame(tuple(i % 2 for i in range(n)), moves, tuple(range(n)))


def _reset_ladder(n):
    """Position i steps to i + 1 or back to 0: Zielonka steps nest n deep."""
    moves = tuple((0, i + 1) if i + 1 < n else (0,) for i in range(n))
    return pg.ParityGame(tuple(i % 2 for i in range(n)), moves, tuple(range(n)))


def _from_depth(frames, fn):
    return fn() if frames == 0 else _from_depth(frames - 1, fn)


@pytest.fixture()
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("make,n,exists_wins", [
    (_ladder, 20000, 10000), (_cyclic_ladder, 3000, 1500), (_reset_ladder, 1000, 1000)])
def test_deep_games_solve_at_the_default_recursion_limit(
        default_recursion_limit, frames, make, n, exists_wins):
    g = make(n)
    sol = _from_depth(frames, lambda: pg.solve(g))
    assert len(sol.win_exists) == exists_wins
    assert _from_depth(frames, lambda: pg.check_strategy(g, sol))
