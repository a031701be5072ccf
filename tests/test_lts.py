import collections
import hashlib
import random

import pytest

from muaut import gen
from muaut import lts as L
from muaut import mucalc as mc


def chain(n=2, colours=None):
    return L.make_lts(["p"], n, [(i, i + 1) for i in range(n - 1)], colours or {})


def test_validate_chain_is_tree():
    rep = L.validate(chain(2, {1: ["p"]}))
    assert rep.ok and rep.tree is not None
    assert rep.tree.parent == {1: 0}


def test_validate_self_loop_not_tree():
    loop = L.make_lts(["p"], 1, [(0, 0)], {0: ["p"]})
    rep = L.validate(loop)
    assert rep.ok and rep.tree is None


def test_validate_dangling_target():
    bad = L.LTS(L.PropSet(("p",)), 2, frozenset({(0, 7)}), (frozenset(), frozenset()), 0)
    rep = L.validate(bad)
    assert not rep.ok
    assert any("dangling target" in e for e in rep.errors)
    with pytest.raises(ValueError):
        L.make_lts(["p"], 2, [(0, 7)], {})


def test_p_variant_definition_and_idempotence():
    s = chain(2)
    v = L.p_variant(s, "p", [1])
    assert v.holds("p") == frozenset({1})
    assert L.p_variant(v, "p", [1]) == v
    assert L.p_variant(s, "p", []).holds("p") == frozenset()
    with pytest.raises(ValueError):
        L.p_variant(s, "p", [9])


def test_p_variant_preserves_p_free_formulas():
    rng = random.Random(2)
    for _ in range(30):
        s = gen.rand_lts(rng, ("p", "q"), max_states=5)
        f = gen.rand_mu(rng, ("q",), depth=2, mode="any")
        xs = [st for st in s.states() if rng.random() < 0.5]
        assert mc.semantics_eval(f, s) == mc.semantics_eval(f, L.p_variant(s, "p", xs))


def test_bisimilar_reflexive_and_certified():
    rng = random.Random(5)
    for _ in range(25):
        s = gen.rand_lts(rng, ("p",), max_states=5)
        rel = L.bisimilar(s, s)
        assert rel is not None
        assert (s.init, s.init) in rel
        assert L.is_bisimulation(s, s, rel)


def test_bisimilar_loop_vs_two_cycle():
    loop = L.make_lts(["p"], 1, [(0, 0)], {0: ["p"]})
    two = L.make_lts(["p"], 2, [(0, 1), (1, 0)], {0: ["p"], 1: ["p"]})
    rel = L.bisimilar(loop, two)
    assert rel is not None and L.is_bisimulation(loop, two, rel)


def test_bisimilar_atom_failure():
    a = L.make_lts(["p"], 1, [], {0: ["p"]})
    b = L.make_lts(["p"], 1, [], {})
    assert L.bisimilar(a, b) is None


def test_bisimilar_equivalence_on_family():
    rng = random.Random(9)
    family = [gen.rand_lts(rng, ("p",), max_states=4) for _ in range(6)]
    rel = {}
    for i, a in enumerate(family):
        for j, b in enumerate(family):
            rel[i, j] = L.bisimilar(a, b) is not None
    for i in range(6):
        assert rel[i, i]
        for j in range(6):
            assert rel[i, j] == rel[j, i]
            for k in range(6):
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def _greatest_bisimulation(s, t):
    """Definition-level oracle: from every same-colour pair, drop each pair
    whose forth or back condition fails, until nothing changes."""
    ssucc, tsucc = s.successor_table(), t.successor_table()
    rel = {(u, v) for u in s.states() for v in t.states() if s.colours[u] == t.colours[v]}
    while True:
        keep = {(u, v) for u, v in rel
                if all(any((u2, v2) in rel for v2 in tsucc[v]) for u2 in ssucc[u])
                and all(any((u2, v2) in rel for u2 in ssucc[u]) for v2 in tsucc[v])}
        if keep == rel:
            return frozenset(rel)
        rel = keep


def _with_copy(s, u):
    """s with one more state, a copy of u: its edges in and out and its colour."""
    succ = s.successor_table()
    edges = set(s.edges) | {(a, s.n) for a in s.states() if u in succ[a]}
    edges |= {(s.n, b) for b in succ[u]}
    return L.make_lts(s.props.names, s.n + 1, edges,
                      {x: s.colours[x] for x in s.states()} | {s.n: s.colours[u]}, s.init)


def test_bisimilar_is_the_greatest_bisimulation():
    rng = random.Random(17)
    seen = {"none": 0, "sizes differ": 0, "quotient": 0}
    for i in range(90):
        s = gen.rand_lts(rng, ("p", "q"), max_states=7, edge_prob=rng.choice([0.15, 0.35]))
        if i % 3 == 0:
            t = L.quotient(s)
            seen["quotient"] += 1
        elif i % 3 == 1:  # bisimilar, one state larger
            t = _with_copy(s, rng.randrange(s.n))
        else:
            t = gen.rand_lts(rng, ("p", "q"), max_states=7)
        want = _greatest_bisimulation(s, t)
        rel = L.bisimilar(s, t)
        if (s.init, t.init) in want:
            assert rel == want
        else:
            assert rel is None
            seen["none"] += 1
        seen["sizes differ"] += rel is not None and s.n != t.n
    assert min(seen.values()) >= 10, seen


def _pair_scan_failures(s, t, rel):
    """Reference for `is_bisimulation`: the conditions (atom, forth, back)
    that fail at some pair of rel, each found by scanning the candidate
    pairs for a mate."""
    rel = set(rel)
    ssucc, tsucc = s.successor_table(), t.successor_table()
    failed = set()
    for (u, v) in rel:
        if s.colours[u] != t.colours[v]:
            failed.add("atom")
        for u2 in ssucc[u]:
            if not any((u2, v2) in rel for v2 in tsucc[v]):
                failed.add("forth")
        for v2 in tsucc[v]:
            if not any((u2, v2) in rel for u2 in ssucc[u]):
                failed.add("back")
    return failed


def _edge_union_quotient(lts):
    """Reference for `quotient`: every edge mapped onto its blocks."""
    succ = lts.successor_table()
    block_of = L._refine_partition(lts.colours, succ)
    nblocks = max(block_of) + 1
    edges = ((block_of[a], block_of[b]) for a, ts in enumerate(succ) for b in ts)
    cols = [frozenset()] * nblocks
    for s in range(lts.n):
        cols[block_of[s]] = lts.colours[s]
    return L.LTS(lts.props, nblocks, edges, tuple(cols), block_of[lts.init])


def _bisim_corpus():
    """Seeded systems over p, q: random ones at several edge probabilities
    (states without a successor included), out-degree 1-3 ones of up to
    100 states, cycles and chains with a periodic colouring, and
    uniform-colour systems."""
    rng = random.Random(27)
    props = ("p", "q")
    for prob in (0.0, 0.1, 0.25, 0.4, 0.7):
        for _ in range(40):
            yield gen.rand_lts(rng, props, max_states=8, edge_prob=prob)
    for n in (20, 60, 100):
        for _ in range(8):
            edges = [(a, b) for a in range(n) for b in rng.sample(range(n), rng.randint(1, 3))]
            cols = {s: [p for p in props if rng.random() < 0.4] for s in range(n)}
            yield L.make_lts(props, n, edges, cols, rng.randrange(n))
    for n in (1, 2, 3, 6, 12, 30):
        for k in (1, 2, 3, 4):
            cols = {s: ["p"] for s in range(n) if s % k == 0}
            yield L.make_lts(props, n, [(s, (s + 1) % n) for s in range(n)], cols, n - 1)
            yield L.make_lts(props, n, [(s, s + 1) for s in range(n - 1)], cols)
    for colour in ((), ("p",), ("p", "q")):
        for _ in range(10):
            n = rng.randint(1, 40)
            edges = [(a, b) for a in range(n) for b in range(n) if rng.random() < 2 / n]
            yield L.make_lts(props, n, edges, {s: colour for s in range(n)}, rng.randrange(n))


# sha256 of `_bisim_lines`, recorded before quotients were read off one
# state per block: every quotient and greatest bisimulation stays as it was
BISIM_DIGEST = "8e5acad0b3a755c9f71f6da7b809b087161c7fc509907898e35270759063d79f"


def _bisim_lines():
    def show(rel):
        return None if rel is None else sorted(rel)

    systems = list(_bisim_corpus())
    for i, s in enumerate(systems):
        q = L.quotient(s)
        yield "%d %r %r %d\n" % (q.n, q.successor_table(), [sorted(c) for c in q.colours], q.init)
        yield "  %r\n  %r\n" % (show(L.bisimilar(s, q)), show(L.bisimilar(s, systems[i - 1])))


def test_quotients_and_bisimulations_match_the_recorded_digest():
    text = "".join(_bisim_lines())
    assert text.count("\n") == 906
    assert hashlib.sha256(text.encode()).hexdigest() == BISIM_DIGEST


def _relations(rng, s, t):
    """Relations between s and t: the greatest bisimulation with and
    without one random pair, and with one differently coloured pair; the
    identity on the shared states; a random half of the same-colour pairs."""
    rel = L.bisimilar(s, t)
    if rel is not None:
        yield rel
        yield rel - {rng.choice(sorted(rel))}
        other = [(u, v) for u in s.states() for v in t.states() if s.colours[u] != t.colours[v]]
        if other:
            yield rel | {rng.choice(other)}
    yield {(u, u) for u in range(min(s.n, t.n))}
    yield {(u, v) for u in s.states() for v in t.states()
           if s.colours[u] == t.colours[v] and rng.random() < 0.5}


def test_bisimulation_layer_matches_its_references():
    rng = random.Random(31)
    seen = collections.Counter()
    systems = list(_bisim_corpus())
    for i, s in enumerate(systems):
        q = L.quotient(s)
        assert q == _edge_union_quotient(s)
        # s with up to three more edges: the identity from s to it meets forth, and back may fail
        extra = {(rng.randrange(s.n), rng.randrange(s.n)) for _ in range(rng.randint(1, 3))}
        bigger = L.make_lts(s.props.names, s.n, set(s.edges) | extra,
                            dict(enumerate(s.colours)), s.init)
        for a, b in ((s, q), (s, _with_copy(s, rng.randrange(s.n))), (s, systems[i - 1]),
                     (s, bigger), (bigger, s)):
            for rel in _relations(rng, a, b):
                failed = _pair_scan_failures(a, b, rel)
                seen[frozenset(failed)] += 1
                assert L.is_bisimulation(a, b, rel) == (not failed), (i, sorted(rel))
                assert L.is_bisimulation(b, a, {(v, u) for u, v in rel}) == (not failed)
    atom = sum(k for failed, k in seen.items() if "atom" in failed)
    assert min(seen[frozenset()], seen[frozenset({"forth"})], seen[frozenset({"back"})], atom) >= 200, seen


def test_quotient_is_bisimilar():
    rng = random.Random(3)
    for _ in range(20):
        s = gen.rand_lts(rng, ("p", "q"), max_states=6)
        q = L.quotient(s)
        assert q.n <= s.n
        assert L.bisimilar(s, q) is not None


def test_unravel_self_loop_and_counts():
    loop = L.make_lts(["p"], 1, [(0, 0)], {0: ["p"]})
    u = L.unravel_to_depth(loop, 2)
    assert u.n == 3 and L.validate(u).tree is not None
    branching = L.make_lts(["p"], 2, [(0, 0), (0, 1), (1, 0), (1, 1)], {})
    u3 = L.unravel_to_depth(branching, 3)
    leaves = [s for s, ts in enumerate(u3.successor_table()) if not ts]
    assert len(leaves) == 2 ** 3


def test_unravel_fixes_trees():
    t = L.make_lts(["p"], 3, [(0, 1), (0, 2)], {1: ["p"]})
    u = L.unravel_to_depth(t, 5)
    rel = L.bisimilar(t, u)
    assert rel is not None and u.n == t.n


def test_unravel_depth_equivalence():
    rng = random.Random(11)
    for _ in range(20):
        s = gen.rand_lts(rng, ("p",), max_states=4)
        d = rng.randint(0, 3)
        assert L.bisimilar_to_depth(s, L.unravel_to_depth(s, d), d)


def test_bisimilar_to_depth_runs_deep():
    loop = L.make_lts(["p"], 1, [(0, 0)], {0: ["p"]})
    two = L.make_lts(["p"], 2, [(0, 1), (1, 0)], {0: ["p"], 1: ["p"]})
    assert L.bisimilar_to_depth(loop, loop, 10 ** 4)
    assert L.bisimilar_to_depth(loop, two, 10 ** 4)
    stop = L.make_lts(["p"], 1, [], {0: ["p"]})
    assert L.bisimilar_to_depth(loop, stop, 0)
    assert not L.bisimilar_to_depth(loop, stop, 10 ** 4)


def test_bisimilar_to_depth_past_the_sizes_is_bisimilarity():
    rng = random.Random(12)
    for _ in range(60):
        s = gen.rand_lts(rng, ("p",), max_states=5)
        t = gen.rand_lts(rng, ("p",), max_states=5)
        for d in (s.n + t.n, s.n + t.n + 7):
            assert L.bisimilar_to_depth(s, t, d) == (L.bisimilar(s, t) is not None)


def test_noetherian_subsets():
    t = L.make_lts(["p"], 3, [(0, 1), (0, 2)], {})
    # every subset of a tree is noetherian
    for mask in range(8):
        xs = [s for s in range(3) if mask >> s & 1]
        assert L.noetherian_subset(t, xs)
    disc = L.LTS(L.PropSet(("p",)), 2, frozenset(), (frozenset(), frozenset()), 0)
    assert not L.noetherian_subset(disc, [0, 1])
    assert L.noetherian_subset(disc, [])


def test_noetherian_matches_explicit_bundle_search():
    # definition-level oracle: a set is coverable iff some state reaches
    # every member along explicit finite paths
    rng = random.Random(7)
    for _ in range(25):
        s = gen.rand_lts(rng, ("p",), max_states=4, edge_prob=0.3)
        succ = s.successor_table()
        xs = frozenset(st for st in s.states() if rng.random() < 0.5)

        def paths_from(root, limit):
            out = [(root,)]
            frontier = [(root,)]
            for _ in range(limit):
                nxt = []
                for path in frontier:
                    for t in succ[path[-1]]:
                        nxt.append(path + (t,))
                out.extend(nxt)
                frontier = nxt
            return out

        covered = False
        for root in s.states():
            reach = {p[-1] for p in paths_from(root, s.n)}
            if xs <= reach:
                covered = True
                break
        assert L.noetherian_subset(s, xs) == (covered or not xs)


def test_json_round_trip():
    s = L.make_lts(["p", "q"], 3, [(0, 1), (1, 2)], {0: ["p"], 2: ["q", "p"]})
    assert L.from_json(s.to_json()) == s


def test_successor_table_matches_the_edges():
    # the table is the stored relation: each state's distinct targets,
    # ascending, whatever the order and repetition of the edges it was made from
    rng = random.Random(13)
    sinks = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        s = L.make_lts(["p"], n, edges, {})
        table = s.successor_table()
        assert len(table) == s.n and s.successor_table() is table
        for st in s.states():
            assert table[st] == tuple(sorted({t for u, t in edges if u == st}))
            sinks += not table[st]
        assert s.edges == frozenset(edges)
        assert L.from_json(s.to_json()) == s
    assert sinks > 0
    with pytest.raises(ValueError, match="dangling source 5"):
        L.make_lts(["p"], 2, [(5, 0)], {})
