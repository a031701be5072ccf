"""Seeded inputs and per-instance verdict checks for the three workloads.

`setup(name, seed)` builds one workload's instances.  Generated inputs are
written in the library's exchange formats (LTS, automaton and game JSON,
fixpoint formula text), read back, and only the parsed copies are run; the
written texts are hashed into the input digest, so a change to `muaut.gen`
that alters a workload shows as a changed digest.  Each instance is a
zero-argument callable that returns True when the program's verdict agrees
with that instance's independent oracle.

Instance costs are heavy-tailed: one criterion-5 automaton costs tens of
seconds and the median one milliseconds, and `wb fuzz` at seed 1 takes three
times as long as at seed 7.  Drawing the instances from `--seed` would make
the timing measure the draw, so every workload runs a fixed corpus at its
default seed, and `--seed` draws only what leaves the work nearly unchanged:
a permutation of the states of every `construct` check tree, and the order
of the `games` instances.  `fuzz` has no such freedom: its bodies draw their
own inputs, and reordering them moves the cold normal-form calls, so it runs
the same instances in the same order for every `--seed`.
"""
from __future__ import annotations

import hashlib
import json
import random

from muaut import automata as au
from muaut import cli
from muaut import gen
from muaut import lts as L
from muaut import mucalc as mc
from muaut import onestep as o
from muaut import paritygame as pg

CONSTRUCT_SEED = 105  # the criterion-5 stream of the acceptance suite
# finitary instances, then as many noetherian ones; at 30 each the instance
# times either side of the median and of the tail rank were too sparse, so
# one instance's noise moved p50 and tail by 10-30%
CONSTRUCT_EACH = 60
FUZZ_SEED = 7
FUZZ_COUNT = 200      # instances per `wb fuzz` suite

# games: sizes chosen so arena building and solving carry most of the time,
# with out-degree capped so minimal-valuation counts (exponential in the
# degree) stay bounded, and ladders kept below the solver's recursion limit.
GAMES_SEED = 1
COMPLEMENT_COUNT = 90
COMPLEMENT_STATES = 120
ADEQUACY_COUNT = 40
ADEQUACY_STATES = 100
MAX_OUT = 5
LADDERS = (250, 300, 350)
RANDOM_GAMES = 6
RANDOM_GAME_STATES = 3000
RANDOM_GAME_PRIORITIES = 24


class Digest:
    """Running hash over the exchange-format texts of a workload's inputs."""

    def __init__(self):
        self._h = hashlib.sha256()

    def text(self, s: str) -> str:
        self._h.update(s.encode())
        self._h.update(b"\0")
        return s

    def json(self, data) -> dict:
        return json.loads(self.text(json.dumps(data, sort_keys=True)))

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def _roundtrip_automaton(d: Digest, aut):
    back = au.automaton_from_json(d.json(aut.to_json()))
    if back.to_json() != aut.to_json() or back.delta != aut.delta:
        raise ValueError("automaton JSON round trip is not exact")
    return back


def _roundtrip_lts(d: Digest, lts):
    back = L.from_json(d.json(lts.to_json()))
    if back != lts:
        raise ValueError("LTS JSON round trip is not exact")
    return back


def _roundtrip_mu(d: Digest, f):
    back = mc.parse(d.text(mc.pretty(f)))
    if back != f:
        raise ValueError("formula text round trip is not exact")
    return back


def _roundtrip_game(d: Digest, g):
    back = pg.game_from_json(d.json(g.to_json()))
    if back != g:
        raise ValueError("game JSON round trip is not exact")
    return back


def relabel_lts(rng: random.Random, lts):
    """Isomorphic copy under a random permutation of the states."""
    perm = list(range(lts.n))
    rng.shuffle(perm)
    return L.make_lts(lts.props.names, lts.n, [(perm[a], perm[b]) for a, b in lts.edges],
                      {perm[s]: lts.colours[s] for s in range(lts.n)}, init=perm[lts.init])


# ---------------------------------------------------------------------------
# construct


def construct_inputs(seed: int, d: Digest):
    """The criterion-5 stream: (kind, automaton, check tree) per instance,
    from the acceptance suite's generator at seed 105 in its order; each
    check tree is relabelled by a permutation drawn from `seed`."""
    rng = random.Random(CONSTRUCT_SEED)
    perms = random.Random(seed)
    out = []
    for kind, dialect, want in (("finitary", o.FOE1INF, "cw"), ("noetherian", o.FOE1, "weak")):
        for _ in range(CONSTRUCT_EACH):
            aut = gen.rand_automaton(rng, ("p",), rng.choice([1, 2, 2, 3]),
                                     dialect=dialect, want=want)
            tree = relabel_lts(perms, gen.rand_tree(rng, ("p",), depth=3, max_branch=2))
            out.append((kind, _roundtrip_automaton(d, aut), _roundtrip_lts(d, tree)))
    return out


def _construct(kind, aut):
    if kind == "finitary":
        return au.finitary_construct(aut)
    return au.noetherian_construct(aut)


def _construct_instance(kind, aut, tree):
    def run():
        sim = _construct(kind, aut)
        rep = au.classify_automaton(sim)
        classified = rep.continuous_weak if kind == "finitary" else rep.weak
        return classified and au.accepts(aut, tree) == au.accepts(sim, tree)
    return run


def construct_outputs(seed: int) -> list[str]:
    """Hash of each constructed automaton's JSON, in stream order."""
    return [hashlib.sha256(json.dumps(_construct(kind, aut).to_json(), sort_keys=True)
                           .encode()).hexdigest()[:16]
            for kind, aut, _ in construct_inputs(seed, Digest())]


# ---------------------------------------------------------------------------
# games


def bounded_lts(rng: random.Random, props, n: int):
    """Random LTS on n states with every out-degree in 1..MAX_OUT."""
    edges = [(a, b) for a in range(n) for b in rng.sample(range(n), rng.randint(1, MAX_OUT))]
    cols = {s: [p for p in props if rng.random() < 0.4] for s in range(n)}
    return L.make_lts(props, n, edges, cols, init=rng.randrange(n))


def ladder(n: int):
    """Self-loop ladder: position i loops with priority i or steps to i+1;
    owners alternate.  Zielonka recursion reaches depth ~n on it."""
    moves = tuple((i, i + 1) if i + 1 < n else (i,) for i in range(n))
    return pg.ParityGame(tuple(i % 2 for i in range(n)), moves, tuple(range(n)))


def random_game(rng: random.Random, n: int, priorities: int):
    owner = tuple(rng.randrange(2) for _ in range(n))
    moves = tuple(tuple(sorted(set(rng.randrange(n) for _ in range(rng.randint(1, 3)))))
                  for _ in range(n))
    return pg.ParityGame(owner, moves, tuple(rng.randrange(priorities) for _ in range(n)))


def _complement_instance(aut, lts):
    return lambda: au.accepts(aut, lts) != au.accepts(au.complement(aut), lts)


def _adequacy_instance(f, lts):
    def run():
        sem = lts.init in mc.semantics_eval(f, lts)
        return sem == mc.game_value(f, lts) == au.accepts(au.from_formula(f, lts.props), lts)
    return run


def _quotient_instance(lts):
    def run():
        q = L.quotient(lts)
        rel = L.bisimilar(lts, q)
        return rel is not None and q.n <= lts.n and L.is_bisimulation(lts, q, rel)
    return run


def _solve_instance(g):
    return lambda: pg.check_strategy(g, pg.solve(g))


def games_inputs(seed: int, d: Digest):
    """The corpus at generator seed 1 (complement-xor, adequacy triples,
    quotient/bisimilar on the adequacy systems, ladders, random
    many-priority games), run in an order drawn from `seed`.  No cache spans
    games instances, so their order leaves every instance's work unchanged;
    relabelling the states instead changed single instances' costs enough to
    spread the median instance time by ~8% (CV over eight seeds)."""
    corpus = random.Random(GAMES_SEED)

    def system(props, n):
        return _roundtrip_lts(d, bounded_lts(corpus, props, n))

    out = []
    for _ in range(COMPLEMENT_COUNT):
        aut = gen.rand_automaton(corpus, ("p",), corpus.randint(2, 3),
                                 dialect=corpus.choice([o.FOE1, o.FOE1INF]), want="any")
        out.append(_complement_instance(_roundtrip_automaton(d, aut),
                                        system(("p",), COMPLEMENT_STATES)))
    systems = []
    for _ in range(ADEQUACY_COUNT):
        f = gen.rand_mu(corpus, ("p", "q"), depth=5, mode=corpus.choice(["any", "af", "cont"]),
                        modalities=corpus.choice([o.FOE1, o.FOE1INF]))
        systems.append(system(("p", "q"), ADEQUACY_STATES))
        out.append(_adequacy_instance(_roundtrip_mu(d, f), systems[-1]))
    out += [_quotient_instance(lts) for lts in systems]
    out += [_solve_instance(_roundtrip_game(d, ladder(n))) for n in LADDERS]
    out += [_solve_instance(_roundtrip_game(
        d, random_game(corpus, RANDOM_GAME_STATES, RANDOM_GAME_PRIORITIES)))
            for _ in range(RANDOM_GAMES)]
    order = list(range(len(out)))
    random.Random(seed).shuffle(order)
    d.text(" ".join(map(str, order)))
    return [out[i] for i in order]


# ---------------------------------------------------------------------------
# fuzz


def fuzz_instance(suite: str, index: int, replays: dict):
    """One `wb fuzz` suite body at seed 7; it draws its own inputs, so the
    digest is taken over the replay data it returns (see `fuzz_digest`)."""
    def run():
        ok, _, replay = cli.SUITES[suite](cli._instance_rng(FUZZ_SEED, index))
        replays[(suite, index)] = replay
        return ok
    return run


def fuzz_digest(replays: dict) -> str:
    d = Digest()
    for key in sorted(replays):
        d.json([key, replays[key]])
    return d.hexdigest()


def setup(name: str, seed: int):
    """(instances, digest) for one workload; `digest()` is called after the
    pass, because fuzz bodies generate their inputs while they run."""
    d = Digest()
    if name == "construct":
        instances = [_construct_instance(*x) for x in construct_inputs(seed, d)]
    elif name == "games":
        instances = games_inputs(seed, d)
    elif name == "fuzz":
        replays: dict = {}
        instances = [fuzz_instance(s, i, replays)
                     for s in sorted(cli.SUITES) for i in range(FUZZ_COUNT)]
        return instances, lambda: fuzz_digest(replays)
    else:
        raise ValueError("unknown workload %r" % name)
    return instances, d.hexdigest
