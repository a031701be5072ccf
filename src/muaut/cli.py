"""Command-line workbench.

Subcommands mirror the library modules; `fuzz` runs seeded randomized
cross-validation suites and emits machine-readable reports whose failures
carry enough information to be replayed bit-identically.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from dataclasses import asdict, dataclass, field

from . import automata as au
from . import fixpoint as fx
from . import gen
from . import lts as L
from . import mso
from . import mucalc as mc
from . import onestep as o
from . import paritygame as pg

SIZE_CAPS = {
    "max_states": 6,
    "aut_states": 3,
    "props": ("p", "q"),
}


@dataclass
class RunReport:
    command: str
    seed: int | None
    instances: int
    passed: int
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return asdict(self)


def _print_report(rep: RunReport, json_path: str | None):
    if json_path:
        with open(json_path, "w") as f:
            json.dump(rep.to_json(), f, indent=2, sort_keys=True)
    print("%s: %d/%d passed" % (rep.command, rep.passed, rep.instances))
    for fail in rep.failures[:10]:
        print("  FAIL #%d: %s" % (fail["index"], fail.get("detail", "")))
    if rep.info:
        for k, v in sorted(rep.info.items()):
            print("  %s: %s" % (k, v))


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# fuzz suites: each takes (rng) and returns (ok, detail, replay-data)


def _suite_adequacy(rng):
    f = gen.rand_mu(rng, SIZE_CAPS["props"], depth=rng.randint(1, 3),
                    mode=rng.choice(["any", "af", "cont"]))
    lts = gen.rand_lts(rng, SIZE_CAPS["props"], max_states=SIZE_CAPS["max_states"])
    sem = lts.init in mc.semantics_eval(f, lts)
    game = mc.game_value(f, lts)
    aut = au.from_formula(f, lts.props)
    acc = au.accepts(aut, lts)
    ok = sem == game == acc
    detail = "formula=%s semantics=%s game=%s automaton=%s" % (mc.pretty(f), sem, game, acc)
    return ok, detail, {"formula": mc.pretty(f), "lts": lts.to_json()}


def _suite_complement(rng):
    aut = gen.rand_automaton(rng, ("p",), rng.randint(1, SIZE_CAPS["aut_states"]),
                             dialect=rng.choice([o.FOE1, o.FOE1INF]), want="any")
    lts = gen.rand_lts(rng, ("p",), max_states=SIZE_CAPS["max_states"])
    a = au.accepts(aut, lts)
    b = au.accepts(au.complement(aut), lts)
    return a != b, "accepts=%s complement=%s" % (a, b), {"automaton": aut.to_json(), "lts": lts.to_json()}


def _suite_simulation(rng):
    kind = rng.choice(["finitary", "noetherian"])
    n = rng.choice([1, 1, 2, 2, 2, 3])
    if kind == "finitary":
        aut = gen.rand_automaton(rng, ("p",), n, dialect=o.FOE1INF, want="cw")
        sim = au.finitary_construct(aut)
        classified = au.classify_automaton(sim).continuous_weak
    else:
        aut = gen.rand_automaton(rng, ("p",), n, dialect=o.FOE1, want="weak")
        sim = au.noetherian_construct(aut)
        classified = au.classify_automaton(sim).weak
    tree = gen.rand_tree(rng, ("p",), depth=3, max_branch=2)
    same = au.accepts(aut, tree) == au.accepts(sim, tree)
    ok = same and classified
    return ok, "kind=%s agree=%s classified=%s" % (kind, same, classified), {
        "automaton": aut.to_json(), "tree": tree.to_json(), "kind": kind}


def _suite_projection(rng):
    kind = rng.choice(["finitary", "noetherian"])
    props = L.PropSet(("p", "r"))
    if kind == "finitary":
        aut = gen.rand_automaton(rng, ("p", "r"), rng.randint(1, 2), dialect=o.FOE1INF, want="cw")
        sim = au.finitary_construct(aut)
    else:
        aut = gen.rand_automaton(rng, ("p", "r"), rng.randint(1, 2), dialect=o.FOE1, want="weak")
        sim = au.noetherian_construct(aut)
    proj = au.project(sim, "r")
    tree = gen.rand_tree(rng, ("p",), depth=2, max_branch=2)
    lhs = au.accepts(proj, tree)
    rhs = False
    for mask in range(1 << tree.n):
        xs = [s for s in range(tree.n) if mask >> s & 1]
        variant = L.p_variant(tree, "r", xs)
        if au.accepts(aut, variant):
            rhs = True
            break
    return lhs == rhs, "kind=%s projected=%s exists-variant=%s" % (kind, lhs, rhs), {
        "automaton": aut.to_json(), "tree": tree.to_json(), "kind": kind}


def _suite_roundtrip(rng):
    direction = rng.choice(["formula", "automaton"])
    if direction == "formula":
        f = gen.rand_mu(rng, ("p",), depth=2, mode=rng.choice(["af", "cont"]))
        aut = au.from_formula(f, L.PropSet(("p",)))
        lts = gen.rand_lts(rng, ("p",), max_states=4)
        ok = au.accepts(aut, lts) == (lts.init in mc.semantics_eval(f, lts))
        return ok, mc.pretty(f), {"formula": mc.pretty(f), "lts": lts.to_json()}
    aut = gen.rand_automaton(rng, ("p",), rng.randint(1, 2),
                             dialect=rng.choice([o.FO1, o.FOE1, o.FOE1INF]), want="any")
    f = au.to_formula(aut)
    lts = gen.rand_lts(rng, ("p",), max_states=4)
    ok = au.accepts(aut, lts) == (lts.init in mc.semantics_eval(f, lts))
    return ok, "states=%d" % aut.n, {"automaton": aut.to_json(), "lts": lts.to_json()}


def _suite_normalform(rng):
    dialect = rng.choice([o.FO1, o.FOE1, o.FOE1INF])
    f = gen.rand_onestep(rng, ("a", "b"), 2, dialect, positive=True)
    bf = o.to_basic_form(f)
    ok = o.equivalent(f, o.expand(bf), o.rank(f.ast) + 1)
    return ok, o.pretty(f.ast), {"formula": o.pretty(f.ast), "dialect": dialect}


def _suite_dual(rng):
    dialect = rng.choice([o.FOE1, o.FOE1INF])
    f = gen.rand_onestep(rng, ("a", "b"), 2, dialect, positive=False)
    d = o.dual(f.ast)
    for m in o.all_models(("a", "b"), 2):
        if o.eval_finite(f.ast, m) == o.eval_finite(d, m.complemented(("a", "b"))):
            return False, o.pretty(f.ast), {"formula": o.pretty(f.ast), "dialect": dialect}
    return True, o.pretty(f.ast), {"formula": o.pretty(f.ast), "dialect": dialect}


def _suite_mso_agree(rng):
    logic = rng.choice(["wmso", "nmso"])
    pool = [
        "down p", "p sub q", "Rel(p,q)", "~down p", "down p | p sub q",
        "ex r. down r", "ex r. (r sub p)", "~ex r. Rel(r,p)",
    ]
    text = rng.choice(pool)
    f = mso.parse1(text, logic)
    aut = mso.compile_mso(f, logic, L.PropSet(("p", "q")))
    tree = gen.rand_tree(rng, ("p", "q"), depth=2, max_branch=2)
    ok = mso.eval_mso(f, tree) == au.accepts(aut, tree)
    return ok, "%s (%s)" % (text, logic), {"formula": text, "logic": logic, "tree": tree.to_json()}


def _suite_keyfix(rng):
    logic = rng.choice(["wmso", "nmso"])
    mode = "cont" if logic == "wmso" else "af"
    body = gen.rand_mu(rng, ("p",), depth=2, mode=mode)
    body = mc.MOr((body, mc.dia(mc.Prop("r"))))
    lts = gen.rand_lts(rng, ("p",), max_states=4)
    lts = L.p_variant(lts, "r", [])
    F = fx.formula_functional(body, "r", lts)
    fix, _ = fx.lfp(F)
    noeth = logic == "nmso"
    for s in sorted(F.carrier):
        w = fx.brute_force_witness(F, s, noetherian_only=noeth)
        if (w is None) == (s in fix):
            return False, "state %d" % s, {"lts": lts.to_json(), "body": mc.pretty(body)}
        if w is not None and s not in fx.lfp(fx.restrict(F, w))[0]:
            return False, "invalid witness", {"lts": lts.to_json(), "body": mc.pretty(body)}
    return True, mc.pretty(body), {"lts": lts.to_json(), "body": mc.pretty(body)}


def _suite_diamond(rng):
    which = rng.choice(["onestep", "automaton"])
    if which == "onestep":
        dialect = rng.choice([o.FOE1, o.FOE1INF])
        f = gen.rand_onestep(rng, ("a", "b"), 2, dialect, positive=True)
        dia = o.diamond_translate(o.to_basic_form(f))
        by_types = {}  # the weighted model depends only on the realized types
        for m in o.all_models(("a", "b"), 3):
            types = frozenset(map(m.element_type, range(m.size)))
            if types not in by_types:
                wm = o.weighted(("a", "b"), dict.fromkeys(types, o.OMEGA))
                by_types[types] = o.eval_weighted(f.ast, wm)
            if o.eval_finite(dia.ast, m) != by_types[types]:
                return False, o.pretty(f.ast), {"formula": o.pretty(f.ast), "dialect": dialect}
        return True, o.pretty(f.ast), {"formula": o.pretty(f.ast), "dialect": dialect}
    f = gen.rand_mu(rng, ("p",), depth=2, mode="any")
    aut = au.from_formula(f, L.PropSet(("p",)))
    if aut.dialect == o.FO1:
        lifted = au.ParityAutomaton(o.FOE1, aut.props, aut.n, aut.init, aut.omega, aut.delta)
    else:
        lifted = aut
    dia_aut = au.diamond_automaton(lifted)
    lts = gen.rand_lts(rng, ("p",), max_states=5)
    ok = au.accepts(lifted, lts) == au.accepts(dia_aut, lts)
    return ok, mc.pretty(f), {"formula": mc.pretty(f), "lts": lts.to_json()}


SUITES = {
    "adequacy": _suite_adequacy,
    "complement": _suite_complement,
    "simulation": _suite_simulation,
    "projection": _suite_projection,
    "roundtrip": _suite_roundtrip,
    "normalform": _suite_normalform,
    "dual": _suite_dual,
    "mso-agree": _suite_mso_agree,
    "keyfix": _suite_keyfix,
    "diamond": _suite_diamond,
}


def _run_instance(suite: str, seed: int, index: int) -> dict | None:
    """Run one fuzz instance; its failure record, or None when it passes.

    An instance that raises is a failure too, carrying the exception text
    and the stanza that replays it.
    """
    stanza = {"suite": suite, "seed": seed, "index": index}
    fn = SUITES[suite]
    try:
        ok, detail, replay_data = fn(_instance_rng(seed, index))
    except Exception as e:
        text = "%s: %s" % (type(e).__name__, e)
        return {"index": index, "detail": "raised " + text, "exception": text,
                "traceback": traceback.format_exc(), "replay": stanza}
    if ok:
        return None
    return {"index": index, "detail": detail, "replay": {**stanza, **replay_data}}


def run_fuzz(suite: str, n: int, seed: int) -> RunReport:
    if suite not in SUITES:
        raise KeyError("unknown suite %r (have: %s)" % (suite, ", ".join(sorted(SUITES))))
    rep = RunReport("fuzz %s" % suite, seed, n, 0)
    for i in range(n):
        fail = _run_instance(suite, seed, i)
        if fail is None:
            rep.passed += 1
        else:
            rep.failures.append(fail)
    return rep


def replay(path: str) -> RunReport:
    with open(path) as f:
        data = json.load(f)
    with L.json_shape("replay"):
        if "replay" in data:
            data = data["replay"]
        suite, seed, index = data["suite"], data["seed"], data["index"]
        if suite not in SUITES or not isinstance(seed, int) or not isinstance(index, int):
            raise ValueError("malformed replay JSON: need a known suite, an integer seed and index")
    fail = _run_instance(suite, seed, index)
    rep = RunReport("replay %s#%d" % (suite, index), seed, 1, 0 if fail else 1)
    if fail:
        rep.failures.append(fail)
    return rep


# ---------------------------------------------------------------------------
# direct subcommands


def _cmd_lts(args) -> int:
    if args.action == "validate":
        try:
            lts = L.load(args.file)
        except ValueError as e:
            print("invalid: %s" % e)
            return 1
        rep = L.validate(lts)
        print("ok; %d states reachable; %s" % (
            len(rep.reachable), "tree" if rep.tree else "not a tree"))
        return 0
    a, b = L.load(args.file), L.load(args.other)
    rel = L.bisimilar(a, b)
    if rel is None:
        print("not bisimilar")
        return 1
    print("bisimilar; relation size %d" % len(rel))
    return 0


def _cmd_onestep(args) -> int:
    f = o.parse(args.formula, args.dialect or None)
    if args.action == "eval":
        with open(args.model) as fh:
            data = json.load(fh)
        with L.json_shape("model"):
            m = o.OneStepModel(data["size"], {k: frozenset(L.json_list(v, "an extension"))
                                              for k, v in data.get("valuation", {}).items()})
        print(str(o.eval_capped(f.ast, m.valuation, [range(m.size)])[0]).lower())
        return 0
    if args.action == "dual":
        print(o.pretty(o.dual(f.ast)))
        return 0
    if args.action == "nf":
        bf = o.to_basic_form(f)
        print(o.pretty(o.expand(bf).ast))
        return 0
    if args.action == "diamond":
        print(o.pretty(o.diamond_translate(o.to_basic_form(f)).ast))
        return 0
    raise AssertionError


def _cmd_game(args) -> int:
    g = pg.load(args.file)
    sol = pg.solve(g)
    print("exists wins:", sorted(sol.win_exists))
    print("forall wins:", sorted(sol.win_forall))
    return 0


def _cmd_mu(args) -> int:
    f = mc.parse(args.formula)
    if args.action == "classify":
        rep = mc.classify(f)
        print("plain-modal=%s alternation-free=%s continuous=%s guarded=%s" % (
            rep.plain_modal, rep.alternation_free, rep.continuous_calculus, rep.guarded))
        return 0
    if args.action == "guard":
        print(mc.pretty(mc.guard_transform(f)))
        return 0
    lts = L.load(args.lts)
    if args.action == "eval":
        states = mc.semantics_eval(f, lts)
        print(str(lts.init in states).lower())
        print("holds at:", sorted(states))
        return 0
    if args.action == "game":
        eg = mc.build_eval_game(f, lts)
        won = eg.root in pg.solve(eg.game).win_exists
        print("positions: %d; exists wins root: %s" % (eg.game.n, str(won).lower()))
        return 0
    raise AssertionError


def _cmd_aut(args) -> int:
    if args.action == "fromformula":
        f = mc.parse(args.formula)
        # an empty --props names the letter "", refused as in mso compile
        props = None if args.props is None else L.PropSet(tuple(args.props.split(",")))
        aut = au.from_formula(f, props)
        print(json.dumps(aut.to_json(), indent=2, sort_keys=True))
        return 0
    aut = au.load(getattr(args, "in"))
    if args.action == "accept":
        lts = L.load(args.lts)
        print(str(au.accepts(aut, lts)).lower())
        return 0
    if args.action == "complement":
        print(json.dumps(au.complement(aut).to_json(), indent=2, sort_keys=True))
        return 0
    if args.action == "classify":
        rep = au.classify_automaton(aut)
        print("clusters:", [sorted(c) for c in rep.clusters])
        print("weak=%s continuous-weak=%s" % (rep.weak, rep.continuous_weak))
        return 0
    if args.action == "toformula":
        print(mc.pretty(au.to_formula(aut)))
        return 0
    if args.action == "project":
        print(json.dumps(au.project(aut, args.letter).to_json(), indent=2, sort_keys=True))
        return 0
    if args.action == "diamond":
        print(json.dumps(au.diamond_automaton(aut).to_json(), indent=2, sort_keys=True))
        return 0
    if args.action == "simulate":
        sim = au.finitary_construct(aut) if args.kind == "finitary" else au.noetherian_construct(aut)
        if args.check_equiv:
            rng = random.Random(args.seed)
            bad = 0
            for i in range(args.trees):
                tree = gen.rand_tree(rng, aut.props.names, depth=3, max_branch=2)
                if au.accepts(aut, tree) != au.accepts(sim, tree):
                    bad += 1
            print("equivalence check: %d/%d trees agree" % (args.trees - bad, args.trees))
            if bad:
                return 1
        else:
            print(json.dumps(sim.to_json(), indent=2, sort_keys=True))
        return 0
    raise AssertionError


def _cmd_mso(args) -> int:
    if args.action == "frommu":
        f = mc.parse(args.formula)
        print(mso.pretty(mso.mu_to_mso(f, args.logic)))
        return 0
    if args.action == "eval":
        lts = L.load(args.lts)
        if args.two_sorted:
            f2 = mso.parse2(args.formula, args.logic)
            print(str(mso.holds_at_init(f2, lts)).lower())
        else:
            f1 = mso.parse1(args.formula, args.logic)
            print(str(mso.eval_mso(f1, lts)).lower())
        return 0
    if args.action == "compile":
        f1 = mso.parse1(args.formula, args.logic)
        props = L.PropSet(tuple(args.props.split(",")))
        aut = mso.compile_mso(f1, args.logic, props)
        if args.lts:
            lts = L.load(args.lts)
            if L.validate(lts).tree is None and not args.force:
                print("input is not a tree; compiled automata are tree-sound only (use --force)")
                return 2
            print(str(au.accepts(aut, lts)).lower())
        else:
            print(json.dumps(aut.to_json(), indent=2, sort_keys=True))
        return 0
    raise AssertionError


def _cmd_fix(args) -> int:
    lts = L.load(args.lts)
    body = mc.parse(args.formula)
    F = fx.formula_functional(body, args.var, lts)
    if args.action == "trace":
        fix, trace = fx.lfp(F)
        for i, st in enumerate(trace):
            print("stage %d: %s" % (i, sorted(st)))
        print("fixpoint:", sorted(fix))
        return 0
    if args.action == "witness":
        w = fx.finite_witness(F, args.state)
        if w is None:
            print("state %d is not in the least fixpoint" % args.state)
            return 1
        print("witness:", sorted(w))
        return 0
    if args.action == "unfold":
        region = fx.unfolding_region(F)
        fix, _ = fx.lfp(F)
        print("game region:", sorted(region))
        print("fixpoint:  ", sorted(fix))
        return 0 if region == fix else 1
    raise AssertionError


def build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=1)
    reported = argparse.ArgumentParser(add_help=False)
    reported.add_argument("--json", dest="json_path", default=None, help="write the report as JSON")
    p = argparse.ArgumentParser(prog="wb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("lts")
    sp.add_argument("action", choices=["validate", "bisim"])
    sp.add_argument("file")
    sp.add_argument("other", nargs="?")

    sp = sub.add_parser("onestep")
    sp.add_argument("action", choices=["eval", "dual", "nf", "diamond"])
    sp.add_argument("formula")
    sp.add_argument("--dialect", choices=list(o.DIALECTS), default=None)
    sp.add_argument("--model", help="JSON file with size/valuation", default=None)

    sp = sub.add_parser("game")
    sp.add_argument("action", choices=["solve"])
    sp.add_argument("file")

    sp = sub.add_parser("mu")
    sp.add_argument("action", choices=["eval", "game", "classify", "guard"])
    sp.add_argument("formula")
    sp.add_argument("--lts")

    sp = sub.add_parser("aut", parents=[seeded])
    sp.add_argument("action", choices=["accept", "complement", "classify", "toformula",
                                       "fromformula", "simulate", "project", "diamond"])
    sp.add_argument("formula", nargs="?")
    sp.add_argument("--in", dest="in")
    sp.add_argument("--lts")
    sp.add_argument("--props")
    sp.add_argument("--letter")
    sp.add_argument("--kind", choices=["finitary", "noetherian"], default="finitary")
    sp.add_argument("--check-equiv", action="store_true")
    sp.add_argument("--trees", type=int, default=30)

    sp = sub.add_parser("mso")
    sp.add_argument("action", choices=["eval", "compile", "frommu"])
    sp.add_argument("formula")
    sp.add_argument("--logic", choices=["wmso", "nmso", "smso"], default="wmso")
    sp.add_argument("--lts")
    sp.add_argument("--props", default="p,q")
    sp.add_argument("--two-sorted", action="store_true")
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("fix")
    sp.add_argument("action", choices=["trace", "witness", "unfold"])
    sp.add_argument("formula")
    sp.add_argument("--var", required=True)
    sp.add_argument("--lts", required=True)
    sp.add_argument("--state", type=int, default=0)

    sp = sub.add_parser("fuzz", parents=[seeded, reported])
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--n", type=int, default=100)

    sp = sub.add_parser("replay", parents=[reported])
    sp.add_argument("file")

    return p


# the companion arguments each (command, action) reads, as written in `wb`
COMPANIONS = {
    ("lts", "bisim"): ("other",),
    ("onestep", "eval"): ("--model",),
    ("mu", "eval"): ("--lts",),
    ("mu", "game"): ("--lts",),
    ("aut", "fromformula"): ("formula",),
    ("aut", "accept"): ("--in", "--lts"),
    ("aut", "project"): ("--in", "--letter"),
    **{("aut", a): ("--in",) for a in ("complement", "classify", "toformula", "simulate", "diamond")},
    ("mso", "eval"): ("--lts",),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        missing = [name for name in COMPANIONS.get((args.command, getattr(args, "action", None)), ())
                   if getattr(args, name.lstrip("-")) is None]
        if missing:
            parser.error("%s %s needs %s" % (args.command, args.action, " and ".join(missing)))
        negative = [name for name in ("n", "trees") if getattr(args, name, 0) < 0]
        if negative:
            parser.error("argument --%s: must not be negative" % negative[0])
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "fuzz":
            rep = run_fuzz(args.suite, args.n, args.seed)
            _print_report(rep, args.json_path)
            return 0 if rep.ok() else 1
        if args.command == "replay":
            rep = replay(args.file)
            _print_report(rep, args.json_path)
            return 0 if rep.ok() else 1
        handler = {
            "lts": _cmd_lts, "onestep": _cmd_onestep, "game": _cmd_game,
            "mu": _cmd_mu, "aut": _cmd_aut, "mso": _cmd_mso, "fix": _cmd_fix,
        }[args.command]
        return handler(args)
    except (ValueError, KeyError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RecursionError:  # parsing has its own bound; a later walk overflowed
        print("error: formula too deep to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
