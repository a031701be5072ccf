"""Translations between automata and fixpoint formulas.

Automaton to formula: one pass over the clusters, sinks first.  Entries
become modalities guarded by the characteristic conjunction of the colour
they fire on (the colour test is required for equivalence), states of lower
clusters are replaced by their images, and the states of a cluster are
closed off one by one with binders matching their priority parity, lowest
priority innermost.

Formula to automaton: states are modal-argument subformulas tagged with
the dominant variable unfolded on the modal-free path that reaches them;
the tag's binder supplies the state priority, so the dominant-unfolding
winning condition transfers to the acceptance game.  Clusters whose
priorities share a parity are collapsed to 0/1, which makes the output of
an alternation-free input weak.
"""
from __future__ import annotations

from dataclasses import dataclass

from .. import mucalc as mc
from .. import onestep as o
from ..lts import PropSet
from .core import (ParityAutomaton, _clusters, collapse_priorities,
                   occurrence_edges, pred_name, pred_state)


def colour_literal(props: PropSet, colour: frozenset[str]) -> mc.MuFormula:
    """Characteristic formula of a colour: which letters hold and which not."""
    parts: list[mc.MuFormula] = [mc.Prop(p) for p in props.names if p in colour]
    parts += [mc.NegProp(p) for p in props.names if p not in colour]
    return mc.mand(parts)


def _var(a: int) -> str:
    return "st%d" % a


def _modal_of_entry(f: o.Formula, images: dict[int, mc.MuFormula]) -> mc.MuFormula:
    """Turn a transition entry into a modality applied to state images."""
    states = sorted(pred_state(p) for p in o.predicates(f))
    renaming = dict(zip(map(pred_name, states), mc.arg_names(len(states))))
    return mc.Modal(o.rename_pred(f, renaming), tuple(images[s] for s in states))


def to_formula(aut: ParityAutomaton) -> mc.MuFormula:
    """Equivalent fixpoint formula; weak automata land in the
    alternation-free calculus and continuous-weak ones in the continuous
    calculus."""
    colours = aut.props.colours()
    edges = occurrence_edges(aut)
    images: dict[int, mc.MuFormula] = {}

    def entry_formula(b: int) -> mc.MuFormula:
        return mc.mor(
            mc.mand([colour_literal(aut.props, c), _modal_of_entry(aut.entry(b, c), images)])
            for c in colours
        )

    # clusters come sinks first, so every state an entry names outside its
    # own cluster already has its image
    for cluster in _clusters(aut.n, edges):
        if len(cluster) == 1 and (b := next(iter(cluster))) not in edges[b]:
            images[b] = entry_formula(b)
            continue
        order = sorted(cluster, key=lambda a: (aut.omega[a], a))
        for b in order:
            images[b] = mc.Prop(_var(b))
        tr = {b: entry_formula(b) for b in order}
        for b in order:
            binder = mc.Mu if aut.omega[b] % 2 == 1 else mc.Nu
            closed = binder(_var(b), tr[b])
            tr[b] = closed
            for b2 in order:
                if b2 != b:
                    tr[b2] = mc.substitute(tr[b2], {_var(b): closed})
        images.update(tr)

    formula = mc.refresh(images[aut.init], reserved=aut.props.names)
    mc.check_wf(formula)
    return formula


# ---------------------------------------------------------------------------
# formulas to automata


@dataclass(frozen=True)
class _State:
    chi: mc.MuFormula
    tag: str | None  # dominant variable on the entering path


def from_formula(f: mc.MuFormula, props: PropSet | None = None) -> ParityAutomaton:
    """Equivalent automaton over the formula's modality dialect.

    The input is guarded first; the alternation-free fragment yields weak
    automata and the continuous fragment continuous-weak ones.
    """
    mc.check_wf(f)
    if props is None:
        props = PropSet(tuple(sorted(mc.free_letters(f))))
    props.require(mc.free_letters(f))
    g = mc.guard_transform(f)
    dialect = mc.modal_dialect(g)
    prio = mc.binder_priorities(g)
    binder_body = {b.var: b.body for b, _ in mc.binders(g)}

    states: dict[_State, int] = {}  # numbered in insertion order

    def intern(st: _State) -> int:
        if st not in states:
            states[st] = len(states)
            todo.append(st)
        return states[st]

    def expand(chi: mc.MuFormula, colour: frozenset[str], path: frozenset[str]) -> o.Formula:
        match chi:
            case mc.Prop(p) if p not in binder_body:
                return o.TOP if p in colour else o.BOT
            case mc.NegProp(p):
                return o.BOT if p in colour else o.TOP
            case mc.Prop(p):
                if p in path:  # impossible after guarding; a cycle here would not terminate
                    raise AssertionError("unguarded regeneration of %r" % p)
                return expand(binder_body[p], colour, path | {p})
            case mc.MAnd(args):
                return o.conj(expand(a, colour, path) for a in args)
            case mc.MOr(args):
                return o.disj(expand(a, colour, path) for a in args)
            case mc.Modal(alpha, args):
                tag = max(path, key=prio.__getitem__, default=None)  # the dominant letter
                occurring = o.predicates(alpha)
                renaming = {}
                for name, a in zip(chi.pred_names(), args):
                    if name in occurring:
                        renaming[name] = pred_name(intern(_State(a, tag)))
                return o.rename_pred(alpha, renaming)
            case mc.Mu(p, b) | mc.Nu(p, b):
                return expand(b, colour, path)
        raise TypeError(chi)

    todo: list[_State] = []
    root = _State(g, None)
    intern(root)
    delta = {}
    colours = props.colours()
    while todo:
        st = todo.pop()
        # a state's own unfolding starts below its entering tag
        for c in colours:
            delta[(states[st], c)] = expand(st.chi, c, frozenset())

    omega = tuple(prio[st.tag] if st.tag is not None else 0 for st in states)
    neutral = frozenset(i for i, st in enumerate(states) if st.tag is None)
    aut = ParityAutomaton(dialect, props, len(states), states[root], omega, delta)
    # untagged states never form a cycle among themselves: a modality-free
    # expansion that unfolds no variable descends strictly through the formula
    return collapse_priorities(aut, neutral)

