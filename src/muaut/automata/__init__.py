"""Parity automata: acceptance, closure operations, translations, constructs."""

from .core import (AcceptanceGame, AlphabetMismatch, ClusterReport,
                   NotWeakError, ParityAutomaton, acceptance_game, accepts,
                   automaton_from_json, classify_automaton, complement,
                   constant_automaton, load, normalize_weak_priorities,
                   occurrence_edges, pred_name, pred_state, trim,
                   union_automaton)
from .constructs import (ConstructError, diamond_automaton,
                         finitary_construct, noetherian_construct, project)
from .translate import colour_literal, from_formula, to_formula

__all__ = [n for n in dir() if not n.startswith("_")]
