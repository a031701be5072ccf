"""Parity automata: acceptance, closure operations, translations, constructs."""

from .core import (AcceptanceGame, AlphabetMismatch, ClusterReport,
                   ParityAutomaton, acceptance_game, accepts,
                   automaton_from_json, classify_automaton, collapse_priorities,
                   complement, constant_automaton, load, pred_name, pred_state,
                   trim, union_automaton)
from .constructs import (ConstructError, diamond_automaton,
                         finitary_construct, noetherian_construct, project)
from .translate import colour_literal, from_formula, to_formula

__all__ = [n for n in dir() if not n.startswith("_")]
