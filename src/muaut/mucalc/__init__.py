"""Fixpoint calculi over one-step modalities."""

from .ast import (GRAMMAR, MAnd, MBOT, MOr, MTOP, Modal, Mu, MuFormula,
                  NegProp, Nu, Prop, IllFormedError, arg_names, binders, box,
                  check_wf, dia, free_letters, is_box, is_dia, mand,
                  modal_dialect, mor, negate, parse, refresh,
                  simplify, subformulas, substitute)
from ..lts import UnboundLetterError
from ..syntax import ParseError, pretty
from .bridge import NotFO1Error, fo1_modal_bridge
from .classify import (FragmentReport, classify, in_continuous, is_guarded,
                       is_plain_modal)
from .game import EvalGame, binder_priorities, build_eval_game, game_value
from .guard import guard_transform
from .semantics import open_eval, semantics_eval

__all__ = [n for n in dir() if not n.startswith("_")]
