"""Monadic one-step logics: syntax, models, fragments, normal forms."""

from .ast import (DIALECTS, FO1, FOE1, FOE1INF, GRAMMAR, And, DialectError, Eq,
                  Exists, ExistsInf, Forall, ForallInf, Formula, Neq, NegPred,
                  OneStepFormula, Or, Pred, W, TOP, BOT, conj,
                  disj, dual, expand_sugar, free_vars, is_positive,
                  min_dialect, parse, parse_formula, predicates, rank,
                  rename_pred, sentence, type_atom)
from .fragments import (in_cocontinuous_fragment, in_continuous_fragment,
                        separates, separation_sufficient)
from .models import (OMEGA, OneStepModel, WeightedOneStepModel, all_models,
                     all_valuations, all_weighted_models, eval_capped, eval_counts,
                     eval_finite, eval_weighted, min_valuations,
                     model_of_types, weighted)
from .normalform import (BasicForm, BasicFormDisjunct, NotContinuousError,
                         NotPositiveError, ProfileBlowupError,
                         diamond_translate, equivalent, expand,
                         expand_disjunct, record_sentence,
                         satisfying_restriction_exists,
                         to_basic_form, to_continuous_basic_form)
from ..syntax import ParseError, pretty

__all__ = [n for n in dir() if not n.startswith("_")]
