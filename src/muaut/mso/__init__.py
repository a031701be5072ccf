"""One- and two-sorted monadic second-order logics and their compilers."""

from .ast import (Down, EqVar, ExistsSet, ExistsVar, FINITE, LOGIC_MODE, Mso,
                  Mso1, Mso2, NOETHERIAN, Not, Or, PredApp, RelApp, RelStep,
                  STANDARD, SubsetOf, conj, forall_set, forall_var,
                  free_names, implies, parse1, parse2)
from ..syntax import ParseError, pretty
from .compile import (CompileError, base_down, base_rel, base_subset,
                      compile_mso)
from .eval import UnboundError, eval_mso, holds_at_init
from .translate import (FragmentError, mu_holds_via_mso, mu_to_mso,
                        onestep_dagger)

__all__ = [n for n in dir() if not n.startswith("_")]
