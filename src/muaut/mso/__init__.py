"""One- and two-sorted monadic second-order logics and their compilers."""

from .ast import (Down, EqVar, Exists1, ExistsSet, ExistsVar, FINITE,
                  LOGIC_MODE, MODES, Mso1, Mso2, MsoParseError, NOETHERIAN,
                  Not1, Not2, Or1, Or2, PredApp, RelApp, RelStep, STANDARD,
                  SubsetOf, and2, conj2, forall_set, forall_var,
                  free_letters1, implies2, parse1, parse2)
from ..syntax import pretty as pretty1, pretty as pretty2
from .compile import (CompileError, base_down, base_rel, base_subset,
                      compile_mso)
from .eval import UnboundError, eval_mso, eval_mso2, holds_at_init2
from .translate import (FragmentError, mu_holds_via_mso, mu_to_mso,
                        onestep_dagger)

__all__ = [n for n in dir() if not n.startswith("_")]
