"""torva: exact symbolic engine for multi-variable vertex-operator structures
built from multi-loop current algebras, with coefficientwise verification of
their defining identities on finite index windows."""

from .liecore import (LieAlgebraSpec, SpecFormatError, ToroidalAlgebra,
                      ToroidalElement, validate_lie_spec)
from .states import (PBWMonomial, ShiftedModule, StateVector, VacuumModule,
                     state_from_json, state_to_json)
from .fields import (FieldHandle, FieldSpace, LocalityError,
                     ModeWindow, TerminationError)
from .vertexops import Session, VacuumIdeal, echelonize, loop_affine_graded_dims
from .axioms import (AxiomChecker, Finding, SuiteReport, check_jacobi,
                     check_skew_symmetry, check_vacuum_expansion, run_mutation_suite,
                     run_suite)
from .config import SessionConfig

__version__ = "0.1.0"
