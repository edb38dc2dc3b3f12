"""Covariant quantum mechanics on Galileian backgrounds: special phase
functions, Hermitian vector fields on the rank-2 spinor bundle, pre-quantum
operators and Pauli evolution, over an exact-derivative jet kernel."""

from .background import Background, Constants, Observer, PhasePoint
from .fieldlang import FieldDef, parse, to_source
from .hermitian import QuantumData, from_special, to_special
from .jets import Jet
from .pauli import pauli_map, spin_connection_from
from .scenario import Scenario, load_scenario
from .special import SpecialFunction, eval_special, extended_bracket, jacobi_residual
from .units import Dim, ScaledReal

__all__ = [
    "Background", "Constants", "Dim", "FieldDef", "Jet",
    "Observer", "PhasePoint", "QuantumData", "ScaledReal", "Scenario",
    "SpecialFunction", "eval_special", "extended_bracket", "from_special",
    "jacobi_residual", "load_scenario", "parse", "pauli_map",
    "spin_connection_from", "to_source", "to_special",
]

__version__ = "0.1.0"
