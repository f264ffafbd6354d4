"""Exact arithmetic of the fractional ideal J attached to abelian fields at
s = 0: Stickelberger elements, cyclotomic S-units, annihilator and Fitting
ideals of unit quotients, L-values and derivatives, and a check suite tying
them together.  Everything exact is rational: `fractions.Fraction`, or
integer numerators over one common denominator where a kernel needs speed
(lattices, cyclotomic numbers, L-values at s = 0).  Numerics run under an
explicit precision context (mpmath) and never feed back into exact claims.
"""

from .cyclo import CyclotomicNumber, PrecisionContext, bernoulli_number, euler_phi
from .fields import (FieldModel, PlaceSet, RelativeModel, SUnit,
                     full_cyclotomic, make_field, place_set, plus_field,
                     relative_model, relative_place_set, select_field)
from .gring import (Character, FinAbGroup, FiniteGModule, GroupHom,
                    GroupRingElement, IdealLattice, characters,
                    galois_group, norm_element)
from .lfun import (half_stickelberger, l_deriv_at_0, l_value_at_0,
                   stickelberger, stickelberger_classical, vanishing_order)
from .units import (UnitLattice, cyclotomic_unit, export_units, lambda_unit,
                    load_units, quotient_module, stark_module,
                    stark_residuals, stark_unit, sunit_group,
                    unit_coordinates)
from .jideal import (CHECK_IDS, CheckReport, JResult, i_f_and_regulator,
                     j_base_case, j_full_cyclotomic, j_ideal, j_via_theorem,
                     load_classgroup, run_check, shipped_classgroup,
                     torsion_order)

__version__ = "1.0.0"

__all__ = [
    "CyclotomicNumber", "PrecisionContext", "bernoulli_number", "euler_phi",
    "FieldModel", "PlaceSet", "RelativeModel", "SUnit", "full_cyclotomic",
    "make_field", "place_set", "plus_field", "relative_model",
    "relative_place_set", "select_field",
    "Character", "FinAbGroup", "FiniteGModule", "GroupHom",
    "GroupRingElement", "IdealLattice", "characters",
    "galois_group", "norm_element",
    "half_stickelberger", "l_deriv_at_0", "l_value_at_0", "stickelberger",
    "stickelberger_classical", "vanishing_order",
    "UnitLattice", "cyclotomic_unit", "export_units", "lambda_unit",
    "load_units", "quotient_module", "stark_module", "stark_residuals",
    "stark_unit", "sunit_group", "unit_coordinates",
    "CHECK_IDS", "CheckReport", "JResult", "i_f_and_regulator",
    "j_base_case", "j_full_cyclotomic", "j_ideal", "j_via_theorem", "load_classgroup",
    "run_check", "shipped_classgroup", "torsion_order",
    "__version__",
]
