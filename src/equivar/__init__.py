"""Symbolic equivariant differential forms with delta-distribution
coefficients, and exact equivariant index pipelines over torus actions.

The core objects are finitely presented graded-commutative algebras
(FormalModel) whose elements may carry one delta-derivative factor evaluated
on the closed arguments of a co-orientation frame.  The canonical closed
form of a frame, its verification (closedness, frame independence, the
Fourier fibre-integral identity), and fixed-point index evaluation against
independent representation-theoretic oracles are all exact over the
rationals.
"""

from .charclass import FixedLocusDatum, fixed_point_contribution, localize_index
from .characters import (EXAMPLES, cp1_sheaf_character_oracle,
                         frobenius_multiplicity_oracle, hrr_cp1_oracle,
                         run_pipeline, s3_contact_character_oracle)
from .errors import (DeltaClash, EquivarError, InvariantViolation,
                     MissingExpansionDirection, NonIntegerCoefficients,
                     NonOrientable, NotDifferentiable, NotPrincipal,
                     NotTransverse, OutOfRange, ParseError, RankDataMissing,
                     SplittingMissing, UnknownExample, ZeroWeight)
from .genco import (delta_linear_substitute, fourier_fibre_integrate,
                    taylor_expand_delta, with_fibre_coordinates)
from .jform import (chern_weil_pair, check_closed, check_transversality,
                    frame_change_compare, j_form, transformed_j_form,
                    unannihilated_slot)
from .laurent import (DenomFactor, RationalCharacter, box_dict, expand_box,
                      expand_to_degree, lattice_comb)
from .modelfile import (builtin_names, load_builtin, load_model, loads_model,
                        parse_element)
from .report import (make_report, render_element, render_frame_value,
                     report_to_json)
from .superalg import (DeltaFactor, Element, FormalModel, FrameDecl, Generator,
                       Term, add, add_all, equivariant_differential,
                       multiply, normal_form, product, validate_model)

__version__ = "0.1.0"
