"""Exact computation of mod-m K-groups of Leavitt path algebras from
quiver data, with a symbolic rewriting engine for cross-validation."""

from .algebra import (CornerAxiomReport, CornerData, Element, LeavittAlgebra,
                      Monomial, Path, corner_data, corner_phi, render_element,
                      verify_corner_axioms)
from .element_syntax import ElementSyntaxError, parse_element
from .filtration import (Block, BlockProfile, block_profile,
                         expected_inclusion_matrix, expected_phi_matrix,
                         filtration_span_dim, inclusion_k0_matrix,
                         phi_k0_matrix, stabilized_block_difference)
from .groups import (FinAbGroup, Modulus, SizeLimitError,
                     brute_force_mod_oracle, cokernel_int, cokernel_mod,
                     factorize, kernel_cokernel, kernel_cokernel_mod,
                     kernel_mod, kernel_rank_int)
from .ktheory import (DegreeData, DivisibilityReport, KGroupTable, LesEntry,
                      SplitCheckResult, corner_les, divisibility_report,
                      leavitt_matrix, les_table_for_quiver, mod_l_ktheory,
                      moore_splitting_check, rose_quiver, suslin_coefficients)
from .matrices import IntMatrix, SmithDecomposition, smith_normal_form
from .quiver import (Arrow, Quiver, QuiverParseError, SourcesPresentError,
                     incidence_matrix, order_sinks_first, parse_quiver,
                     reduced_incidence, render_quiver, require_no_sources)

__version__ = "0.1.0"
