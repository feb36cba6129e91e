"""Exact computations in Verma modules over the Yangian of gl(2).

Public surface:

* exact arithmetic: ``PolyQ``, ``RationalFn``, ``SeriesU`` and the series
  operations (multiplication, inverse, argument shift, rational expansion);
* the module itself: ``ModuleVector``, ``HighestWeightGL2``,
  ``act_generator`` and friends;
* the sl(2) generators from the Gauss decomposition: ``act_e``, ``act_f``,
  ``act_h`` and the lazy series ``e_series``;
* recurrence detection and exact rational reconstruction;
* singular-vector search and the canonical singular family;
* irreducible-quotient weight dimensions by Gram ranks and by the
  character product formula;
* root systems from Cartan matrices and the reducibility / finiteness
  verdicts.

Everything is exact rational arithmetic; truncated series carry their
window and all budget-limited answers say so explicitly.
"""

from .errors import InputError, InsufficientDataError, TruncationError
from .rational import (
    POLY_ONE,
    POLY_U,
    POLY_ZERO,
    PolyQ,
    RationalFn,
    format_rat,
    parse_rational_fn,
    poly_gcd,
    rat,
    rational_roots,
    render_poly,
    render_rational_fn,
)
from .series import (
    SERIES_ONE,
    SeriesU,
    expand_rational,
    series_from_tail,
    series_inverse,
    series_mul,
    series_shift_argument,
)
from .verma import (
    ActionCache,
    HighestWeightGL2,
    Monomial,
    ModuleVector,
    act_generator,
    act_quantum_det,
    basis_monomials,
    canonical_polynomial_weights,
    in_tail_submodule,
    monomial,
)
from .gauss import (
    SL2Weight,
    act_e,
    act_f,
    act_h,
    act_h_via_quantum_det,
    as_gl2_weights,
    e_series,
)
from .recurrence import (
    RationalityVerdict,
    RecurrenceWitness,
    detect_recurrence,
    is_rational_verdict,
    reconstruct_rational,
)
from .singular import (
    FMonomial,
    FVector,
    SingularSearchResult,
    canonical_singular_vector,
    expand_f_monomial,
    expand_f_vector,
    find_singular,
    verify_singular,
)
from .character import (
    CharacterResult,
    GramReport,
    character_formula,
    contravariant_pairing,
    irreducible_weight_dims,
    reorder_strings,
)
from .rootsys import (
    CartanData,
    CartanMatrix,
    RootSystem,
    cartan_matrix,
    positive_roots,
    spanning_count,
    symmetrizers,
    validate_cartan,
)
from .selftest import (
    PropertyResult,
    SelftestReport,
    rtt_relation_defect,
    run_selftest,
)
from .verdicts import (
    HighestWeightTuple,
    ReducibilityVerdict,
    WeightFinitenessVerdict,
    classify,
    shifted_quotient_polynomial,
    verdict_finite_dimensional,
    verdict_reducible,
    verdict_weight_finiteness,
)

__version__ = "0.1.0"
