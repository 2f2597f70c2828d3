"""wittforge: exact quadratic form and composition algebra calculator.

Square classes over towers of computable fields, diagonal quadratic
forms with Pfister constructions and Witt decomposition, local-global
machinery over Q, Cayley-Dickson composition algebras, and torus-type
catalogs for their automorphism groups.
"""

import gc

from .errors import WittforgeError
from .fields import (
    FieldTower,
    SquareClass,
    canonical_square_class,
    enumerate_square_classes,
    minus_one_class,
    nonresidue_class,
    one_class,
    residue_split,
    sq_mul,
    var_class,
)
from .laurent import LaurentPoly
from .qform import (
    DiagonalForm,
    WittDecomposition,
    diagonalize,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    orthogonal_sum,
    pfister,
    pfister_slot_witness,
    scale,
    splits_over_quadratic,
    tensor,
    witt_decompose,
)
from .arithq import (
    Place,
    RationalInvariants,
    REAL_PLACE,
    global_isotropy,
    hilbert_symbol,
    local_isotropy,
    ramification_set,
    rational_invariants,
    witt_index_rational,
)
from .algebras import (
    AlgebraElement,
    CompositionAlgebra,
    algebra_from_slots,
    cayley_dickson,
    composition_defect,
    is_split,
    octonion,
    quaternion,
    zero_divisor_pair,
)
from .tori import (
    ComparisonReport,
    CubicObstructionReport,
    PureCubicGalois,
    QuadTimes,
    Split3,
    TorusType,
    TypeReport,
    admits_type,
    compare_torus_systems,
    cubic_obstruction_report,
    genus_equal_rational,
    splitting_profile,
    torus_type_catalog,
    trace_form_gram,
    type_report,
)

__version__ = "0.1.0"

if not gc.get_freeze_count():  # leave what the host froze frozen
    gc.freeze()  # with unfreeze, all made so far is old at no cost: no first operation collects it
    gc.unfreeze()
