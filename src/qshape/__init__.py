"""Exact tooling for graded self-injective algebras: tilting modules over
the stable graded module category, stable endomorphism algebras, windows of
the shifted-projective category, and base change, all over the rationals or
a prime field."""

__version__ = "0.1.0"

from .algebra import (
    EXCEEDS_BOUND,
    GradedAlgebra,
    QuiverPresentation,
    RadicalData,
    builtin,
    compile_quiver,
    degree_zero_part,
    global_dimension_bounded,
    jacobson_radical,
    primitive_idempotents,
    sup_degree,
    zero_algebra,
)
from .basechange import (
    TensorAlgebra,
    base_change_hom_check,
    gamma_tensor,
    i_star,
    ungrade,
)
from .fields import FieldSpec, QQ
from .modules import (
    GradedModule,
    HomSpace,
    dual_of_regular,
    is_projective,
    is_self_injective,
    projective,
    regular,
    shift,
    simple,
    truncate_le,
    zero_module,
)
from .stable import (
    ExtCertificate,
    StableHomSpace,
    stable_ext_table,
)
from .tilting import (
    AlgebraFingerprint,
    GammaData,
    TiltingData,
    cartan_matrix,
    check_hypotheses,
    compare,
    fingerprint,
    reference_auslander_linear,
    reference_subcategory_algebra,
    reference_upper_triangular,
    tilting_module,
)
from .window import QWindow, check_window_properties, serre_of_object
