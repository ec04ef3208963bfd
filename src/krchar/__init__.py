"""Exact multigraded characters of generalized Kirillov-Reshetikhin modules
for the classical simple Lie algebras, with two independent computation paths
cross-checking each other."""

from .graded import (
    GradedChar,
    ext_dim,
    gch_N,
    gch_P_direct,
    gch_P_recursive,
    multiplicity_ell_profile,
    verify_AE_identity,
    verify_alternating_sum,
)
from .poset import (
    GammaSet,
    LambdaPoint,
    PsiSet,
    check_polytope_condition,
    check_psi_extra,
    checked_psi,
    d_psi,
    gamma_psi,
    i_lambda,
    leq_psi,
    psi_i,
    psi_lambda,
    psi_of_mu,
)
from .cache import cache_load, cache_store
from .repchar import (
    IsoChar,
    ModuleSpec,
    TensorCache,
    WeightChar,
    active_tensor_cache,
    adjoint_char,
    c_coefficient,
    clear_memo_caches,
    dominant_multiplicities,
    ext_power,
    freudenthal,
    iso_decompose,
    set_active_tensor_cache,
    sym_coefficient,
    sym_power,
    tensor_decompose,
)
from .rootsys import (
    LieType,
    RootSystem,
    Weight,
    build_root_system,
    integral_root_coords,
    omega_weight,
    parse_lie_type,
    weyl_dim,
)

__version__ = "0.1.0"

__all__ = [
    "GammaSet", "GradedChar", "IsoChar", "LambdaPoint", "LieType",
    "ModuleSpec", "PsiSet", "RootSystem", "TensorCache", "Weight",
    "WeightChar", "active_tensor_cache", "adjoint_char",
    "build_root_system", "c_coefficient", "cache_load", "cache_store",
    "check_polytope_condition", "check_psi_extra", "checked_psi",
    "clear_memo_caches", "d_psi", "dominant_multiplicities", "ext_dim",
    "ext_power", "freudenthal", "gamma_psi", "gch_N", "gch_P_direct",
    "gch_P_recursive", "i_lambda", "integral_root_coords", "iso_decompose",
    "leq_psi", "multiplicity_ell_profile", "omega_weight",
    "parse_lie_type", "psi_i", "psi_lambda", "psi_of_mu",
    "set_active_tensor_cache", "sym_coefficient", "sym_power",
    "tensor_decompose", "verify_AE_identity", "verify_alternating_sum",
    "weyl_dim",
]
