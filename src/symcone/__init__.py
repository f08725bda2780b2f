"""Euclidean Jordan algebra kernel with a majorization-inequality
verification and search harness for symmetric cones."""

from ._kernels import backend
from .algebra import (
    AlgebraDescriptor,
    DescriptorMismatchError,
    DirectSum,
    Element,
    SpinFactor,
    SymMatrix,
    descriptor_from_spec,
    descriptor_to_spec,
    element_from_json,
    element_to_json,
    from_matrix,
    inner,
    jordan_product,
    norm,
    operator_commutes,
    random_cone_element,
    random_element,
    unit,
    zero,
)
from .majorization import (
    MajorizationVerdict,
    log_major,
    major,
    sort_desc,
    vec_pnorm,
    weak_major,
)
from .norms import EmpiricalNorm, norm_closed_form, norm_empirical
from .search import (
    FamilySpec,
    SearchRecord,
    generate_candidate,
    replay_record,
    replay_records,
    sweep,
    test_candidate,
    test_candidate_cone,
)
from .spectral import (
    ConeError,
    JacobiConvergenceError,
    JordanFrame,
    SpectralDecomposition,
    abs_el,
    det,
    eigvals,
    pnorm,
    spectral_decompose,
    sqrt_el,
    standard_frame,
    sym_eigen,
    trace,
)
from .transforms import (
    ABS_FN,
    NEG_FN,
    POS_FN,
    PositiveLinearMap,
    PositivityError,
    SchurMatrix,
    SublinearFn,
    apply_sublinear,
    as_matrix,
    lyap,
    peirce_project,
    quad_rep,
    quad_rep_sqrt,
    schur,
)
from .verifiers import (
    VerificationReport,
    build_commuting_factors,
    check_absolute_product_counterexample,
    check_holder,
    check_jordan_weak,
    check_log_major_quadrep,
    check_positive_map_sublinear,
    check_quadrep_pinch,
    check_quadrep_sublinear,
    check_quadrep_sup_bound,
    check_schur_diag,
    run_all,
    run_sweep,
)

__version__ = "0.1.0"
