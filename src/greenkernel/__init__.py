"""greenkernel: exact computer algebra for local Frobenius Green functors.

Subpackages build on each other in this order: exactkernel (GF(p) linear
algebra), fgl (Honda formal group laws), borel
(local augmented algebras), frobform (Frobenius forms and Gysin maps),
hopftower (Hopf structure and the p-divisible tower), grp (finite
permutation groups), green (the Green functor engine), audit (axiom
verification harness), cli (command line frontend).
"""

__version__ = "0.1.0"

from .exactkernel import (  # noqa: F401
    BudgetError,
    ExactKernelError,
    FpMatrix,
    ScopeError,
)
from .fgl import Fgl, HondaParams, honda_fgl, m_series  # noqa: F401
from .borel import (  # noqa: F401
    AlgebraMap,
    BorelAlgebra,
    El,
    Subalgebra,
    algebra_map,
    is_unit,
    make_algebra,
    socle_basis,
    subalgebra_close,
    tensor,
)
from .frobform import (  # noqa: F401
    FrobeniusForm,
    canonical_form,
    check_reciprocity,
    extend_socle_map,
    form_unit,
    gysin,
    is_frobenius_form,
    modify_form,
)
from .hopftower import (  # noqa: F401
    HondaLevel,
    HopfStructure,
    honda_level,
    hopf_check,
    integrals,
    pdiv_check,
    tower_maps,
)
from .grp import (  # noqa: F401
    AbelianHom,
    AbelianPGroup,
    PermGroup,
    abelian_decompose,
    double_cosets,
    group_from_generators,
    hom_between,
    named_group,
    sylow,
)
from .green import (  # noqa: F401
    GreenValue,
    StableResult,
    SubgroupGreenFunctor,
    inflation_inverse,
    invariants,
    restrict,
    stable_elements,
    transfer,
    value_abelian,
    value_general,
)
from .audit import AuditReport, audit_assumptions, audit_mackey  # noqa: F401
