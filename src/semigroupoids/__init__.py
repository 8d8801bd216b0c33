"""Finite inverse semigroupoids: natural partial order, congruences,
partial actions and their universal globalization, semidirect products,
McAlister triples, and the reconstruction of E-unitary structures."""

from .core import (
    FiniteSemigroupoid,
    SemigroupoidMorphism,
    validate_morphism,
    validate_semigroupoid,
)
from .errors import (
    InternalInconsistencyError,
    ParseError,
    SemigroupoidError,
    ValidationError,
    Violation,
)
from .posets import (
    FinitePoset,
    Semilatticeoid,
    chain_poset,
    check_order_iso,
    discrete_poset,
    is_order_ideal,
    semilatticeoid_from_poset,
    validate_poset,
    validate_semilatticeoid,
)
from .inverse import (
    InverseSemigroupoid,
    check_partial_morphism,
    is_groupoid,
    is_strong_morphism,
    promote_to_inverse,
)
from .congruences import (
    EUnitarityCertificate,
    GraphedCongruence,
    check_lemma_sts,
    congruence_closure,
    is_e_unitary,
    is_idempotent_pure,
    quotient,
    sigma,
    sigma_by_equations,
    sigma_by_lower_bounds,
    universal_groupoid_property,
)
from .actions import (
    EquivariantMap,
    PartialActionData,
    check_built,
    check_equivariant,
    disjoint_union_actions,
    make_action,
    orbit,
    point_action,
    require_valid,
    restrict_global,
    validate_partial_action_E,
    validate_partial_action_P,
)
from .globalization import (
    GlobalizationResult,
    check_lemma_tec,
    globalize,
    universal_map,
)
from .ptheorem import (
    McAlisterTriple,
    PTheoremBundle,
    SemidirectProduct,
    check_e_unitary_preservation,
    idempotent_semilatticeoid,
    induced_sigma_action,
    mcalister_from_action,
    munn_action,
    ptheorem_bundle,
    semidirect_product,
    triple_restriction,
    validate_mcalister_triple,
)
from .corpus import (
    enumerate_inverse_semigroupoids,
    gen_Jpi,
    gen_SA,
)

__all__ = [name for name in dir() if not name.startswith("_")]
