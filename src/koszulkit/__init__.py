"""koszulkit: exact Grassmann-algebra operator calculus over the rationals.

Submodules:

- ``ring``: generator registries, sparse exact polynomials, divided differences
- ``grassmann``: odd words, wedge products, contractions, determinant kernels
- ``koszul``: boundary operators, chain maps, identity verifiers, homotopy search
- ``quotient``: Groebner bases with cofactors, quotient bases, multiplication operators
- ``dual_element``: recurrent functionals and the dual element of a zero-dimensional system
- ``cli``: the ``koszulkit`` command line tool
"""

__version__ = "0.1.0"

from .ring import FamilyRegistry, Poly, divided_diff, parse_poly
from .grassmann import (
    Element,
    bordered_det,
    bot_contract,
    dual_full_product,
    grassmann_exp,
    render_element,
    top_contract,
    transgression_det,
)
from .koszul import (
    BoundaryAssignment,
    ComplexElement,
    DomainError,
    IdentityReport,
    NotCocycleError,
    UnassignedFamilyError,
    boundary,
    homotopy_witness,
    theorem1_kernels,
    theorem1_map,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_theorem1,
    verify_theorem2,
)
from .quotient import (
    GroebnerBasis,
    NotZeroDimensional,
    QuotientBasis,
    charpoly_T,
    groebner,
    mul_matrix,
    quotient_basis,
    reduce_with_cofactors,
    source_cofactors,
)
from .dual_element import (
    Functional1D,
    FunctionalElement,
    HypothesisError,
    ProductFunctional,
    dual_element,
    functional_eval,
    pair_transgression,
    recurrent_functional,
    theorem3_compare,
    transgression_pairing,
    verify_theorem4,
)

__all__ = [
    "__version__",
    "FamilyRegistry",
    "Poly",
    "divided_diff",
    "parse_poly",
    "Element",
    "bordered_det",
    "bot_contract",
    "dual_full_product",
    "grassmann_exp",
    "render_element",
    "top_contract",
    "transgression_det",
    "BoundaryAssignment",
    "ComplexElement",
    "DomainError",
    "IdentityReport",
    "NotCocycleError",
    "UnassignedFamilyError",
    "boundary",
    "homotopy_witness",
    "theorem1_kernels",
    "theorem1_map",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_theorem1",
    "verify_theorem2",
    "GroebnerBasis",
    "NotZeroDimensional",
    "QuotientBasis",
    "charpoly_T",
    "groebner",
    "mul_matrix",
    "quotient_basis",
    "reduce_with_cofactors",
    "source_cofactors",
    "Functional1D",
    "FunctionalElement",
    "HypothesisError",
    "ProductFunctional",
    "dual_element",
    "functional_eval",
    "pair_transgression",
    "recurrent_functional",
    "theorem3_compare",
    "transgression_pairing",
    "verify_theorem4",
]
