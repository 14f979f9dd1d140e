"""Exact-arithmetic verification and constructions for Rota-Baxter
structures on Lie algebras, their two-term homotopy versions, skeletal
categorified views, and crossed modules."""

from .errors import (BadRational, BadSite, BudgetExceeded, DuplicateEntry,
                     FormatError, InternalInvariantBroken, NotChainMap,
                     NotComposable, NotStrict, ParseError, ShapeMismatch,
                     SourceTargetMismatch, StructureError, UnknownKind,
                     VersionMismatch)
from .tensors import (BilinearMap, LinearMap, TrilinearMap, Vec, frac,
                      solve_exact, vec)
from .report import VerificationReport, Violation, run_checks
from .liealg import (LieAlgebra, PreLieAlgebra, RBRepresentation,
                     RotaBaxterLieAlgebra, adjoint_representation,
                     coadjoint_representation, derived_bracket,
                     dual_representation, prelie_from_rb, semidirect_product,
                     subadjacent_lie)
from .twoterm import (CompletionFailure, LInfinityHom, RBLInfinityHom,
                      TwoTermLInfinity, TwoTermRBLInfinity,
                      complete_rb_triple, compose_rb_homs, identity_rb_hom,
                      rb_hom, two_term, with_operators)
from .lie2 import Morphism2V, RBLie2View, roundtrip_hom, roundtrip_structure
from .crossed import (LieCrossedModule, PreLieCrossedModule,
                      RBLieCrossedModule, crossed_semidirect,
                      crossed_to_strict, derived_crossed,
                      prelie_crossed_to_lie_crossed,
                      rb_crossed_to_prelie_crossed, strict_to_crossed)
from .search import SearchSpec, enumerate_rb_operators, mutate
from .serialize import SearchResults, dumps, load, loads, save

__all__ = [name for name in dir() if not name.startswith("_")]
