"""Exact computations on the GL(3) affine Grassmannian."""

from .laurent import INF, LaurentSeries, PrimeField, random_with_val, val
from .rootdata import (BORELS, CHAMBERS, GTFamily, contains, family_from_support,
                       pairing, weyl_family)
from .mvcomb import (ZERO, LusztigDatum, MVPolytope, apply_crystal_word, braid,
                     canonicalize, coweight, crystal_E, crystal_F, dimension,
                     vertices_of)
from .grass import (GrassPoint, canonicalize_point, ec, enumerate_points, member,
                    point_from_y, sample_point)
from .moment import MomentGraph, PoincarePoly, compare, min_formal_poincare, skeleton
from .paving import (ContractingCell, IwahoriCell, PavingPlan, PavingStep,
                     contracting_cell, greedy_paving, iwahori_cell,
                     mv_as_intersection, paving_121)
from .springer import (RegularDiagonal, criterion, criterion_oracle, fundamental_domain,
                       member_springer, springer_dim, synthesize_gamma, truncated_paving)

__version__ = "0.1.0"
