"""slopeforge: exact computational algebra for slope filtrations on finite
groups, Newton polygons, Swan conductors, induction machinery, rank-one
p-adic differential operators and Weyl dimensions."""

from .exactnum import Cyclotomic, PLUS_INFINITY, padic_valuation
from .newton import (NewtonPolygon, SlopeMultiset, polygon_from_slopes,
                     slopes_from_polygon, tensor_slope_bound)
from .groups import (FiniteGroup, GoursatResult, GroupError, Subgroup,
                     WreathProduct, alternating_group, classify_wreath_subgroup,
                     cyclic_group, dihedral_group, direct_power, direct_product,
                     elementary_abelian_group, embed_in_wreath,
                     extraspecial_exponent_p2_group, generated_subgroup,
                     goursat_classify, group_from_cayley_table,
                     group_from_permutations, heisenberg_group, is_simple,
                     left_cosets, normal_subgroups, outer_automorphism_order,
                     quaternion_group, subgroup_closure,
                     symmetric_group, wreath_cyclic)
from .reptheory import (CharacterTable, ClassFunction, MatrixRep, character_table,
                        conjugate_character,
                        induce, induced_matrix_rep, inner_product,
                        inner_product_int, irreducible_dims_gcd, mackey_check,
                        regular_character, rep_from_generator_images, restrict,
                        tensor_induce, tensor_induced_matrix_rep,
                        tind_summand_check, trivial_character)
from .filtered import (BreakChain, LowerChain, graded_characters,
                       graded_pieces_disjoint, hasse_arf_check, herbrand_phi,
                       invariant_dimension, lower_from_upper, newton_polygon,
                       prime_power_dim_check,
                       slope_decomposition, slope_zero_existence_check,
                       swan_conductor, swan_lower_oracle, tensor_bound_check,
                       upper_from_lower)
from .robba import (RankOneOperator, character_order, is_tame, kummer_pullback,
                    p_power_reduce, residue)
from .robba import reduce as reduce_operator
from .robba import slope as operator_slope
from .robba import tensor as tensor_operators
from .weyl import RootSystem, build_root_system, check_2m_rho, weyl_dim

__version__ = "0.1.0"
