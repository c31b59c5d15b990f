"""Exact computations with pointwise finite dimensional representations of
strongly locally finite quivers, restricted to the finite-data objects where
kernels, cokernels, translates and almost split sequences stay computable.
"""

from .linalg import GF, QQ, Field, Mat
from .quiver import (Arrow, End, FiniteQuiver, OppositeQuiver, PRESETS, Path,
                     QuiverBase, SubquiverClass, VertexSet, classify_subquiver,
                     kronecker_quiver, linear_quiver, vkey)
from .rep import (BudgetError, EvalRangeError, PathMatrix,
                  PFIDecomposition, Rep, RepClassCertificate, RungFamily,
                  classify_membership, coker_proj, dim_vector, direct_sum,
                  dualize, end_profile, equal_on, explicit_fd, glue_rep,
                  injective_at, is_doubly_infinite, ker_inj, path_matrix,
                  pfi_decompose, projective_at, restrict, simple_at,
                  standard_ext_region, support_exact, tail_split, thin_rep,
                  zero_rep)
from .morphism import (Morphism, SES, glue_ses, identity_morphism,
                       kernel, cokernel, image, morphism_from_components,
                       naturality_defect, restriction_ses, split_ses,
                       standard_ext, verify_exact, zero_morphism)
from .presentations import (Presentation, min_inj_copresentation,
                            min_proj_presentation, nakayama)
from .hom import (DecomposeReport, EndAlgebra, HomBasis, decompose,
                  decompose_report, end_algebra, hom_space, is_radical,
                  iso_test)
from .ext import (ExtClassBasis, FiniteExtReport, baer_sum, equiv_ext,
                  ext_class_to_ses, ext_space, is_finite_extension, is_split,
                  ses_class_coords)
from .ar import (ARComponent, ARNode, ASReport, ShapeHypothesis,
                 almost_split_sequence, ar_category_kind, classify_component,
                 coxeter_matrix, coxeter_transform, is_pseudo_projective,
                 knit, minimal_left_almost_split_from,
                 minimal_right_almost_split_into, tau, tau_inv,
                 verify_almost_split)
from .io import (ParseError, SCHEMA, component_dot, component_json,
                 emit_quiver, emit_rep, parse_field, parse_quiver, parse_rep)


__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
