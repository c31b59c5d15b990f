"""Exact computations with pointwise finite dimensional representations of
strongly locally finite quivers, restricted to the finite-data objects where
kernels, cokernels, translates and almost split sequences stay computable.
"""

import sys
from importlib import import_module

# public name -> the module that defines it (a module name maps to itself);
# __getattr__ (PEP 562) reads the name there on each access
_HOME = {name: mod for mod, names in {
    "linalg": "GF QQ Field Mat",
    "quiver": "Arrow End FiniteQuiver OppositeQuiver PRESETS Path QuiverBase "
              "SubquiverClass VertexSet ar_category_kind classify_subquiver "
              "kronecker_quiver linear_quiver vkey",
    "rep": "EvalRangeError PathMatrix Rep RepClassCertificate RungFamily "
           "classify_membership coker_proj dim_vector direct_sum dualize "
           "end_profile equal_on explicit_fd glue_rep injective_at "
           "is_doubly_infinite ker_inj path_matrix projective_at restrict "
           "simple_at support_exact thin_rep zero_rep",
    "morphism": "Morphism SES glue_ses identity_morphism image "
                "morphism_from_components restriction_ses standard_ext "
                "verify_exact zero_morphism",
    "presentations": "Presentation min_inj_copresentation "
                     "min_proj_presentation nakayama",
    "hom": "DecomposeReport EndAlgebra HomBasis decompose decompose_report "
           "end_algebra hom_space iso_test",
    "ext": "ExtClassBasis FiniteExtReport baer_sum equiv_ext ext_class_to_ses "
           "ext_space is_finite_extension is_split ses_class_coords",
    "ar": "ARComponent ARNode ASReport ShapeHypothesis almost_split_sequence "
          "classify_component is_pseudo_projective knit tau tau_inv "
          "verify_almost_split",
    "io": "ParseError SCHEMA component_dot component_json emit_quiver "
          "emit_rep parse_field parse_quiver parse_rep",
}.items() for name in [mod] + names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:  # the interpreter's own AttributeError
        return object.__getattribute__(sys.modules["arknit"], name)
    module = sys.modules.get(f"arknit.{mod}") or import_module(f"arknit.{mod}")
    return module if name == mod else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
