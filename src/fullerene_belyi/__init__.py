"""Exact Belyi functions of the smallest fullerenes.

The package derives, composes and certifies the Belyi functions of the
20-atom (dodecahedral) and 24-atom (barrel) fullerenes with exact rational
arithmetic, carries out the elimination proof that no 22-atom fullerene
exists, and computes the euclidean geometry of the barrel's distinguished
pentagonal face.
"""

from .belyi import (BelyiFormatError, FactoredBelyi, FullereneParams,
                    Passport, counting, face_vector, fullerene_passport,
                    main_equation_residual)
from .derive import (CaseReport, Verdict, case_degrees, d6_solve, derive_case,
                     family_k, family_k_formula, halphen_identity_failures,
                     ode_leading_coeff, ode_residual, vm_from_p)
from .exact import (GaussRat, RationalMap, UniPoly, coprime, is_squarefree,
                    poly_gcd, squarefree_decomposition)
from .geometry import (BarrelVertices, FaceGeometryReport, Plane, SpherePoint,
                       barrel_vertices, face_geometry, inverse_stereographic,
                       plane_through, poly_roots)
from .moebius import (INFINITY, Moebius, build_beta12, build_beta60,
                      build_beta72, moebius_from_three_points,
                      ratmap_compose_moebius, schwarz_check, schwarz_forms)
from .multipoly import EliminationTrace, MultiPoly, sequential_linear_solve

__all__ = [
    "BarrelVertices", "BelyiFormatError", "CaseReport", "EliminationTrace",
    "FaceGeometryReport", "FactoredBelyi", "FullereneParams", "GaussRat",
    "INFINITY", "Moebius", "MultiPoly", "Passport", "Plane", "RationalMap",
    "SpherePoint", "UniPoly", "Verdict", "barrel_vertices", "build_beta12",
    "build_beta60", "build_beta72", "case_degrees", "coprime", "counting",
    "d6_solve", "derive_case", "face_geometry", "face_vector", "family_k",
    "family_k_formula", "fullerene_passport", "halphen_identity_failures",
    "inverse_stereographic", "is_squarefree", "main_equation_residual",
    "moebius_from_three_points", "ode_leading_coeff", "ode_residual",
    "plane_through", "poly_gcd", "poly_roots", "ratmap_compose_moebius",
    "schwarz_check", "schwarz_forms", "sequential_linear_solve",
    "squarefree_decomposition", "vm_from_p",
]
