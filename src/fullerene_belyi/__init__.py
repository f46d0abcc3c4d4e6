"""Exact Belyi functions of the smallest fullerenes.

The package derives, composes and certifies the Belyi functions of the
20-atom (dodecahedral) and 24-atom (barrel) fullerenes with exact rational
arithmetic, carries out the elimination proof that no 22-atom fullerene
exists, and computes the euclidean geometry of the barrel's distinguished
pentagonal face.
"""

import sys

# each public name's home module; importing the package loads none of them,
# and a name's module is imported the first time the name is asked for
_HOMES = {
    "belyi": ("BelyiFormatError", "FactoredBelyi", "FullereneParams",
              "Passport", "counting", "face_vector", "fullerene_passport"),
    "derive": ("CaseReport", "Verdict", "case_degrees", "d6_solve",
               "derive_case", "family_k", "family_k_formula",
               "ode_leading_coeff", "vm_from_p"),
    "exact": ("GaussRat", "RationalMap", "UniPoly", "coprime",
              "is_squarefree", "poly_gcd", "squarefree_decomposition"),
    "geometry": ("BarrelVertices", "FaceGeometryReport", "Plane",
                 "SpherePoint", "barrel_vertices", "face_geometry",
                 "inverse_stereographic", "plane_through", "poly_roots"),
    "moebius": ("INFINITY", "Moebius", "build_beta12", "build_beta60",
                "build_beta72", "moebius_from_three_points", "schwarz_check",
                "schwarz_forms"),
    "multipoly": ("EliminationTrace", "MultiPoly", "sequential_linear_solve"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "cli")

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    """A public name or a submodule, imported on first use (PEP 562)."""
    if name in _SUBMODULES:
        home = name
    elif name in _HOME_OF:
        home = _HOME_OF[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
