"""Exact invariants of quantized Bruhat cell translates.

The package computes, in exact arithmetic, the combinatorial skeleton
behind the stratification of quantized coordinate rings attached to Weyl
group pairs: Cartan data, Bruhat order, diamond posets of comparable
pairs, truncated cell characters, and (in rank at most two) a graded
model of the positive-part coordinate ring with its Demazure-orthogonal
ideals, commutation checks, eigenvalue decompositions, and saturations.
"""

from .exactalg import Laurent, RatFun, Subspace, Q, ONE, ZERO, q_int
from .cartan import CartanDatum, build_cartan
from .weyl import WeylGroup, format_word, parse_word
from .strata import DiamondPoset
from .characters import (FormalCharacter, cell_translate_character,
                         demazure_character, weyl_character, weyl_dim)
from .uqmodules import UqModule, build_irrep
from .coordring import (CoordinateModel, EigenvalueError, NonStratumError,
                        SufficiencyError)
from .centre import CentreData, centre_of, centre_table

__all__ = [
    "Laurent", "RatFun", "Subspace", "Q", "ONE", "ZERO", "q_int",
    "CartanDatum", "build_cartan",
    "WeylGroup", "format_word", "parse_word",
    "DiamondPoset",
    "FormalCharacter", "cell_translate_character", "demazure_character",
    "weyl_character", "weyl_dim",
    "UqModule", "build_irrep",
    "CoordinateModel", "EigenvalueError", "NonStratumError",
    "SufficiencyError",
    "CentreData", "centre_of", "centre_table",
]

__version__ = "0.1.0"
