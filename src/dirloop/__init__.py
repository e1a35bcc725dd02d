"""Exact models for based loops on directed suspensions.

Finitely presented cubical complexes, their homology over a field, PL
Moore paths on the suspension with rational breakpoints, crossing words,
the straightening deformation and the loop space homology series.  All
arithmetic is exact; path and word equality are structural.

Importing the package loads none of its modules: each public name, and
each module named in ``_PUBLIC``, is resolved on first access, so a
program that needs only the complexes never loads the path code.
"""

from importlib import import_module

# each public name, under the module that defines it, in import order
_PUBLIC = {
    "cubical": (
        "CubicalSet", "FaceRef", "RealizationPoint", "Violation", "boundary_snap", "in_collar",
        "normalize_point", "quotient_collapse", "suspension_model", "tensor_product", "validate",
    ),
    "homology": ("RATIONALS", "FieldSpec", "GradedDims", "betti", "chain_complex"),
    "james": (
        "EMPTY_WORD", "IntervalLetter", "JamesWord", "crossing_word", "multiply", "reduce_word",
        "retract_word", "word_loop",
    ),
    "loop_algebra": (
        "HilbertSeries", "count_words_by_enumeration", "loop_space_homology", "tensor_algebra_dims",
        "verify_tensor_characterization",
    ),
    "paths": (
        "STAR", "Interior", "MoorePath", "StarSeg", "Suspension", "TrackSeg", "is_strictly_increasing",
    ),
    "serialize": (
        "FormatError", "dump_complex", "dump_path", "dump_word", "load_complex", "load_path",
    ),
    "straighten": (
        "DEFAULT_SAMPLES", "ChainDecomposition", "chain_split", "contract_straightened",
        "contract_to_constant", "full_straighten", "straighten_step",
    ),
}

__version__ = "0.1.0"

# public name -> its module
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = [*_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _PUBLIC:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
