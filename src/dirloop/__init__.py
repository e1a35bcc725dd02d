"""Exact models for based loops on directed suspensions.

Finitely presented cubical complexes, their homology over a field, PL
Moore paths on the suspension with rational breakpoints, crossing words,
the straightening deformation and the loop space homology series.  All
arithmetic is exact; path and word equality are structural.
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
        "EMPTY_WORD", "IntervalLetter", "JamesWord", "PointLetter", "crossing_word", "multiply",
        "reduce_word", "retract_word", "word_loop",
    ),
    "loop_algebra": (
        "HilbertSeries", "count_words_by_enumeration", "loop_space_homology", "tensor_algebra_dims",
        "verify_tensor_characterization",
    ),
    "paths": (
        "STAR", "Interior", "MoorePath", "StarSeg", "Suspension", "TrackSeg", "is_strictly_increasing",
    ),
    "serialize": (
        "FormatError", "dump_complex", "dump_path", "dump_word", "load_complex", "load_path", "load_word",
    ),
    "straighten": (
        "DEFAULT_SAMPLES", "ChainDecomposition", "assemble", "chain_split", "contract_straightened",
        "contract_to_constant", "full_straighten", "straighten_step",
    ),
}

__version__ = "0.1.0"

__all__ = []
for _module, _names in _PUBLIC.items():
    _source = import_module(f".{_module}", __name__)
    for _name in _names:
        globals()[_name] = getattr(_source, _name)
    __all__ += _names
__all__.append("__version__")
del import_module, _module, _names, _source, _name
