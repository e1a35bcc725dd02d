"""Exact models for based loops on directed suspensions.

Finitely presented cubical complexes, their homology over a field, PL
Moore paths on the suspension with rational breakpoints, crossing words,
the straightening deformation and the loop space homology series.  All
arithmetic is exact; path and word equality are structural.
"""

from .cubical import (
    CubicalSet,
    FaceRef,
    RealizationPoint,
    Violation,
    boundary_snap,
    in_collar,
    normalize_point,
    quotient_collapse,
    suspension_model,
    tensor_product,
    validate,
)
from .homology import RATIONALS, FieldSpec, GradedDims, betti, chain_complex
from .james import (
    EMPTY_WORD,
    IntervalLetter,
    JamesWord,
    PointLetter,
    crossing_word,
    multiply,
    reduce_word,
    retract_word,
    word_loop,
)
from .loop_algebra import (
    HilbertSeries,
    count_words_by_enumeration,
    loop_space_homology,
    tensor_algebra_dims,
    verify_tensor_characterization,
)
from .paths import STAR, Interior, MoorePath, StarSeg, Suspension, TrackSeg, is_strictly_increasing
from .serialize import (
    FormatError,
    dump_complex,
    dump_path,
    dump_word,
    load_complex,
    load_path,
    load_word,
)
from .straighten import (
    DEFAULT_SAMPLES,
    ChainDecomposition,
    assemble,
    chain_split,
    contract_straightened,
    contract_to_constant,
    full_straighten,
    straighten_step,
)

__version__ = "0.1.0"

__all__ = [
    "CubicalSet",
    "FaceRef",
    "RealizationPoint",
    "Violation",
    "boundary_snap",
    "in_collar",
    "normalize_point",
    "quotient_collapse",
    "suspension_model",
    "tensor_product",
    "validate",
    "RATIONALS",
    "FieldSpec",
    "GradedDims",
    "betti",
    "chain_complex",
    "EMPTY_WORD",
    "IntervalLetter",
    "JamesWord",
    "PointLetter",
    "crossing_word",
    "multiply",
    "reduce_word",
    "retract_word",
    "word_loop",
    "HilbertSeries",
    "count_words_by_enumeration",
    "loop_space_homology",
    "tensor_algebra_dims",
    "verify_tensor_characterization",
    "STAR",
    "Interior",
    "MoorePath",
    "StarSeg",
    "Suspension",
    "TrackSeg",
    "is_strictly_increasing",
    "FormatError",
    "dump_complex",
    "dump_path",
    "dump_word",
    "load_complex",
    "load_path",
    "load_word",
    "DEFAULT_SAMPLES",
    "ChainDecomposition",
    "assemble",
    "chain_split",
    "contract_straightened",
    "contract_to_constant",
    "full_straighten",
    "straighten_step",
    "__version__",
]
