"""The public names of the package."""

import importlib
import re
from pathlib import Path

import dirloop

# the public names, under the module each comes from, in the order of ``__all__``
PUBLIC = {
    "cubical": [
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
    ],
    "homology": ["RATIONALS", "FieldSpec", "GradedDims", "betti", "chain_complex"],
    "james": [
        "EMPTY_WORD",
        "IntervalLetter",
        "JamesWord",
        "PointLetter",
        "crossing_word",
        "multiply",
        "reduce_word",
        "retract_word",
        "word_loop",
    ],
    "loop_algebra": [
        "HilbertSeries",
        "count_words_by_enumeration",
        "loop_space_homology",
        "tensor_algebra_dims",
        "verify_tensor_characterization",
    ],
    "paths": ["STAR", "Interior", "MoorePath", "StarSeg", "Suspension", "TrackSeg", "is_strictly_increasing"],
    "serialize": ["FormatError", "dump_complex", "dump_path", "dump_word", "load_complex", "load_path", "load_word"],
    "straighten": [
        "DEFAULT_SAMPLES",
        "ChainDecomposition",
        "assemble",
        "chain_split",
        "contract_straightened",
        "contract_to_constant",
        "full_straighten",
        "straighten_step",
    ],
}


def test_all_lists_each_public_name_once_in_order():
    names = [name for names in PUBLIC.values() for name in names] + ["__version__"]
    assert len(names) == 53
    assert dirloop.__all__ == names
    assert len(set(dirloop.__all__)) == len(dirloop.__all__)
    assert dirloop.__version__ == "0.1.0"


def test_each_public_name_is_the_object_of_its_module():
    for module, names in PUBLIC.items():
        source = importlib.import_module(f"dirloop.{module}")
        for name in names:
            assert getattr(dirloop, name) is getattr(source, name), name


def test_a_star_import_binds_exactly_all():
    namespace = {}
    exec("from dirloop import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dirloop.__all__)
    assert all(namespace[name] is getattr(dirloop, name) for name in namespace)


def test_the_readme_library_imports_resolve():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    imports = re.findall(r"^from dirloop import \(([^)]*)\)", readme, re.M)
    assert imports
    for block in imports:
        names = block.replace(",", " ").split()
        assert names and set(names) <= set(dirloop.__all__)
        namespace = {}
        exec(f"from dirloop import {', '.join(names)}", namespace)
        assert all(namespace[name] is getattr(dirloop, name) for name in names)
