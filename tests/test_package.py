"""The public names of the package."""

import importlib
import re
from pathlib import Path

import pytest

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
    "serialize": ["FormatError", "dump_complex", "dump_path", "dump_word", "load_complex", "load_path"],
    "straighten": [
        "DEFAULT_SAMPLES",
        "ChainDecomposition",
        "chain_split",
        "contract_straightened",
        "contract_to_constant",
        "full_straighten",
        "straighten_step",
    ],
}


def test_all_lists_each_public_name_once_in_order():
    names = [name for names in PUBLIC.values() for name in names] + ["__version__"]
    assert len(names) == 50
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


def test_importing_the_package_loads_none_of_its_modules(fresh_interpreter):
    loaded = fresh_interpreter("import json, sys, dirloop; print(json.dumps(sorted(sys.modules)))")
    assert "dirloop" in loaded
    assert [name for name in loaded if name.startswith("dirloop.")] == []


def test_each_module_of_the_table_resolves_on_first_access(fresh_interpreter):
    script = (
        "import json, dirloop; "
        "print(json.dumps([dirloop.paths.Suspension.__name__, "
        f"[getattr(dirloop, m).__name__ for m in {list(PUBLIC)!r}]]))"
    )
    suspension, modules = fresh_interpreter(script)
    assert suspension == "Suspension"
    assert modules == [f"dirloop.{module}" for module in PUBLIC]


def test_dir_lists_every_public_name():
    assert set(dirloop.__all__) <= set(dir(dirloop))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'dirloop' has no attribute 'no_such_name'"):
        dirloop.no_such_name
