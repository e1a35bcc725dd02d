"""End to end checks of the command line front end."""

import argparse
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dirloop import cli
from dirloop.cli import main
from dirloop.corpus import (
    circle_complex,
    random_loop,
    torus_complex,
    two_component_complex,
    wedge_of_circles,
)
from dirloop.cubical import CubicalSet, FaceRef, RealizationPoint, suspension_model, tensor_product, validate
from dirloop.homology import MAX_CHARACTERISTIC, chain_complex
from dirloop.james import word_loop
from dirloop.paths import StarSeg, Suspension, TrackSeg
from dirloop.serialize import FormatError, dump_complex, dump_path, load_complex, parse_complex

CIRCLE = Suspension(circle_complex())


def invoke(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def circle_file(tmp_path):
    target = tmp_path / "circle.json"
    target.write_text(json.dumps(dump_complex(circle_complex())))
    return str(target)


@pytest.fixture()
def loop_file(tmp_path):
    letters = [
        RealizationPoint("e", (F(1, 3),)),
        RealizationPoint("e", (F(2, 3),)),
    ]
    target = tmp_path / "loop.json"
    target.write_text(json.dumps(dump_path(word_loop(CIRCLE, letters))))
    return str(target)


def test_validate_clean_and_broken(capsys, tmp_path, circle_file):
    code, out, _ = invoke(capsys, "validate", circle_file)
    assert code == 0
    assert json.loads(out) == {"violations": []}

    broken = dump_complex(circle_complex())
    broken["cubes"][1]["faces"]["d0_1"]["degens"] = [1, 2]
    target = tmp_path / "broken.json"
    target.write_text(json.dumps(broken))
    code, out, _ = invoke(capsys, "validate", str(target))
    assert code == 1
    assert json.loads(out)["violations"]


def test_homology_matches_contract(capsys, circle_file):
    code, out, _ = invoke(capsys, "homology", circle_file, "--field", "q")
    assert code == 0
    assert out.strip() == '{"dims": {"0": 1, "1": 1}}'
    code, out, _ = invoke(capsys, "homology", circle_file, "--field", "zp:2", "--reduced")
    assert code == 0
    assert json.loads(out) == {"dims": {"0": 0, "1": 1}}


def test_loop_homology_series(capsys, tmp_path):
    target = tmp_path / "torus.json"
    target.write_text(json.dumps(dump_complex(torus_complex())))
    code, out, _ = invoke(capsys, "loop-homology", str(target), "--field", "q", "--degree", "5")
    assert code == 0
    assert json.loads(out) == {"series": [1, 2, 5, 12, 29, 70]}


def test_loop_homology_rejects_disconnected_base(capsys, tmp_path):
    target = tmp_path / "two.json"
    target.write_text(json.dumps(dump_complex(two_component_complex())))
    code, out, err = invoke(capsys, "loop-homology", str(target))
    assert code == 1
    assert "connected" in err


def test_suspension_output_revalidates(capsys, circle_file):
    code, out, _ = invoke(capsys, "suspension", circle_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["star"] == "*"
    assert set(payload["lower"]) & set(payload["upper"]) == {"(mid|e)", "*"}
    inner = json.dumps(payload["complex"])
    code2, out2, _ = invoke_validate_blob(capsys, inner)
    assert code2 == 0 and json.loads(out2) == {"violations": []}


def invoke_validate_blob(capsys, blob):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as handle:
        handle.write(blob)
        name = handle.name
    return invoke(capsys, "validate", name)


def test_sec_command(capsys, circle_file, loop_file):
    code, out, _ = invoke(capsys, "sec", loop_file, "--complex", circle_file)
    assert code == 0
    assert json.loads(out) == [
        {"cube": "e", "coords": ["1/3"]},
        {"cube": "e", "coords": ["2/3"]},
    ]


def test_path_eval_and_verify(capsys, circle_file, loop_file):
    code, out, _ = invoke(capsys, "path", "eval", loop_file, "--complex", circle_file, "--t", "1")
    assert code == 0
    assert json.loads(out) == {"kind": "interior", "height": "0", "cube": "e", "coords": ["1/3"]}
    code, out, _ = invoke(capsys, "path", "eval", loop_file, "--complex", circle_file, "--t", "0")
    assert json.loads(out) == {"kind": "star"}

    code, out, _ = invoke(capsys, "path", "verify", loop_file, "--complex", circle_file)
    assert code == 0
    assert json.loads(out) == {"ok": True, "problems": []}

    backwards = {
        "segments": [
            {"kind": "track", "dur": "1", "h": ["1/2", "-1/2"], "cube": "e", "c0": ["1/4"], "c1": ["1/4"]}
        ]
    }
    bad = loop_file.replace("loop.json", "bad.json")
    with open(bad, "w") as handle:
        json.dump(backwards, handle)
    code, out, _ = invoke(capsys, "path", "verify", bad, "--complex", circle_file)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_path_transforms_round_trip_as_path_files(capsys, tmp_path, circle_file):
    x = RealizationPoint("e", (F(1, 2),))
    source = tmp_path / "basic.json"
    source.write_text(json.dumps(dump_path(CIRCLE.basic_loop(x))))

    code, out, _ = invoke(
        capsys, "path", "increase", str(source), "--complex", circle_file, "--eps", "1/2"
    )
    assert code == 0
    assert json.loads(out) == {
        "segments": [
            {"kind": "star", "dur": "2/5"},
            {"kind": "track", "dur": "4/5", "h": ["-1", "1"], "cube": "e", "c0": ["1/2"], "c1": ["1/2"]},
            {"kind": "star", "dur": "4/5"},
        ]
    }

    # output of one transform feeds the next
    stage = tmp_path / "stage.json"
    stage.write_text(out)
    code, out, _ = invoke(
        capsys, "path", "phi", str(stage), "--complex", circle_file, "--side", "lower", "--t", "0"
    )
    assert code == 0
    assert json.loads(out) == json.loads(stage.read_text())

    code, out, _ = invoke(capsys, "path", "truncate", str(source), "--complex", circle_file)
    assert code == 0
    assert json.loads(out) == {
        "segments": [
            {"kind": "star", "dur": "1/3"},
            {"kind": "track", "dur": "1/3", "h": ["-1", "0"], "cube": "e", "c0": ["1/2"], "c1": ["1/2"]},
            {"kind": "track", "dur": "2/3", "h": ["0", "0"], "cube": "e", "c0": ["1/2"], "c1": ["1/2"]},
            {"kind": "track", "dur": "1/3", "h": ["0", "1"], "cube": "e", "c0": ["1/2"], "c1": ["1/2"]},
            {"kind": "star", "dur": "1/3"},
        ]
    }


def test_straighten_and_contract_commands(capsys, circle_file, loop_file):
    code, out, _ = invoke(capsys, "straighten", loop_file, "--complex", circle_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == json.loads(open(loop_file).read())
    assert len(payload["frames"]) == 5
    assert [letter["coords"] for letter in payload["sec"]] == [["1/3"], ["2/3"]]
    assert "trail" not in payload

    code, out, _ = invoke(
        capsys, "straighten", loop_file, "--complex", circle_file, "--samples", "3", "--contract"
    )
    payload = json.loads(out)
    assert len(payload["frames"]) == 3
    assert payload["trail"][-1] == {"segments": []}

    code, out, _ = invoke(capsys, "contract", loop_file, "--complex", circle_file)
    assert code == 0
    trail = json.loads(out)["trail"]
    assert trail[0] == json.loads(open(loop_file).read())
    assert trail[-1] == {"segments": []}


def test_straighten_contract_trail_equals_contract(capsys, tmp_path):
    sus = Suspension(torus_complex())
    loop = sus.make_increasing(random_loop(sus, random.Random(7), max_runs=3), F(1, 4))
    complex_file, path_file = tmp_path / "torus.json", tmp_path / "loop.json"
    complex_file.write_text(json.dumps(dump_complex(sus.base)))
    path_file.write_text(json.dumps(dump_path(loop)))
    for samples in ([], ["--samples", "3"]):
        argv = [str(path_file), "--complex", str(complex_file), *samples]
        code, out, _ = invoke(capsys, "straighten", *argv, "--contract")
        assert code == 0
        straightened = json.loads(out)
        code, out, _ = invoke(capsys, "contract", *argv)
        assert code == 0
        trail = json.loads(out)["trail"]
        assert straightened["trail"] == trail
        assert trail[: len(straightened["frames"])] == straightened["frames"]
        assert len(trail) > len(straightened["frames"]) + 1


def test_selftest_table(capsys):
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "10/10 criteria passed"


# runs each argv of a JSON list through ``cli.main``; prints the exit codes,
# the modules loaded since the start, less those the interpreter had, and
# whether the full tree of commands was built
_RUN_MAIN = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from dirloop import cli
with redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(set(sys.modules) - before), cli._build_parser.cache_info().currsize]))
"""


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded(fresh_interpreter):
    # only selftest needs the acceptance suite, its corpus and random;
    # modules the interpreter loaded before the import do not count
    script = (
        "import json, sys; before = set(sys.modules); import dirloop.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    loaded = fresh_interpreter(script)
    assert "dirloop.cli" in loaded
    assert {"dirloop.acceptance", "dirloop.corpus", "random"}.isdisjoint(loaded)
    # no command pays for ``dataclasses`` and the ``inspect`` it imports
    start_up = {"dataclasses", "inspect"}
    assert start_up.isdisjoint(loaded)
    # the algebra loads only for the commands that compute homology
    algebra = {"dirloop.homology", "dirloop.loop_algebra"}
    assert algebra.isdisjoint(loaded)

    path_stack = {"dirloop.paths", "dirloop.james", "dirloop.straighten"}
    data = Path(__file__).parent / "data"
    base, loop = str(data / "wedge3.json"), str(data / "wedge3_loop47.json")

    def run(*argvs):
        # each valid command parses with its own parser; the full tree of
        # commands is never built
        codes, loaded, tree_built = fresh_interpreter(_RUN_MAIN, json.dumps(argvs))
        assert codes == [0] * len(argvs) and tree_built == 0
        assert start_up.isdisjoint(loaded)
        return set(loaded)

    # validate and suspension run neither the algebra nor any path code
    loaded = run(["validate", base], ["suspension", base])
    assert (algebra | path_stack).isdisjoint(loaded)

    # the homology commands load the algebra and no path module
    loaded = run(["homology", base], ["loop-homology", base])
    assert algebra <= loaded and path_stack.isdisjoint(loaded)

    # one ``path eval`` loads the whole path stack, so a first ``sec`` or
    # ``straighten`` after it compiles nothing; no path command loads the algebra
    loaded = run(["path", "eval", loop, "--complex", base, "--t", "1"])
    assert path_stack <= loaded and algebra.isdisjoint(loaded)
    loaded = run(["contract", loop, "--complex", base])
    assert path_stack <= loaded and algebra.isdisjoint(loaded)

    # the acceptance suite runs every layer
    assert "dirloop.acceptance" in run(["selftest"])


def test_main_takes_any_iterable_of_arguments(capsys, circle_file, loop_file):
    # the first argument picks the modules to load, so main reads it off a list
    assert main(iter(["homology", circle_file])) == 0
    assert main(iter(["path", "eval", loop_file, "--complex", circle_file, "--t", "0"])) == 0
    capsys.readouterr()


_B, _L = "base.json", "loop.json"
_P = [_L, "--complex", _B]
_PARSER_ARGVS = [
    # no command, help at every level, unknown commands and subcommands
    [], ["-h"], ["--help"], ["--he"], ["-h", "homology", _B], ["homology", "-h"], ["selftest", "--help"],
    ["path", "-h"], ["path", "eval", "-h"], ["bogus"], ["Homology"], ["path"], ["path", "bogus"],
    ["path eval", *_P, "--t", "0"],
    # missing and unknown options, help beside an unknown option
    ["homology"], ["sec", _L], ["contract", _L], ["path", "eval"], ["path", "eval", *_P],
    ["path", "phi", *_P, "--t", "1/2"], ["homology", _B, "--bogus"], ["homology", _B, "-x"],
    ["path", "eval", *_P, "--t", "0", "--x"], ["homology", _B, "-h", "--bogus"], ["homology", _B, "--bogus", "-h"],
    # abbreviations, one of them ambiguous, and ``--opt=value``
    ["loop-homology", _B, "--fi", "zp:3", "--deg", "3"], ["straighten", _L, "--comp", _B, "--samp", "3"],
    ["straighten", _L, "--co", _B], ["homology", _B, "--field=zp:3"],
    ["path", "eval", _L, f"--complex={_B}", "--t=1/2"],
    # ``--``, and a value that looks like an option
    ["homology", "--", _B], ["homology", _B, "--", "--reduced"], ["--", "homology", _B],
    ["path", "eval", "--complex", _B, "--t", "0", "--", _L], ["path", "--", "eval", *_P, "--t", "0"],
    ["path", "eval", *_P, "--t", "-1/2"], ["path", "eval", *_P, "--t=-1/2"],
    # options before the command, extra positionals, a repeated option
    ["--reduced", "homology", _B], ["--complex", _B, "sec", _L], ["homology", _B, _B], ["selftest", "extra"],
    ["path", "eval", _L, _L, "--complex", _B, "--t", "0"], ["homology", _B, "--field", "q", "--field", "zp:3"],
    # refused values
    ["homology", _B, "--field", "zp:4"], ["homology", _B, "--field", "zp:0"], ["path", "eval", *_P, "--t", "x"],
    ["path", "increase", *_P, "--eps", "1e99999"], ["loop-homology", _B, "--degree", "x"],
    ["path", "verify", *_P, "--x-structure", "bogus"], ["path", "phi", *_P, "--side", "middle", "--t", "0"],
    ["selftest", "--seed", "x"],
    # one valid argv per command and ``path`` subcommand
    ["validate", _B], ["homology", _B, "--reduced"], ["suspension", _B], ["loop-homology", _B, "--degree", "4"],
    ["sec", *_P], ["straighten", *_P, "--samples", "3", "--contract"], ["contract", *_P, "--samples", "3"],
    ["path", "eval", *_P, "--t", "1/3"], ["path", "verify", *_P, "--x-structure", "directed"],
    ["path", "phi", *_P, "--side", "upper", "--t", "1/2"], ["path", "increase", *_P, "--eps", "1/4"],
    ["path", "truncate", *_P, "--delta", "1/8"], ["path", "truncate", *_P], ["selftest"],
]


def _parse_outcome(capsys, parse, argv):
    """What ``parse`` reads off ``argv``, less the command names, or its exit
    code, stdout and stderr."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()
    return {k: v for k, v in vars(args).items() if k not in ("command", "path_command")}


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_reads_the_arguments_as_the_full_tree_does(monkeypatch, capsys, argv):
    parse, parsed = cli._parse, []

    def parse_only(argv):
        # keeps what main parsed, and runs no handler
        parsed.append(parse(argv))
        return argparse.Namespace(handler=lambda args: (None, 0))

    monkeypatch.setattr(cli, "_parse", parse_only)

    def through_main(argv):
        assert main(argv) == 0
        return parsed.pop()

    through_tree = cli._build_parser().parse_args
    assert _parse_outcome(capsys, through_main, argv) == _parse_outcome(capsys, through_tree, argv)


def test_the_default_sample_grid_is_the_straightening_default():
    from dirloop.straighten import DEFAULT_SAMPLES

    parser = cli._build_parser()
    for command in ("straighten", "contract"):
        args = parser.parse_args([command, "loop.json", "--complex", "base.json"])
        assert cli._config(args).samples == DEFAULT_SAMPLES


def test_exit_codes_for_bad_input(capsys, tmp_path, circle_file, loop_file):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = invoke(capsys, "homology", str(garbled))
    assert code == 2 and "error:" in err

    code, _, err = invoke(capsys, "homology", str(tmp_path / "missing.json"))
    assert code == 2

    dangling = dump_complex(circle_complex())
    dangling["cubes"][1]["faces"]["d0_1"]["base"] = "ghost"
    target = tmp_path / "dangling.json"
    target.write_text(json.dumps(dangling))
    code, _, err = invoke(capsys, "homology", str(target))
    assert code == 2 and "ghost" in err

    # the shear is checked once, by the transform, after the files load
    for eps in ("0", "1", "2", "-1/2"):
        code, out, err = invoke(capsys, "path", "increase", loop_file, "--complex", circle_file, f"--eps={eps}")
        assert (code, out, err) == (1, "", "error: tilt must lie strictly between 0 and 1\n"), eps
    code, out, err = invoke(capsys, "path", "increase", str(garbled), "--complex", circle_file, "--eps", "2")
    assert code == 2 and out == "" and "garbled.json" in err and "tilt" not in err

    code, _, _ = invoke(capsys, "path", "eval", loop_file, "--complex", circle_file, "--t", "x/y")
    assert code == 2

    code, out, err = invoke(capsys, "loop-homology", circle_file, "--degree", "-1")
    assert code == 1 and out == "" and "degree must be nonnegative" in err
    code, out, err = invoke(capsys, "straighten", loop_file, "--complex", circle_file, "--samples", "1")
    assert code == 1 and out == "" and "samples must be at least 2" in err


def test_output_past_the_digit_limit_is_an_error_line(capsys, tmp_path):
    # degree 1500 over 1000 circles is 1000**1500, 4501 digits: formatting
    # it fails inside the guarded block, not after it
    target = tmp_path / "wedge.json"
    target.write_text(json.dumps(dump_complex(wedge_of_circles(1000))))
    code, out, err = invoke(capsys, "loop-homology", str(target), "--degree", "1500")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_an_unbounded_degree_stops_at_the_digit_limit(capsys):
    # over the wedge of three circles the coefficient in degree k is 3**k,
    # which passes 4300 digits near k = 9013: the series ends there, with
    # the interpreter's own text, however large the degree asked for
    wedge = str(Path(__file__).parent / "data" / "wedge3.json")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as too_long:
            str(10**4300)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "loop-homology", wedge, "--degree", "100000000")
    finally:
        sys.set_int_max_str_digits(limit)
    assert time.perf_counter() - start < 30
    assert code == 1 and out == ""
    assert err == f"error: {too_long.value}\n"


def test_a_series_of_small_coefficients_prints_every_degree(capsys, circle_file):
    code, out, err = invoke(capsys, "loop-homology", circle_file, "--degree", "20000")
    assert code == 0 and err == ""
    assert out == json.dumps({"series": [1] * 20001}) + "\n"


def test_running_out_of_memory_is_an_error_line(capsys, monkeypatch, circle_file):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "betti", exhausted)
    code, out, err = invoke(capsys, "homology", circle_file)
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("argv", [["contract"], ["straighten", "--contract", "--samples", "2"]])
def test_a_trail_past_the_digit_limit_is_an_error_line(capsys, tmp_path, circle_file, argv):
    # two letters lasting 1/r and 1/(r + 2), r of 401 digits, so every
    # input value reads under a limit of 640 digits; the walk home merges
    # them into one pause of (2r + 2)/(r(r + 2)), 801 digits.  With two
    # samples the frames are the loop and the word loop, so straighten has
    # formatted all but its trail when the trail fails to format
    r = 10**400 + 1
    x = (F(1, 2),)
    loop = CIRCLE.path(
        [
            StarSeg(F(1)),
            TrackSeg(F(1, r), F(-1), F(1), "e", x, x),
            StarSeg(F(1)),
            TrackSeg(F(1, r + 2), F(-1), F(1), "e", x, x),
        ]
    )
    target = tmp_path / "thin_letters.json"
    target.write_text(json.dumps(dump_path(loop)))
    argv = [argv[0], str(target), "--complex", circle_file, *argv[1:]]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and f"\"{2 * r + 2}/{r * (r + 2)}\"" in out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = invoke(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_huge_exponents_are_format_errors(capsys, tmp_path, circle_file, loop_file):
    # Fraction("1e100000000") would compute 10**100000000
    target = tmp_path / "long_pause.json"
    target.write_text(json.dumps({"segments": [{"kind": "star", "dur": "1e100000000"}]}))
    for argv in (
        ["path", "eval", str(target), "--complex", circle_file, "--t", "0"],
        ["path", "eval", loop_file, "--complex", circle_file, "--t", "1e100000000"],
    ):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 5, argv
        assert code == 2 and out == "", argv
        assert "1e100000000" in err and "Traceback" not in err


def test_bad_path_segment_is_named(capsys, tmp_path, circle_file):
    track = {"kind": "track", "dur": "1", "h": ["-1", "0"], "cube": "e", "c0": ["1/4"], "c1": ["1/4"]}
    high = dict(track, h=["0", "3/2"])
    target = tmp_path / "high.json"
    target.write_text(json.dumps({"segments": [{"kind": "star", "dur": "1"}, track, high]}))
    code, out, err = invoke(capsys, "path", "eval", str(target), "--complex", circle_file, "--t", "0")
    assert code == 1 and out == ""
    assert "segment 2" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "segment, message",
    [
        ({"kind": "star", "dur": True}, "segment 1 field dur: expected a rational, got True"),
        (
            {"kind": "track", "dur": "1", "h": ["-1", "1"], "cube": "e", "c0": ["1/4"], "c1": ["x"]},
            "segment 1 field c1: malformed rational 'x'",
        ),
    ],
)
def test_bad_rational_names_segment_and_field(capsys, tmp_path, circle_file, segment, message):
    target = tmp_path / "bad_rational.json"
    target.write_text(json.dumps({"segments": [{"kind": "star", "dur": "1"}, segment]}))
    code, out, err = invoke(capsys, "path", "eval", str(target), "--complex", circle_file, "--t", "0")
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_homology_rejects_face_of_wrong_dimension(capsys, tmp_path):
    torus = dump_complex(torus_complex())
    square = next(c for c in torus["cubes"] if c["dim"] == 2)
    square["faces"]["d0_1"] = {"base": "(v|v)", "degens": []}
    target = tmp_path / "wrong_dim.json"
    target.write_text(json.dumps(torus))
    code, out, err = invoke(capsys, "homology", str(target))
    assert code == 2 and out == ""
    assert "d0_1" in err and "'(e|e)'" in err and "dimension 0, expected 1" in err
    assert "Traceback" not in err


def test_field_primes_parse_fast_and_reject_composites(capsys, circle_file):
    code, out, _ = invoke(capsys, "homology", circle_file, "--field", "zp:1000000000000000003")
    assert code == 0
    assert json.loads(out) == {"dims": {"0": 1, "1": 1}}
    for composite in ("zp:561", "zp:1000000000000000001"):
        code, _, err = invoke(capsys, "homology", circle_file, "--field", composite)
        assert code == 2 and "Traceback" not in err


@pytest.mark.parametrize("command", ["homology", "loop-homology"])
def test_a_field_of_characteristic_zero_is_spelled_q(capsys, circle_file, command):
    # zp:<p> takes a prime; zp:0 is refused rather than read as the rationals
    code, out, err = invoke(capsys, command, circle_file, "--field", "zp:0")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(
        "error: argument --field: bad field spec 'zp:0'; expected 'q' or 'zp:<prime>'"
    )
    code, out, _ = invoke(capsys, command, circle_file, "--field", "q")
    assert code == 0 and out


def test_repeated_main_calls_do_not_leak_options(capsys, circle_file, loop_file):
    # the parser is built once per process; a flag given to one call must not
    # carry over to the next
    reduced = {"dims": {"0": 0, "1": 1}}
    plain = {"dims": {"0": 1, "1": 1}}
    for argv, want in [
        (["homology", circle_file, "--reduced"], reduced),
        (["homology", circle_file], plain),
        (["homology", circle_file, "--field", "zp:3", "--reduced"], reduced),
        (["homology", circle_file], plain),
    ]:
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(out) == want, argv

    path_args = [loop_file, "--complex", circle_file]
    code, out, _ = invoke(capsys, "straighten", *path_args, "--contract", "--samples", "3")
    assert code == 0
    payload = json.loads(out)
    assert "trail" in payload and len(payload["frames"]) == 3
    code, out, _ = invoke(capsys, "straighten", *path_args)
    assert code == 0
    payload = json.loads(out)
    assert "trail" not in payload and len(payload["frames"]) == 5


@pytest.mark.parametrize("cube", [["e"], {"id": "e"}, 7, None])
def test_non_string_cube_id_is_a_format_error(capsys, tmp_path, circle_file, cube):
    track = {"kind": "track", "dur": "1", "h": ["-1", "1"], "cube": cube, "c0": ["1/4"], "c1": ["1/4"]}
    target = tmp_path / "odd_cube.json"
    target.write_text(json.dumps({"segments": [{"kind": "star", "dur": "1"}, track]}))
    code, out, err = invoke(capsys, "sec", str(target), "--complex", circle_file)
    assert code == 2 and out == ""
    assert "segment 1" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# mangled path files: every run ends with 0, 1 or 2 and no traceback

_FUZZ_LOOP = dump_path(
    word_loop(
        CIRCLE,
        [RealizationPoint("e", (F(1, 3),)), RealizationPoint("e", (F(1, 2),))],
    )
)
_FUZZ_COMMANDS = [
    ["sec"],
    ["straighten", "--samples", "2"],
    ["contract", "--samples", "2"],
    ["path", "eval", "--t", "1"],
    ["path", "verify"],
    ["path", "increase", "--eps", "1/3"],
    ["path", "phi", "--side", "lower", "--t", "1/2"],
    ["path", "truncate"],
]
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "e", "v", "ghost", "1/2", "-1", "2", "1/0", "x", "nan", "1e9", "star", "track"]),
    st.lists(st.sampled_from(["1/2", "0", "1", 0, None]), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "dur", "cube"]), st.sampled_from(["star", "1", "e"]), max_size=2),
)
_mutation = st.tuples(
    st.sampled_from(["set", "drop", "rename", "shorten", "lengthen", "replace"]),
    st.integers(0, 10),
    st.sampled_from(["kind", "dur", "h", "cube", "c0", "c1", "segments"]),
    _junk,
)


def _mangle(obj, mutations):
    for op, index, key, junk in mutations:
        segs = obj.get("segments") if isinstance(obj, dict) else None
        if op == "replace" or not isinstance(segs, list) or not segs:
            obj = {"segments": junk} if key == "segments" else junk
            continue
        seg = segs[index % len(segs)]
        if op == "shorten":
            del segs[index % len(segs):]
        elif op == "lengthen":
            segs.append(json.loads(json.dumps(seg)))
        elif not isinstance(seg, dict):
            segs[index % len(segs)] = junk
        elif op == "set":
            seg[key] = junk
        elif op == "drop":
            seg.pop(key, None)
        elif op == "rename" and key in seg:
            seg[key + "_"] = seg.pop(key)
    return obj


@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(_mutation, min_size=1, max_size=4),
    command=st.sampled_from(_FUZZ_COMMANDS),
)
def test_mangled_path_files_never_crash(tmp_path_factory, mutations, command):
    work = tmp_path_factory.mktemp("fuzz")
    complex_file, path_file = work / "circle.json", work / "loop.json"
    complex_file.write_text(json.dumps(dump_complex(circle_complex())))
    path_file.write_text(json.dumps(_mangle(json.loads(json.dumps(_FUZZ_LOOP)), mutations)))
    head, *rest = command
    if head == "path":
        argv = [head, rest[0], str(path_file), "--complex", str(complex_file), *rest[1:]]
    else:
        argv = [head, str(path_file), "--complex", str(complex_file), *rest]
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "blob",
    [
        "[" * 100000 + "]" * 100000,
        '{"segments": [{"kind": "star", "dur": ' + "7" * 5000 + "}]}",
        b"\xff\xfe{}",
    ],
)
def test_unreadable_json_is_a_format_error(capsys, tmp_path, circle_file, blob):
    target = tmp_path / "odd.json"
    if isinstance(blob, bytes):
        target.write_bytes(blob)
    else:
        target.write_text(blob)
    code, out, err = invoke(capsys, "sec", str(target), "--complex", circle_file)
    assert code == 2 and out == ""
    assert "odd.json" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# the complex boundary: every command loads through validate

_TORUS_LOOP = dump_path(
    word_loop(Suspension(torus_complex()), [RealizationPoint("(e|v)", (F(1, 3),))])
)
# the commands that compute on a complex, as argv templates
_COMPUTING = [
    ["homology", "{c}"],
    ["suspension", "{c}"],
    ["loop-homology", "{c}", "--degree", "3"],
    ["path", "eval", "{p}", "--complex", "{c}", "--t", "1"],
    ["contract", "{p}", "--complex", "{c}", "--samples", "2"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _files(work, complex_obj):
    complex_file, path_file = work / "complex.json", work / "loop.json"
    complex_file.write_text(json.dumps(complex_obj))
    path_file.write_text(json.dumps(_TORUS_LOOP))
    return str(complex_file), str(path_file)


def test_no_command_computes_on_a_complex_validate_rejects(tmp_path):
    torus = dump_complex(torus_complex())
    square = next(c for c in torus["cubes"] if c["id"] == "(e|e)")
    square["faces"]["d0_1"] = {"base": "(v|v)", "degens": [3]}
    c, p = _files(tmp_path, torus)
    code, out, _, _ = _run(["validate", c])
    assert code == 1
    details = [(v["cube"], v["detail"]) for v in json.loads(out)["violations"]]
    assert ("(e|e)", "face d0_1 degeneracy index 3 exceeds its bound") in details
    for template in _COMPUTING:
        argv = [a.format(c=c, p=p) for a in template]
        code, out, err, _ = _run(argv)
        assert code == 2 and out == "", argv
        assert "'(e|e)'" in err and "d0_1" in err and "exceeds" in err, argv
        assert "Traceback" not in err


def test_validation_work_does_not_grow_with_the_declared_dimension(tmp_path):
    circle = dump_complex(circle_complex())
    circle["cubes"].append({"id": "big", "dim": 1000000000, "faces": {}})
    c, _ = _files(tmp_path, circle)
    code, out, _, took = _run(["validate", c])
    assert code == 1 and took < 1
    assert json.loads(out)["violations"] == [
        {"kind": "structure", "cube": "big", "detail": "missing face d0_1 and 1999999999 more", "indices": []}
    ]
    code, _, err, took = _run(["homology", c])
    assert code == 2 and took < 1
    assert "'big'" in err and "missing face d0_1" in err


_CUBE_IDS = ["(v|v)", "(e|v)", "(v|e)", "(e|e)"]
_complex_mutation = st.one_of(
    st.tuples(
        st.just("dim"), st.integers(0, 3), st.sampled_from([-1, 0, 1, 2, 3, 10**9, "2", None, True, 1.5])
    ),
    st.tuples(
        st.just("key"),
        st.integers(0, 7),
        st.sampled_from(
            ["d0_1", "d1_1", "d0_2", "d1_3", "d2_1", "d0_0", "d0_01", "d0_1\n", "x", "d0_1000000000"]
        ),
    ),
    st.tuples(st.just("drop"), st.integers(0, 7), st.none()),
    st.tuples(st.just("base"), st.integers(0, 7), st.sampled_from(_CUBE_IDS + ["ghost", "", None, 3])),
    st.tuples(
        st.just("degens"),
        st.integers(0, 7),
        st.sampled_from(
            [[], [1], [2], [3], [2, 1], [1, 1], [1, 2], [0], [-1], [10**9], ["1"], [True], [1.5], None, "1"]
        ),
    ),
)


def _mangle_complex(obj, mutations):
    cubes = obj["cubes"]
    for op, index, junk in mutations:
        cube = cubes[index % len(cubes)]
        if op == "dim":
            cube["dim"] = junk
            continue
        faces = cube["faces"]
        if not faces:
            continue
        key = sorted(faces)[index % len(faces)]
        if op == "key":
            faces[junk] = faces.pop(key)
        elif op == "drop":
            del faces[key]
        elif op == "base":
            faces[key]["base"] = junk
        else:
            faces[key]["degens"] = junk
    return obj


@settings(max_examples=120, deadline=None)
@given(mutations=st.lists(_complex_mutation, min_size=1, max_size=3))
def test_mangled_complex_files_never_crash(tmp_path_factory, mutations):
    c, p = _files(tmp_path_factory.mktemp("fuzz"), _mangle_complex(dump_complex(torus_complex()), mutations))
    verdict, _, err, took = _run(["validate", c])
    assert verdict in (0, 1, 2) and took < 5
    assert "Traceback" not in err
    for template in _COMPUTING:
        code, _, err, took = _run([a.format(c=c, p=p) for a in template])
        assert code in (0, 1, 2) and took < 5
        assert "Traceback" not in err
        # a presentation validate rejects or cannot read is never computed on
        if verdict != 0:
            assert code == 2, (template, err)


# a complex with plain faces only, and one whose faces carry degeneracy words
_PRODUCERS_BASES = [
    dump_complex(torus_complex()),
    dump_complex(tensor_product(suspension_model(circle_complex()).complex, circle_complex())),
]


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from(_PRODUCERS_BASES),
    mutations=st.lists(_complex_mutation, max_size=3),
    rnd=st.randoms(use_true_random=False),
)
# a row with a hole and a stray entry, among degenerate and plain faces
@example(base=_PRODUCERS_BASES[1], mutations=[("key", 7, "d0_1000000000")], rnd=random.Random(0))
@example(base=_PRODUCERS_BASES[0], mutations=[("key", 3, "d1_3")], rnd=random.Random(1))
def test_parsed_rows_and_rows_from_faces_give_one_answer(base, mutations, rnd):
    # the parser's rows and the rows a complex built in code gets from its
    # faces mapping are two producers of one layout: every reader agrees
    obj = _mangle_complex(json.loads(json.dumps(base)), mutations)
    for cube in obj["cubes"]:
        if isinstance(cube.get("faces"), dict):
            items = list(cube["faces"].items())
            rnd.shuffle(items)
            cube["faces"] = dict(items)
    try:
        L = parse_complex(obj)
    except FormatError:
        return
    # the faces the document holds, read without the parser's rows
    assert L.faces == {
        (cube["id"], int(key[3:]), int(key[1])): FaceRef(ref["base"], tuple(ref.get("degens", [])))
        for cube in obj["cubes"]
        for key, ref in cube.get("faces", {}).items()
    }
    M = CubicalSet(L.cubes, L.faces, L.basepoint)
    report = validate(L)
    assert report == validate(M)
    try:
        load_complex(obj)
    except FormatError as err:
        assert str(err) == f"cube {report[0].cube!r}: {report[0].detail}"
    else:
        assert report == []
        assert chain_complex(L) == chain_complex(M)


@pytest.mark.parametrize(
    "argv, keep",
    [
        # the reader leaves after 100 bytes, in the middle of the trail
        (["contract", "wedge3_loop47.json", "--complex", "wedge3.json"], 100),
        # the reader leaves before the first byte
        (["contract", "wedge3_loop47.json", "--complex", "wedge3.json"], 0),
        (["homology", "wedge3.json"], 0),
        (["selftest"], 0),
        # the reader leaves after one byte of 0.27 MB, more than a pipe holds
        (["contract", "wedge3_loop47.json", "--complex", "wedge3.json"], 1),
    ],
)
def test_a_closed_stdout_is_one_error_line(argv, keep):
    tests = Path(__file__).parent
    src = str(tests.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dirloop", *argv],
        cwd=tests / "data",
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(keep)) == keep
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    # one error line: no traceback, nothing from the flush at exit
    assert err == "error: [Errno 32] Broken pipe\n"


# ----------------------------------------------------------------------
# argument values: every run ends with 0, 1 or 2, one error line at most
# and no traceback.  The values reach the checks of ``FieldSpec``,
# ``RunConfig``, ``parse_rational`` and the transforms.  Left out, because
# their work has no bound yet: a large ``--samples`` (one frame each) and a
# degree whose series never reaches the digit limit.  ``selftest --seed``
# runs the whole acceptance suite on each seed, so it gets a few fixed seeds
# of its own (``test_selftest_passes_on_any_seed``) rather than hypothesis.

_rational_args = st.one_of(
    st.fractions(0, 1).map(str),
    st.builds("{}/{}".format, st.integers(-(10**80), 10**80), st.integers(-(10**80), 10**80)),
    # exponents of a few hundred: --eps 1e-4000 alone takes half a second
    st.builds("{}e{}".format, st.integers(-(10**6), 10**6), st.integers(-400, 400)),
    st.builds("{}.{}E{:+d}".format, st.integers(0, 99), st.integers(0, 10**40), st.integers(-400, 400)),
    st.sampled_from(["0", "1", "1/2", "-0", "1/0", "x/y", "", " 1/3 ", "nan", "inf", "1e", "1_000/3", "0x10"]),
)
_field_args = st.one_of(
    st.sampled_from(
        ["q", " Q ", "zp:3", "zp:0", "zp:-0", "zp:000", "zp:", "zp:x", "zp:1", "zp:-7", "zp:561", "r", ""]
        + [f"zp:{2**61 - 1}", f"zp:{MAX_CHARACTERISTIC}", "zp:318665857834031151167461"]
    ),
    # composites, up to the bound
    st.builds(lambda a, b: f"zp:{a * b}", st.integers(2, 10**12), st.integers(2, 10**12)),
    st.text(alphabet="zpq:0123456789-_ x", max_size=10),
)
_PATH = ["{loop}", "--complex", "{circle}"]
_argument_runs = st.one_of(
    st.builds(lambda t: ["path", "eval", *_PATH, f"--t={t}"], _rational_args),
    st.builds(
        lambda side, t: ["path", "phi", *_PATH, f"--side={side}", f"--t={t}"],
        st.sampled_from(["lower", "upper"]),
        _rational_args,
    ),
    st.builds(lambda eps: ["path", "increase", *_PATH, f"--eps={eps}"], _rational_args),
    st.builds(lambda delta: ["path", "truncate", *_PATH, f"--delta={delta}"], _rational_args),
    st.builds(lambda n: ["straighten", *_PATH, f"--samples={n}"], st.integers(-3, 4)),
    st.builds(lambda field: ["homology", "{wedge}", f"--field={field}"], _field_args),
    # over the wedge of three circles the coefficients grow as 3**k, so the
    # digit limit ends a series by degree 9013, whatever the degree asked for
    st.builds(
        lambda n, field: ["loop-homology", "{wedge}", f"--degree={n}", f"--field={field}"],
        st.one_of(st.integers(0, 300), st.integers(-(10**30), -1), st.sampled_from(["", "x", "1.5", "-0"])),
        st.one_of(st.sampled_from(["q", "zp:5"]), _field_args),
    ),
)


@pytest.fixture(scope="module")
def argument_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("arguments")
    (work / "circle.json").write_text(json.dumps(dump_complex(circle_complex())))
    (work / "loop.json").write_text(json.dumps(_FUZZ_LOOP))
    wedge = Path(__file__).parent / "data" / "wedge3.json"
    return {"circle": str(work / "circle.json"), "loop": str(work / "loop.json"), "wedge": str(wedge)}


@settings(max_examples=200, deadline=None)
@given(argv=_argument_runs)
# past the digit limit: an exponent, a numerator, a denominator and a degree
@example(argv=["path", "eval", *_PATH, "--t=1e100000000"])
@example(argv=["path", "increase", *_PATH, "--eps=1e-4301"])
@example(argv=["path", "phi", *_PATH, "--side=lower", "--t=" + "7" * 5000])
@example(argv=["path", "truncate", *_PATH, "--delta=1/" + "3" * 5000])
@example(argv=["loop-homology", "{wedge}", "--degree=" + "9" * 5000])
# a degree the digit limit stops
@example(argv=["loop-homology", "{wedge}", "--degree=" + "9" * 30])
@example(argv=["loop-homology", "{wedge}", "--degree=-1", "--field=zp:0"])
@example(argv=["path", "increase", *_PATH, "--eps=0"])
@example(argv=["straighten", *_PATH, f"--samples={-(10**30)}"])
def test_argument_values_never_crash(argument_files, argv):
    argv = [arg.format(**argument_files) for arg in argv]
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 5, argv
    assert code in (0, 1, 2), argv
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (code != 0), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    fields = [arg[len("--field="):].strip().lower() for arg in argv if arg.startswith("--field=")]
    if code == 0 and fields:
        # a field read is q, or zp: with a prime, never zp:0
        assert fields[0] == "q" or int(fields[0][3:]) > 1, argv


@pytest.mark.parametrize("seed", [-7, 0, 1, 10**30])
def test_selftest_passes_on_any_seed(capsys, seed):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "selftest", "--seed", str(seed))
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "10/10 criteria passed"
