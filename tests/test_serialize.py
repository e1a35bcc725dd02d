"""JSON round trips and malformed-input reporting."""

import json
import random
import re
import sys
from collections import OrderedDict
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirloop.corpus import (
    circle_complex,
    interval_complex,
    random_loop,
    torus_complex,
    wedge_of_circles,
)
from dirloop import serialize
from dirloop.cli import main
from dirloop.cubical import CubicalSet, FaceRef, RealizationPoint, suspension_model, tensor_product
from dirloop.paths import STAR, MoorePath, StarSeg, Suspension, TrackSeg
from dirloop.serialize import (
    _rational_reader,
    FormatError,
    dump_complex,
    dump_path,
    dump_word,
    load_complex,
    load_path,
    parse_complex,
    parse_rational,
    path_text,
    rational_str,
    segment_texts,
)
from dirloop.straighten import contract_to_constant

CIRCLE = Suspension(circle_complex())
BASES = [CIRCLE, Suspension(torus_complex()), Suspension(wedge_of_circles(3))]


def test_parse_rational_accepts_strings_and_ints():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("-2") == -2
    assert parse_rational(4) == 4
    assert rational_str(F(-3, 6)) == "-1/2"
    assert rational_str(2) == "2"


@pytest.mark.parametrize("bad", [1.5, True, None, "x/y", "1/0", [1]])
def test_parse_rational_rejects_junk(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def _fraction_or_rejected(text):
    # the accepted grammar is whatever Fraction(str) accepts, less an
    # exponent larger than the interpreter's integer digit limit
    try:
        value = F(text)
    except (ValueError, ZeroDivisionError):
        return "rejected"
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > sys.get_int_max_str_digits():
        return "rejected"
    return value


def _parsed_or_rejected(text):
    try:
        value = parse_rational(text)
    except FormatError:
        return "rejected"
    assert type(value) is F
    return value


@pytest.mark.parametrize(
    "text",
    [
        " 1/2 ",
        "+3",
        "1.5",
        "1e3",
        "1_000",
        "\u0663",
        "-0",
        "0/5",
        "1/0",
        "--1",
        "7" * 5000,
        "1/" + "3" * 5000,
        "1e4300",
        "1e4301",
        "-2.5E-4301",
        " 1e4_301 ",
        "-12/18",
        "007/010",
        "1/2\n",
        "1 /2",
        "1/-2",
        "-",
        "/2",
        "",
    ],
)
def test_parse_rational_agrees_with_fraction(text):
    assert _parsed_or_rejected(text) == _fraction_or_rejected(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/-+ ._e\u0663", max_size=8))
def test_parse_rational_agrees_with_fraction_on_any_string(text):
    assert _parsed_or_rejected(text) == _fraction_or_rejected(text)


def test_rational_str_keeps_the_canonical_form():
    for value in (F(0), F(-1), F(7, 3), F(-22, 8), 5, -4):
        assert rational_str(value) == str(F(value))
    assert parse_rational(rational_str(F(-22, 8))) == F(-11, 4)


@pytest.mark.parametrize("K", [circle_complex(), interval_complex(), torus_complex()])
def test_complex_round_trip(K):
    blob = json.dumps(dump_complex(K))
    L = load_complex(json.loads(blob))
    assert L.cubes == K.cubes
    assert L.faces == K.faces
    assert L.basepoint == K.basepoint
    assert json.dumps(dump_complex(L)) == blob


def test_complex_format_matches_contract():
    obj = dump_complex(circle_complex())
    assert obj == {
        "basepoint": "v",
        "cubes": [
            {"id": "v", "dim": 0, "faces": {}},
            {
                "id": "e",
                "dim": 1,
                "faces": {
                    "d0_1": {"base": "v", "degens": []},
                    "d1_1": {"base": "v", "degens": []},
                },
            },
        ],
    }


def test_a_complex_with_a_missing_or_stray_face_dumps_as_read():
    # edge e lacks its face d1_1 and has a face d1_3 past its dimension
    plain = {"base": "v", "degens": []}
    doc = {
        "basepoint": "v",
        "cubes": [{"id": "v", "dim": 0, "faces": {}}, {"id": "e", "dim": 1, "faces": {"d1_3": plain, "d0_1": plain}}],
    }
    K = parse_complex(doc)
    dumped = dump_complex(K)
    # every entry, in (i, eps) order whatever the order read
    assert dumped == doc and list(dumped["cubes"][1]["faces"]) == ["d0_1", "d1_3"]
    L = parse_complex(dumped)
    assert (L.rows, L._stray) == (K.rows, K._stray)
    # a complex built in code with a face missing dumps the faces it has
    built = CubicalSet({"v": 0, "e": 1}, {("e", 1, 1): FaceRef("v")}, "v")
    assert dump_complex(built)["cubes"][1]["faces"] == {"d1_1": plain}
    assert parse_complex(dump_complex(built)).faces == built.faces


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda o: o.pop("basepoint"), "basepoint"),
        (lambda o: o["cubes"][1]["faces"].pop("d0_1"), "missing face"),
        (lambda o: o["cubes"][1]["faces"].update({"dx_1": {"base": "v", "degens": []}}), "face key"),
        (lambda o: o["cubes"][1]["faces"]["d0_1"].update({"base": "ghost"}), "unknown cube"),
        (lambda o: o["cubes"].append({"id": "v", "dim": 0, "faces": {}}), "duplicate"),
        (lambda o: o["cubes"][1].update({"dim": -1}), "dimension"),
        (lambda o: o["cubes"][1]["faces"].update({"d0_2": {"base": "v", "degens": []}}), "exceeds"),
        (lambda o: o.update({"basepoint": "e"}), "basepoint"),
        # a trailing newline is not part of a face key, alone or next to
        # the key it would shadow
        (lambda o: o["cubes"][1]["faces"].update({"d0_1\n": o["cubes"][1]["faces"].pop("d0_1")}),
         "malformed face key"),
        (lambda o: o["cubes"][1]["faces"].update({"d0_1\n": {"base": "ghost", "degens": []}}),
         "face key 'd0_1"),
        (lambda o: o.update({"basepoint": 7}), "basepoint must be a cube id string"),
        (lambda o: o.update({"cubes": {"v": 0}}), "cubes must be a list"),
        (lambda o: o["cubes"][0].update({"id": ["v"]}), "cube id must be a string"),
        (lambda o: o["cubes"][1].update({"faces": [["d0_1", "v"]]}), "faces must be an object"),
        (lambda o: o["cubes"][1]["faces"]["d0_1"].pop("base"), "is missing 'base'"),
    ],
)
def test_load_complex_rejects_mangled_input(mangle, message):
    obj = dump_complex(circle_complex())
    mangle(obj)
    with pytest.raises((FormatError, ValueError), match=message):
        load_complex(obj)


# ----------------------------------------------------------------------
# parse_complex against the reader it replaced, on edited documents

_FACE_KEY = re.compile(r"d([01])_([1-9][0-9]*)")


def _require(obj, key, where, *args):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where.format(*args)} is missing {key!r}")
    return obj[key]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _reference_parse_complex(obj):
    # the reader before its type tests, kept as it was: every check in
    # order, each with its own error text
    basepoint = _require(obj, "basepoint", "complex")
    raw_cubes = _require(obj, "cubes", "complex")
    if not isinstance(basepoint, str):
        raise FormatError("basepoint must be a cube id string")
    if not isinstance(raw_cubes, list):
        raise FormatError("cubes must be a list")
    cubes = {}
    rows = {}
    stray = {}
    slot_of = {}
    plain = {}
    for entry in raw_cubes:
        name = _require(entry, "id", "cube entry")
        if not isinstance(name, str):
            raise FormatError(f"cube id must be a string, got {name!r}")
        dim = _require(entry, "dim", "cube {!r}", name)
        if not _is_int(dim):
            raise FormatError(f"cube {name!r} has malformed dimension {dim!r}")
        if name in cubes:
            raise FormatError(f"duplicate cube id {name!r}")
        cubes[name] = dim
        raw_faces = entry.get("faces", {})
        if not isinstance(raw_faces, dict):
            raise FormatError(f"cube {name!r} faces must be an object")
        width = 2 * dim
        row = [None] * width if len(raw_faces) >= width else {}
        for key, ref in raw_faces.items():
            s = slot_of.get(key)
            if s is None:
                m = _FACE_KEY.fullmatch(key)
                if not m:
                    raise FormatError(f"cube {name!r} has malformed face key {key!r}")
                s = slot_of[key] = 2 * int(m[2]) - 2 + int(m[1])
            if not isinstance(ref, dict) or "base" not in ref:
                raise FormatError(f"face {key!r} of {name!r} is missing 'base'")
            base, degens = ref["base"], ref.get("degens", [])
            if not isinstance(base, str):
                raise FormatError(f"face {key!r} of {name!r} has malformed base")
            if not isinstance(degens, list) or degens and not all(map(_is_int, degens)):
                raise FormatError(f"face {key!r} of {name!r} has malformed degeneracies")
            if degens:
                face = FaceRef(base, tuple(degens))
            else:
                face = plain.get(base) or plain.setdefault(base, FaceRef(base))
            if s < width:
                row[s] = face
            else:
                stray[(name, s // 2 + 1, s % 2)] = face
        if type(row) is list:
            row = tuple(row) if all(row) else {s: f for s, f in enumerate(row) if f}
        rows[name] = row
    try:
        return CubicalSet.from_rows(cubes, rows, stray, basepoint)
    except ValueError as err:
        raise FormatError(str(err)) from None


class _Dict(dict):
    pass


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    pass


def _sus(make):
    return lambda: suspension_model(make()).complex


# the second half carries degenerate faces
_PARSE_BASES = {
    "interval": interval_complex,
    "circle": circle_complex,
    "wedge2": lambda: wedge_of_circles(2),
    "torus": torus_complex,
    "sus-circle": _sus(circle_complex),
    "sus-torus": _sus(torus_complex),
    "sus-circle*interval": lambda: tensor_product(_sus(circle_complex)(), interval_complex()),
}
_NOT_A_DICT = [None, 3, True, 1.5, "v", ["v"], [], ("v",)]
_VALUES = [None, True, False, 0, 1, 2, -1, 1.0, "1", "", "v", [], [1], {}, _Int(1)]


def _edit(data, obj):
    """One random edit of a dumped complex, in place."""
    cubes = obj["cubes"]
    k = data.draw(st.integers(0, len(cubes) - 1))
    entry = cubes[k]
    kind = data.draw(st.sampled_from([
        "entry", "dim", "id", "duplicate", "faces", "ordered",
        "face", "base", "word", "no-word", "extra", "stray", "key", "reverse", "subclass",
    ]))
    if kind == "entry":
        cubes[k] = data.draw(st.sampled_from(_NOT_A_DICT))
        return
    if type(entry) not in (dict, OrderedDict, _Dict):
        return
    if kind == "dim":
        if data.draw(st.booleans()):
            entry.pop("dim", None)
        else:
            entry["dim"] = data.draw(st.sampled_from(_VALUES + [3]))
    elif kind == "id":
        other = cubes[data.draw(st.integers(0, len(cubes) - 1))]
        choices = [7, None, ["v"], "", _Str(entry.get("id", "v"))]
        if isinstance(other, dict) and "id" in other:
            choices.append(other["id"])
        if data.draw(st.booleans()):
            entry.pop("id", None)
        else:
            entry["id"] = data.draw(st.sampled_from(choices))
    elif kind == "duplicate":
        cubes.insert(data.draw(st.integers(0, len(cubes))), json.loads(json.dumps(entry)))
    elif kind == "faces":
        if data.draw(st.booleans()):
            entry.pop("faces", None)
        else:
            entry["faces"] = data.draw(st.sampled_from([None, [], "x", 0]))
    elif kind == "ordered":
        cubes[k] = data.draw(st.sampled_from([OrderedDict, _Dict]))(entry)
        if isinstance(entry.get("faces"), dict):
            cubes[k]["faces"] = data.draw(st.sampled_from([OrderedDict, _Dict]))(entry["faces"])
    else:
        faces = entry.get("faces")
        if not isinstance(faces, dict):
            return
        if kind == "stray":
            i = data.draw(st.sampled_from([entry.get("dim", 0) + 1, 9])) if _is_int(entry.get("dim")) else 9
            faces[f"d{data.draw(st.integers(0, 1))}_{i}"] = {"base": "v", "degens": []}
            return
        if kind == "key":
            bad = data.draw(st.sampled_from(["dx_1", "d0_0", "d0_01", "d2_1", "d0_1\n", "d_1", "D0_1", "d0_1 "]))
            if faces and data.draw(st.booleans()):
                key = data.draw(st.sampled_from(sorted(faces)))
                faces[bad] = faces.pop(key)
            else:
                faces[bad] = {"base": "v", "degens": []}
            return
        if kind == "reverse":
            entry["faces"] = type(faces)(reversed(list(faces.items())))
            return
        if not faces:
            return
        key = data.draw(st.sampled_from(sorted(faces)))
        ref = faces[key]
        if kind == "face":
            faces[key] = data.draw(st.sampled_from(_NOT_A_DICT + [{}, {"degens": []}]))
            return
        if not isinstance(ref, dict):
            return
        if kind == "subclass":
            faces[key] = data.draw(st.sampled_from([OrderedDict, _Dict]))(ref)
        elif kind == "base":
            if data.draw(st.booleans()):
                ref.pop("base", None)
            else:
                ref["base"] = data.draw(st.sampled_from([1, None, ["v"], "ghost", _Str(ref.get("base", "v"))]))
        elif kind == "word":
            ref["degens"] = data.draw(st.sampled_from(
                [[True], [1.0], ["1"], [1, True], [0], [2, 1], [1], [1, 1], [_Int(1)], None, "1", (1,), {}]
            ))
        elif kind == "no-word":
            ref.pop("degens", None)
        elif kind == "extra":
            ref[data.draw(st.sampled_from(["x", "Base", "degens "]))] = data.draw(st.sampled_from(_VALUES))


def _parse_outcome(parse, obj):
    try:
        K = parse(obj)
    except (FormatError, ValueError, TypeError) as err:
        return type(err), str(err)
    return K.cubes, K.rows, K._stray, K.basepoint


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_PARSE_BASES)), st.integers(0, 3), st.data())
def test_parse_complex_matches_the_reference_reader(which, edits, data):
    obj = dump_complex(_PARSE_BASES[which]())
    for _ in range(edits):
        _edit(data, obj)
    assert _parse_outcome(parse_complex, obj) == _parse_outcome(_reference_parse_complex, obj)


@pytest.mark.parametrize("which", sorted(_PARSE_BASES))
def test_parse_complex_matches_the_reference_reader_on_stock_complexes(which):
    obj = dump_complex(_PARSE_BASES[which]())
    K = parse_complex(obj)
    assert _parse_outcome(parse_complex, obj) == _parse_outcome(_reference_parse_complex, obj)
    assert K.rows == _PARSE_BASES[which]().rows


def test_path_round_trip_frozen():
    x = RealizationPoint("e", (F(1, 4),))
    loop = CIRCLE.concat(CIRCLE.basic_loop(x), CIRCLE.path([]))
    obj = dump_path(loop)
    assert obj == {
        "segments": [
            {
                "kind": "track",
                "dur": "2",
                "h": ["-1", "1"],
                "cube": "e",
                "c0": ["1/4"],
                "c1": ["1/4"],
            }
        ]
    }
    assert load_path(CIRCLE, obj) == loop


def _fraction_fields(path):
    for seg in path.segments:
        yield seg.duration
        if isinstance(seg, TrackSeg):
            yield from (seg.h0, seg.h1, *seg.c0, *seg.c1)


@given(st.sampled_from(BASES), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_path_round_trip_random(sus, rng):
    loop = random_loop(sus, rng)
    blob = json.dumps(dump_path(loop))
    obj = json.loads(blob)
    first, second = load_path(sus, obj), load_path(sus, obj)
    assert first == loop and second == loop
    assert json.dumps(dump_path(first)) == blob
    values = list(_fraction_fields(first))
    assert all(type(v) is F for v in values)
    # a canonical dump reloads without merging, so every value is read from
    # the document, where equal values are equal strings: one object each
    shared: dict = {}
    assert all(shared.setdefault(v, v) is v for v in values)
    # and nothing is kept from one call to the next
    assert not {id(v) for v in values} & {id(v) for v in _fraction_fields(second)}


@given(st.sampled_from(BASES), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_path_text_is_the_json_of_dump_path(sus, rng):
    # a contraction trail shares most segment objects between its frames;
    # the texts of one encoding serve them all
    loop = sus.make_increasing(random_loop(sus, rng), F(1, 2))
    trail = contract_to_constant(sus, loop)
    texts = segment_texts(trail)
    assert len(texts) == len({id(seg) for fr in trail for seg in fr.segments})
    assert path_text(loop) == json.dumps(dump_path(loop))
    for frame in trail:
        assert path_text(frame, texts) == json.dumps(dump_path(frame))


@pytest.mark.parametrize(
    "segments",
    [
        (),
        # paths built in code may hold int values, which dump as rationals
        (TrackSeg(1, -1, 0, "e", (0,), (1,)), StarSeg(3), TrackSeg(F(1, 2), 0, 1, "e", (1,), (F(2, 3),))),
        # a vertex track has no coordinates
        (StarSeg(F(1, 2)), TrackSeg(F(2), F(-1), F(1), "v", (), ())),
        # cube names are JSON strings: quotes, backslashes, non-ASCII
        (
            TrackSeg(F(1), F(-1, 2), F(0), 'q"uote', (F(1, 3),), (F(1, 3),)),
            TrackSeg(F(1), F(0), F(1, 2), "back\\slash", (F(1, 3), F(1)), (F(1, 3), F(0))),
            TrackSeg(F(1), F(1, 2), F(1), "w\u00e9dge-\u2207\U0001d54a\n", (F(0),), (F(7, 9),)),
        ),
    ],
)
def test_path_text_of_paths_built_in_code(segments):
    path = MoorePath(segments, STAR)
    assert path_text(path) == json.dumps(dump_path(path))
    shared = MoorePath(segments + segments[:1], STAR)
    texts = segment_texts([path, shared])
    assert path_text(shared, texts) == json.dumps(dump_path(shared))


def test_load_path_builds_each_track_once(monkeypatch):
    # a canonical loop of 161 segments, the size of the largest bench loops
    sus = Suspension(wedge_of_circles(3))
    rng = random.Random(161)
    loop = sus.path([])
    while len(loop.segments) < 161:
        more = random_loop(sus, rng)
        if len(loop.segments) + len(more.segments) > 161:
            more = sus.basic_loop(RealizationPoint("e1", (F(1, 3),)))
        loop = sus.concat(loop, more)
    assert len(loop.segments) == 161
    obj = dump_path(loop)
    tracks = sum(seg["kind"] == "track" for seg in obj["segments"])
    built = []
    init = TrackSeg.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    stripped = []
    strip = serialize.strip_boundary

    def counting_strip(K, cube, tuples):
        stripped.append(cube)
        return strip(K, cube, tuples)

    monkeypatch.setattr(TrackSeg, "__init__", counting_init)
    monkeypatch.setattr(serialize, "strip_boundary", counting_strip)
    loaded = load_path(sus, obj)
    assert loaded == loop
    assert len(built) <= tracks
    # every track of the loop is held, and its two ends load as one tuple
    assert all(seg.c0 is seg.c1 for seg in loaded.segments if isinstance(seg, TrackSeg))
    # the tracks of one excursion share their carrier, which is stripped once
    carriers = {(s["cube"], *map(tuple, (s["c0"], s["c1"]))) for s in obj["segments"] if s["kind"] == "track"}
    assert len(carriers) < tracks
    assert len(stripped) == len(carriers)


_TRACK = {"kind": "track", "dur": "1", "h": ["-1", "1"], "cube": "e", "c0": ["1/4"], "c1": ["1/4"]}


@pytest.mark.parametrize(
    "segments, message",
    [
        ([{"kind": "star", "dur": True}], "segment 0 field dur: expected a rational, got True"),
        ([{"kind": "star", "dur": 1.5}], "segment 0 field dur: rationals must be strings"),
        ([_TRACK, dict(_TRACK, c0=["x"])], "segment 1 field c0: malformed rational 'x'"),
        ([dict(_TRACK, h=["-1", "1/0"])], "segment 0 field h: malformed rational '1/0'"),
        # of two malformed strings, the first in document order is reported
        ([dict(_TRACK, c1=["y"]), dict(_TRACK, dur="x")], "segment 0 field c1: malformed rational 'y'"),
        ([dict(_TRACK, dur="x", c0=["y"])], "segment 0 field dur: malformed rational 'x'"),
        # a repeated malformed string is reported where it first occurs
        (
            [_TRACK, dict(_TRACK, c0=["x"]), {"kind": "star", "dur": "x"}],
            "segment 1 field c0: malformed rational 'x'",
        ),
        (
            [_TRACK, {"kind": "star", "dur": "x"}, dict(_TRACK, c0=["x"])],
            "segment 1 field dur: malformed rational 'x'",
        ),
        # True == 1 == 1.0, so only all-string coordinate lists are shared
        ([dict(_TRACK, c0=[1], c1=[True])], "segment 0 field c1: expected a rational, got True"),
        ([dict(_TRACK, c0=[1], c1=[1.0])], "segment 0 field c1: rationals must be strings"),
        ([dict(_TRACK, c1=[1.0])], "segment 0 field c1: rationals must be strings"),
        (
            [dict(_TRACK, c0=[[1]])],
            "segment 0 field c0: rationals must be strings or integers, got [1]",
        ),
    ],
)
def test_load_path_names_the_segment_and_field_of_a_bad_rational(segments, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
        load_path(CIRCLE, {"segments": segments})


def test_load_path_shares_equal_coordinate_lists_within_one_document():
    # two tracks that meet but do not merge, each held, over one point
    obj = {"segments": [dict(_TRACK, h=["-1", "0"]), dict(_TRACK, dur="2", h=["0", "1"])]}
    first, second = load_path(CIRCLE, obj).segments
    assert first.c0 is first.c1 is second.c0 is second.c1
    again = load_path(CIRCLE, obj).segments[0]
    assert again == first and again.c0 is not first.c0 and again.h1 is not first.h1


def _counting_strips(monkeypatch):
    # the cubes ``load_path`` strips from, in order
    stripped = []
    strip = serialize.strip_boundary

    def counting_strip(K, cube, tuples):
        stripped.append(cube)
        return strip(K, cube, tuples)

    monkeypatch.setattr(serialize, "strip_boundary", counting_strip)
    return stripped


def test_equal_coordinates_over_two_cubes_have_two_carriers(monkeypatch):
    sus = Suspension(wedge_of_circles(2))
    e0, e1 = (sus.basic_loop(RealizationPoint(e, (F(1, 3),))) for e in ("e0", "e1"))
    loop = sus.concat(sus.concat(e0, e1), e0)
    stripped = _counting_strips(monkeypatch)
    loaded = load_path(sus, dump_path(loop))
    assert loaded == loop
    assert [seg.cube for seg in loaded.segments] == ["e0", "e1", "e0"]
    assert stripped == ["e0", "e1"]


_LOW, _HIGH = dict(_TRACK, h=["-1", "0"]), dict(_TRACK, h=["0", "1"])


def _climb(low, high):
    # pole to pole in two held tracks, over the coordinates ``low``, then ``high``
    return {"segments": [dict(_LOW, c0=low, c1=low), dict(_HIGH, c0=high, c1=high)]}


@pytest.mark.parametrize(
    "first, second, message",
    [
        (["1"], [1], None),
        ([1], [1], None),
        ([0], [0], None),
        (["1"], [True], "segment 1 field c0: expected a rational, got True"),
        ([1], [True], "segment 1 field c0: expected a rational, got True"),
        (["1"], [1.0], "segment 1 field c0: rationals must be strings or integers, got 1.0"),
        ([1], [1.0], "segment 1 field c0: rationals must be strings or integers, got 1.0"),
    ],
)
def test_only_lists_of_strings_key_a_carrier(monkeypatch, first, second, message):
    # True == 1 == 1.0, so a key with other values could match a list that
    # reads differently: such a list neither hits nor fills a key, and is
    # read and stripped at each track
    strings = [str(c) for c in first]
    expected = load_path(CIRCLE, _climb(strings, strings))
    stripped = _counting_strips(monkeypatch)
    if message:
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_path(CIRCLE, _climb(first, second))
    else:
        assert load_path(CIRCLE, _climb(first, second)) == expected
        assert stripped == ["e", "e"]


def test_a_key_first_met_past_a_domain_error_is_read_and_not_stripped(monkeypatch):
    stripped = _counting_strips(monkeypatch)
    with pytest.raises(ValueError, match=r"^segment 0: duration -1 is negative$"):
        load_path(CIRCLE, {"segments": [dict(_TRACK, dur="-1"), _TRACK, _TRACK]})
    assert stripped == []
    # a key met before the error hits past it; one first met past it is read
    with pytest.raises(FormatError, match="^segment 3 field c1: malformed rational 'x'$"):
        load_path(CIRCLE, {"segments": [_LOW, dict(_TRACK, dur="-1"), _HIGH, dict(_TRACK, c1=["x"])]})
    assert stripped == ["e"]


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda o: o.pop("segments"), "segments"),
        (lambda o: o["segments"][0].pop("dur"), "dur"),
        (lambda o: o["segments"][0].update({"kind": "arc"}), "kind"),
        (lambda o: o["segments"][0].update({"cube": "ghost"}), "unknown cube"),
        (lambda o: o["segments"][0].update({"cube": ["e"]}), "cube id must be a string"),
        (lambda o: o["segments"][0].update({"h": ["-1"]}), "height"),
        (lambda o: o["segments"][0].update({"c0": []}), "coordinates"),
        (lambda o: o["segments"][0].update({"dur": "0.5.1"}), "rational"),
        (lambda o: o.update({"segments": {"0": o["segments"][0]}}), "segments must be a list"),
    ],
)
def test_load_path_rejects_mangled_input(mangle, message):
    obj = dump_path(CIRCLE.basic_loop(RealizationPoint("e", (F(1, 4),))))
    mangle(obj)
    with pytest.raises(FormatError, match=message):
        load_path(CIRCLE, obj)


def test_load_path_reports_domain_errors_as_domain_errors():
    # a structurally fine file whose segments do not join is not a format
    # problem; the junction check fires instead
    obj = {
        "segments": [
            {"kind": "track", "dur": "1", "h": ["-1", "0"], "cube": "e", "c0": ["1/4"], "c1": ["1/4"]},
            {"kind": "track", "dur": "1", "h": ["0", "1"], "cube": "e", "c0": ["3/4"], "c1": ["3/4"]},
        ]
    }
    with pytest.raises(ValueError) as err:
        load_path(CIRCLE, obj)
    assert not isinstance(err.value, FormatError)


def _reference_coords(read):
    # the coordinate lists of one document: an all-string list is read once
    # and later equal lists share its tuple
    lists = {}

    def coords(values, k, field):
        key = tuple(values)
        try:
            hit = lists.get(key)
        except TypeError:
            hit = None
        if hit is not None:
            return hit
        got = tuple([read(c, k, field) for c in values])
        if all(type(c) is str for c in values):
            lists[key] = got
        return got

    return coords


def _reference_segment(entry, k, cubes, read, coords):
    # every check of one entry in order, each with its own error text;
    # ``(dur,)`` for a pause, ``(dur, h0, h1, cube, c0, c1)`` for a track
    kind = _require(entry, "kind", "segment {}", k)
    dur = read(_require(entry, "dur", "segment {}", k), k, "dur")
    if kind == "star":
        return (dur,)
    if kind != "track":
        raise FormatError(f"segment {k} has unknown kind {kind!r}")
    cube = _require(entry, "cube", "segment {}", k)
    if not isinstance(cube, str):
        raise FormatError(f"segment {k} cube id must be a string, got {cube!r}")
    if cube not in cubes:
        raise FormatError(f"segment {k} references unknown cube {cube!r}")
    h = _require(entry, "h", "segment {}", k)
    if not isinstance(h, list) or len(h) != 2:
        raise FormatError(f"segment {k} needs a two element height list")
    c0 = _require(entry, "c0", "segment {}", k)
    c1 = _require(entry, "c1", "segment {}", k)
    dim = cubes[cube]
    for label, values in (("c0", c0), ("c1", c1)):
        if not isinstance(values, list) or len(values) != dim:
            raise FormatError(
                f"segment {k} field {label} needs {dim} coordinates for cube {cube!r}"
            )
    return dur, read(h[0], k, "h"), read(h[1], k, "h"), cube, coords(c0, k, "c0"), coords(c1, k, "c1")


def _reference_load_path(sus, obj):
    """The two-pass loader: every entry is read into a segment first, then
    ``Suspension.path`` checks, strips and joins the list."""
    raw = _require(obj, "segments", "path")
    if not isinstance(raw, list):
        raise FormatError("segments must be a list")
    read = _rational_reader()
    coords = _reference_coords(read)
    fields = [_reference_segment(entry, k, sus.base.cubes, read, coords) for k, entry in enumerate(raw)]
    return sus.path([StarSeg(*f) if len(f) == 1 else TrackSeg(*f) for f in fields])


def _outcome(load, sus, obj):
    try:
        return load(sus, obj)
    except ValueError as err:
        return type(err), str(err)


def _split(entry, s):
    # a track cut at parameter s into two pieces that merge again
    dur, (h0, h1) = F(entry["dur"]), map(F, entry["h"])
    c0, c1 = [list(map(F, entry[key])) for key in ("c0", "c1")]
    mid = [rational_str(a + s * (b - a)) for a, b in zip(c0, c1)]
    height = rational_str(h0 + s * (h1 - h0))
    return [
        dict(entry, dur=rational_str(dur * s), h=[entry["h"][0], height], c1=mid),
        dict(entry, dur=rational_str(dur * (1 - s)), h=[height, entry["h"][1]], c0=mid),
    ]


def _mangled_document(sus, rng):
    """A path document that may hold every kind of entry the loader meets.

    Built from a random loop: tracks cut so that they merge again, full
    climbs over boundary points (which strip), coordinate lists of JSON
    integers, and then a few edits that may make it malformed (unknown
    cubes, bad rationals) or break a domain rule (negative durations,
    heights past the poles, coordinates outside [0, 1], broken junctions).
    """
    segments = dump_path(random_loop(sus, rng))["segments"]
    for _ in range(rng.randint(0, 2)):
        k = rng.randrange(len(segments))
        if segments[k]["kind"] == "track":
            segments[k : k + 1] = _split(segments[k], F(rng.randint(1, 3), 4))
    cubes = sorted(sus.base.cubes)
    for _ in range(rng.randint(0, 2)):
        # a full climb over a point with every slot at 0 or 1, or at 1/2
        cube = rng.choice(cubes)
        point = [rng.choice(["0", "1", "1/2", 0, 1]) for _ in range(sus.base.cubes[cube])]
        climb = {"kind": "track", "dur": rng.choice(["1", "1/2", 2]), "h": ["-1", "1"], "cube": cube}
        climb.update(c0=point, c1=list(point) if rng.random() < 0.5 else point)
        # between two pauses at the cone point a climb is continuous
        k = rng.choice([0, len(segments)] + [i + 1 for i, e in enumerate(segments) if e["kind"] == "star"])
        segments.insert(k, climb)
    edits = [
        lambda e: e.update(dur=rng.choice(["0", 0, "-1", "-1/3"])),
        lambda e: e.update(h=[rng.choice(["-1", "-3/2", "1/2"]), rng.choice(["1", "3/2", "-2"])]),
        lambda e: e.update(cube=rng.choice(["ghost", *cubes])),
        lambda e: e.update(dur=rng.choice(["x", "1/0", True, 1.5])),
        lambda e: e.update(c0=[rng.choice(["0", "1", "4/3", "-1", "y", 1]) for _ in e.get("c0", ())]),
        lambda e: e.update(c1=list(e.get("c0", ()))),
        lambda e: e.pop("kind", None),
    ]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        rng.choice(edits)(rng.choice(segments))
    if rng.random() < 0.2:
        k = rng.randrange(len(segments))
        segments.insert(k, dict(segments[k], dur="0", h=["2", "-3"]))
    if rng.random() < 0.2:
        rng.shuffle(segments)
    return {"segments": segments}


@given(st.sampled_from(BASES), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_load_path_matches_the_two_pass_reference(sus, rng):
    obj = _mangled_document(sus, rng)
    got = _outcome(load_path, sus, json.loads(json.dumps(obj)))
    assert got == _outcome(_reference_load_path, sus, obj)
    if isinstance(got, MoorePath):
        assert all(type(v) is F for v in _fraction_fields(got))


def test_load_path_reads_tracks_of_dict_str_and_list_subclasses(monkeypatch):
    # no track passes the cheap ``type(x) is`` tests, so each one is read
    # through ``_track_entry``, which hands back its fields unread
    data = Path(__file__).parent / "data"
    sus = Suspension(load_complex(json.loads((data / "wedge3.json").read_text())))
    obj = json.loads((data / "wedge3_loop47.json").read_text())
    segments = [
        OrderedDict(e, cube=_Str(e["cube"]), h=_List(e["h"]), c0=_List(e["c0"]), c1=_List(e["c1"]))
        if e["kind"] == "track"
        else e
        for e in obj["segments"]
    ]
    track_entry, calls = serialize._track_entry, []
    monkeypatch.setattr(serialize, "_track_entry", lambda e, k, *rest: calls.append(k) or track_entry(e, k, *rest))
    loop = load_path(sus, {"segments": segments})
    assert calls == [k for k, e in enumerate(segments) if type(e) is OrderedDict] != []
    assert loop == load_path(sus, obj)


@pytest.mark.parametrize(
    "segments, kind, message, code",
    [
        # a format error anywhere wins over an earlier domain error
        ([dict(_TRACK, dur="-1"), dict(_TRACK, c0=["x"])], FormatError, "segment 1 field c0: malformed rational 'x'", 2),
        # a broken junction wins over a domain error at a later segment
        (
            [dict(_TRACK, h=["-1", "0"]), dict(_TRACK, h=["0", "1"], c0=["3/4"], c1=["3/4"]), dict(_TRACK, dur="-1")],
            ValueError,
            "discontinuous junction between segment 0 and segment 1",
            1,
        ),
        # lists of JSON integers load as fresh tuples, each checked
        (
            [dict(_TRACK, c0=[0], c1=[0]), dict(_TRACK, c0=[2], c1=[2])],
            ValueError,
            "segment 1: coordinates must lie in [0,1]",
            1,
        ),
        # and a domain error wins over a broken junction past it
        (
            [_TRACK, dict(_TRACK, h=["-1", "3/2"]), dict(_TRACK, h=["-1", "0"]), dict(_TRACK, h=["1/2", "1"])],
            ValueError,
            "segment 1: track heights must lie in [-1, 1]",
            1,
        ),
    ],
)
def test_load_path_reports_the_first_error(capsys, tmp_path, segments, kind, message, code):
    obj = {"segments": segments}
    with pytest.raises(ValueError) as err:
        load_path(CIRCLE, obj)
    assert type(err.value) is kind and str(err.value) == message
    assert _outcome(_reference_load_path, CIRCLE, obj) == (kind, message)
    complex_file, path_file = tmp_path / "circle.json", tmp_path / "path.json"
    complex_file.write_text(json.dumps(dump_complex(CIRCLE.base)))
    path_file.write_text(json.dumps(obj))
    assert main(["path", "eval", str(path_file), "--complex", str(complex_file), "--t", "0"]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_word_round_trip():
    word = (
        RealizationPoint("e", (F(1, 3),)),
        RealizationPoint("e", (F(2, 3),)),
    )
    obj = dump_word(word)
    assert obj == [
        {"cube": "e", "coords": ["1/3"]},
        {"cube": "e", "coords": ["2/3"]},
    ]
