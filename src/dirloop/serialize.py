"""JSON formats for complexes, paths and words.

Rationals travel as strings ("1/3", "-2") so nothing ever rounds.  Dumps
are canonical: loading what was dumped gives back an equal value, and
equal values dump to identical text.  A string in the form dumps write
(ASCII ``-?digits(/digits)?``) is read with ``int``, each distinct string
once per document; any other string goes to ``Fraction``, so the accepted
grammar and its errors are those of ``Fraction(str)``, less an exponent
larger than the interpreter's integer digit limit
(``sys.get_int_max_str_digits()``).  Cube ids must be strings; anything
else is a ``FormatError`` naming the segment.  Words are only written
(:func:`dump_word`, for the ``sec`` command); no command reads one.

A path is written as the text of ``json.dumps(dump_path(path))`` by
:func:`path_text`, which joins the texts :func:`segment_texts` makes, each
distinct segment object encoded once: the frames of a contraction trail
share most of their segments.

A path is read in one pass, in document order.  Equal rational strings
within one document load as one shared ``Fraction``; nothing is kept from
one document to the next.  A path entry is read with cheap ``type(x) is``
tests, and one that fails them goes through the checks that name what is
wrong.  A malformed rational is reported at its first occurrence as
``segment <k> field <name>: ...``.

:func:`load_path` is the whole boundary for a path document, with the
checks of :meth:`Suspension.path` and the same errors: each entry is read,
its duration's sign and its heights' range are tested on the integers of
the ``Fraction`` just read, its coordinates are range checked and stripped
into their carrier, and the pieces go straight to ``Suspension._join``,
with no list of segments walked a second time.  One memo per document maps
each track's cube and lists of coordinate strings to its stripped carrier,
so the coordinates of the tracks of one excursion are read, checked and
stripped once, the two ends of a held track are one tuple, and each track
is built once, in its carrier.  A format error anywhere in the document
wins over a domain error, which the pass holds while it reads on; the
pieces before a domain error are joined first, so a broken junction before
it still wins.

A complex is read in one walk: :func:`parse_complex` reads each cube's
faces once, into its row in slot order ``2*(i-1)+eps`` (the layout that
``validate`` and ``chain_complex`` read), with one ``FaceRef`` per plain
base, and checks only what building a ``CubicalSet`` needs: types, face
keys (exactly ``d<eps>_<i>``, so distinct keys name distinct slots),
distinct ids and a vertex as basepoint.  Its type checks are cheap
``type(x) is`` tests; an entry that fails one is checked again by
``_cube_entry`` or ``_face_entry``, which raise the first error in the
documented order, or pass a ``dict``, ``str`` or ``int`` subclass that
the full checks accept.  :func:`load_complex` then runs
:func:`~dirloop.cubical.validate` and raises its first violation as a
``FormatError`` of the form ``cube '<id>': face d<eps>_<i> ...``.  Every
computing command loads; the ``validate`` command only parses.

The path readers and writers import :mod:`dirloop.paths` on their first
call, so reading a complex does not load the path code.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .cubical import (
    CubicalSet,
    FaceRef,
    FormatError,
    as_fraction,
    face_key,
    iter_violations,
    strip_boundary,
)

if TYPE_CHECKING:
    from .paths import MoorePath, Suspension

_FACE_KEY = re.compile(r"d([01])_([1-9][0-9]*)")
# the form every dump writes; [0-9] matches ASCII digits only
_PLAIN_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
# the exponent of a string ``Fraction`` would accept, which it raises 10 to
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def parse_rational(value) -> Fraction:
    """A rational from an integer or a string in any form ``Fraction`` accepts."""
    if isinstance(value, bool):
        raise FormatError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if _PLAIN_RATIONAL.fullmatch(value):
                num, _, den = value.partition("/")
                return Fraction(int(num), int(den) if den else 1)
            exp = _EXPONENT.search(value)
            limit = sys.get_int_max_str_digits()
            if not (exp and limit and abs(int(exp[1])) > limit):
                return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"malformed rational {value!r}") from None
        # 10**exp would take as long as reading an integer of exp digits,
        # which the interpreter refuses past its digit limit
        raise FormatError(f"rational {value!r} has an exponent beyond {limit}")
    raise FormatError(f"rationals must be strings or integers, got {value!r}")


def rational_str(value) -> str:
    return str(as_fraction(value))


def _require(obj, key: str, where: str, *args):
    # ``where`` is formatted with ``args`` only when the key is missing
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where.format(*args)} is missing {key!r}")
    return obj[key]


def _rational_reader():
    """``read(value, k, field)``: the rationals of one path document.

    Each distinct string is parsed once and later occurrences share its
    ``Fraction``; a failed parse stores nothing and names its place as
    ``segment <k> field <field>``.  Make one reader per document.
    """
    parsed: dict[str, Fraction] = {}

    def read(value, k: int, field: str) -> Fraction:
        if type(value) is str:
            hit = parsed.get(value)
            if hit is not None:
                return hit
        try:
            got = parse_rational(value)
        except FormatError as err:
            raise FormatError(f"segment {k} field {field}: {err}") from None
        if type(value) is str:
            parsed[value] = got
        return got

    return read


def dump_complex(K: CubicalSet) -> dict:
    cubes = []
    for name in sorted(K.cubes, key=lambda c: (K.cubes[c], c)):
        faces = {
            face_key(s // 2 + 1, s % 2): {"base": ref.base, "degens": list(ref.degens)}
            for s, ref in enumerate(K.rows[name])
        }
        cubes.append({"id": name, "dim": K.cubes[name], "faces": faces})
    return {"basepoint": K.basepoint, "cubes": cubes}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the word of a face entry without "degens"; read, never written to
_NO_DEGENS: list = []


def _cube_entry(entry, cubes: dict):
    """``(id, dim, faces)`` of a cube entry, each check with its own text.

    The reader calls this only when its cheap type tests fail, so the first
    error is reported in this order; a dict, str or int subclass that
    passes these checks is read through here.
    """
    name = _require(entry, "id", "cube entry")
    if not isinstance(name, str):
        raise FormatError(f"cube id must be a string, got {name!r}")
    dim = _require(entry, "dim", "cube {!r}", name)
    if not _is_int(dim):
        raise FormatError(f"cube {name!r} has malformed dimension {dim!r}")
    if name in cubes:
        raise FormatError(f"duplicate cube id {name!r}")
    raw_faces = entry.get("faces", {})
    if not isinstance(raw_faces, dict):
        raise FormatError(f"cube {name!r} faces must be an object")
    return name, dim, raw_faces


def _face_entry(ref, key, name):
    """``(base, degens)`` of a face entry, as :func:`_cube_entry` for cubes."""
    if not isinstance(ref, dict) or "base" not in ref:
        raise FormatError(f"face {key!r} of {name!r} is missing 'base'")
    base, degens = ref["base"], ref.get("degens", _NO_DEGENS)
    if not isinstance(base, str):
        raise FormatError(f"face {key!r} of {name!r} has malformed base")
    if not isinstance(degens, list) or degens and not all(map(_is_int, degens)):
        raise FormatError(f"face {key!r} of {name!r} has malformed degeneracies")
    return base, degens


def parse_complex(obj) -> CubicalSet:
    """The cubes and faces of a complex object, checked only as far as
    building a :class:`CubicalSet` needs: types, face keys, distinct ids,
    a vertex as basepoint.  :func:`load_complex` also validates.

    Each entry is read with ``type(x) is`` tests; one that fails them goes
    through :func:`_cube_entry` or :func:`_face_entry`, which check in the
    documented order and build the error text.
    """
    basepoint = _require(obj, "basepoint", "complex")
    raw_cubes = _require(obj, "cubes", "complex")
    if not isinstance(basepoint, str):
        raise FormatError("basepoint must be a cube id string")
    if not isinstance(raw_cubes, list):
        raise FormatError("cubes must be a list")
    cubes: dict[str, int] = {}
    rows: dict[str, tuple | dict] = {}
    stray: dict[tuple, FaceRef] = {}
    slot_of: dict[str, int] = {}  # face key -> its slot 2*(i-1)+eps, parsed once
    plain: dict[str, FaceRef] = {}  # base -> its one plain FaceRef
    for entry in raw_cubes:
        name = None  # so that an entry that is no dict fails the test below
        if type(entry) is dict:
            name, dim, raw_faces = entry.get("id"), entry.get("dim"), entry.get("faces")
        if type(name) is not str or type(dim) is not int or type(raw_faces) is not dict or name in cubes:
            name, dim, raw_faces = _cube_entry(entry, cubes)
        cubes[name] = dim
        width = 2 * dim
        # never longer than the entries present: a dict when some must be missing
        row = [None] * width if len(raw_faces) >= width else {}
        for key, ref in raw_faces.items():
            s = slot_of.get(key)
            if s is None:
                m = _FACE_KEY.fullmatch(key)
                if not m:
                    raise FormatError(f"cube {name!r} has malformed face key {key!r}")
                s = slot_of[key] = 2 * int(m[2]) - 2 + int(m[1])
            base = None  # so that a face entry that is no dict fails the test below
            if type(ref) is dict:
                base, degens = ref.get("base"), ref.get("degens", _NO_DEGENS)
            if type(base) is not str or type(degens) is not list:
                base, degens = _face_entry(ref, key, name)
            if not degens:
                face = plain.get(base) or plain.setdefault(base, FaceRef(base))
            else:
                if not all(type(j) is int for j in degens):
                    base, degens = _face_entry(ref, key, name)
                face = FaceRef(base, tuple(degens))
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


def load_complex(obj) -> CubicalSet:
    """A complex that :func:`~dirloop.cubical.validate` accepts.

    The first violation it finds is raised as a :class:`FormatError`
    naming the cube and the face key.
    """
    K = parse_complex(obj)
    for v in iter_violations(K):
        raise FormatError(f"cube {v.cube!r}: {v.detail}")
    return K


@functools.cache
def _segment_classes() -> tuple:
    """``(StarSeg, TrackSeg)``, imported on the first call: the path readers
    and writers load :mod:`dirloop.paths`, reading a complex does not."""
    from .paths import StarSeg, TrackSeg

    return StarSeg, TrackSeg


def dump_path(path: MoorePath) -> dict:
    StarSeg, _ = _segment_classes()

    def entry(seg) -> dict:
        if isinstance(seg, StarSeg):
            return {"kind": "star", "dur": rational_str(seg.duration)}
        return {
            "kind": "track",
            "dur": rational_str(seg.duration),
            "h": [rational_str(seg.h0), rational_str(seg.h1)],
            "cube": seg.cube,
            "c0": [rational_str(c) for c in seg.c0],
            "c1": [rational_str(c) for c in seg.c1],
        }

    return {"segments": [entry(seg) for seg in path.segments]}


def segment_texts(paths) -> dict:
    """``{id(seg): text}`` for the segments of the paths, each distinct
    segment object encoded once.

    ``text`` is ``json.dumps`` of the segment's entry in :func:`dump_path`;
    cube names go through ``json.dumps``.  This is the one step of writing
    a path that can fail (a value past the interpreter's integer digit
    limit), so a caller encodes every segment before it writes anything.
    The ids stay valid
    only while the paths are alive.  Segments share their value objects
    and coordinate tuples, so each of those is written once too, by id.
    """
    StarSeg, _ = _segment_classes()
    texts: dict[int, str] = {}
    cubes: dict = {}
    values: dict[int, str] = {}
    arrays: dict[int, str] = {}

    def value(x) -> str:
        return values.get(id(x)) or values.setdefault(id(x), rational_str(x))

    def array(xs) -> str:
        # a JSON list of rational strings; these need no escaping
        return arrays.get(id(xs)) or arrays.setdefault(
            id(xs), '["' + '", "'.join(map(value, xs)) + '"]' if xs else "[]"
        )

    for path in paths:
        for seg in path.segments:
            if id(seg) in texts:
                continue
            if isinstance(seg, StarSeg):
                text = f'{{"kind": "star", "dur": "{value(seg.duration)}"}}'
            else:
                cube = cubes.get(seg.cube)
                if cube is None:
                    cube = cubes[seg.cube] = json.dumps(seg.cube)
                text = (
                    f'{{"kind": "track", "dur": "{value(seg.duration)}", '
                    f'"h": ["{value(seg.h0)}", "{value(seg.h1)}"], '
                    f'"cube": {cube}, "c0": {array(seg.c0)}, "c1": {array(seg.c1)}}}'
                )
            texts[id(seg)] = text
    return texts


def path_text(path: MoorePath, texts=None) -> str:
    """``json.dumps(dump_path(path))``, joined from the segment texts.

    ``texts`` comes from :func:`segment_texts` over paths that include
    this one; without it the path's own segments are encoded.
    """
    if texts is None:
        texts = segment_texts((path,))
    return '{"segments": [' + ", ".join(map(texts.__getitem__, map(id, path.segments))) + "]}"


def _track_entry(entry, k: int, kind, cubes) -> tuple:
    """``(cube, h, c0, c1)`` of a track entry, unread, each check with its own text.

    :func:`load_path` calls this only when its cheap type tests fail, once
    the duration is read, so the first error is reported in this order; a
    dict, str or list subclass that passes these checks is read through here.
    """
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
    return cube, h, c0, c1


def load_path(sus: Suspension, obj) -> MoorePath:
    """The path of a path document, equal to ``sus.path`` of its segments
    and failing with the same first error, in one pass.

    Each entry is read with ``type(x) is`` tests; one that fails them goes
    through ``_require`` and :func:`_track_entry`, which check in the
    documented order and build the error text.  Past the first domain error
    (``ValueError``) the rest is only read, for a format error
    (``FormatError``), which wins; then the pieces before it are joined, for
    a broken junction, which wins too; then it is raised.
    """
    StarSeg, TrackSeg = _segment_classes()
    raw = _require(obj, "segments", "path")
    if not isinstance(raw, list):
        raise FormatError("segments must be a list")
    read = _rational_reader()
    K, cubes = sus.base, sus.base.cubes
    # (cube, c0 strings, c1 strings) -> the stripped carrier; only all-string
    # lists are keys, since ``True == 1 == 1.0`` could match a list that
    # reads differently
    carriers: dict[tuple, tuple] = {}
    pieces = []
    error = None  # the first domain error, as ``segment <k>: ...``
    for k, entry in enumerate(raw):
        kind = dur = None
        if type(entry) is dict:
            kind, dur = entry.get("kind"), entry.get("dur")
        if kind is None or dur is None:
            kind, dur = _require(entry, "kind", "segment {}", k), _require(entry, "dur", "segment {}", k)
        d = read(dur, k, "dur")
        if kind != "star":
            cube, h, c0, c1 = entry.get("cube"), entry.get("h"), entry.get("c0"), entry.get("c1")
            if not (
                kind == "track"
                and type(cube) is str
                and type(h) is list
                and len(h) == 2
                and type(c0) is list
                and type(c1) is list
                and len(c0) == len(c1) == cubes.get(cube)
            ):
                cube, h, c0, c1 = _track_entry(entry, k, kind, cubes)
            h0, h1 = read(h[0], k, "h"), read(h[1], k, "h")
            key = (cube, tuple(c0), tuple(c1))
            try:
                carrier = carriers.get(key)
            except TypeError:  # an unhashable coordinate, which ``read`` rejects
                carrier = None
            if carrier is None:
                # a hit was read when it was stored; a miss is read here, past
                # a held error too, for a format error
                strings = all(type(c) is str for c in c0 + c1)
                held = strings and c0 == c1  # its two ends load as one tuple
                c0 = tuple([read(c, k, "c0") for c in c0])
                c1 = c0 if held else tuple([read(c, k, "c1") for c in c1])
        if error:
            continue
        if d.numerator <= 0 or kind == "star":
            # a pause, or an empty track as a pause of duration 0, which the
            # join drops but counts, so that its errors name document indices
            if d.numerator < 0:
                error = f"segment {k}: duration {d} is negative"
            else:
                pieces.append(StarSeg(d))
            continue
        # -1 <= h <= 1 on the integers: a denominator is always positive
        if abs(h0.numerator) > h0.denominator or abs(h1.numerator) > h1.denominator:
            error = f"segment {k}: track heights must lie in [-1, 1]"
            continue
        if carrier is None:
            try:
                carrier = strip_boundary(K, cube, (c0, c1))
            except ValueError as err:
                error = f"segment {k}: {err}"
                continue
            if strings:
                carriers[key] = carrier
        cube, (c0, c1) = carrier
        pieces.append(TrackSeg(d, h0, h1, cube, c0, c1))
    path = sus._join(pieces)
    if error:
        raise ValueError(error)
    return path


def dump_word(word) -> list:
    return [
        {"cube": pt.cube, "coords": [rational_str(c) for c in pt.coords]} for pt in word
    ]

