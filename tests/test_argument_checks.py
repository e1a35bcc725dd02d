"""Each library entry point refuses the arguments it documents as invalid."""

import random
from fractions import Fraction as F

import pytest

from dirloop.corpus import circle_complex, interval_complex, point_complex, random_interior_point
from dirloop.cubical import CubicalSet, RealizationPoint, quotient_collapse
from dirloop.james import retract_word
from dirloop.loop_algebra import count_words_by_enumeration
from dirloop.paths import STAR, MoorePath, Suspension
from dirloop.straighten import chain_split, full_straighten

SUS = Suspension(circle_complex())
X = RealizationPoint("e", (F(1, 2),))
LOOP = SUS.basic_loop(X)
# half a climb: it ends on the middle slice, not at the cone point
HALF = SUS.ramp(X, -1, 0)

BAD_CALLS = {
    "path empty_at": (lambda: SUS.path([], empty_at=X), "empty_at must be a suspension point"),
    "path empty_at with segments": (
        lambda: SUS.path(LOOP.segments, empty_at=X),
        "empty_at must be a suspension point",
    ),
    "reparam one row": (lambda: SUS.reparam(LOOP, [(0, 0)]), "at least two rows"),
    "reparam first row": (
        lambda: SUS.reparam(LOOP, [(1, 0), (3, 2)]),
        r"table row 0: table must start at \(0, 0\)",
    ),
    "shrink_cone stage": (lambda: SUS.shrink_cone(LOOP, "lower", 2), r"must lie in \[0, 1\]"),
    "attach_then_detach stage": (
        lambda: SUS.attach_then_detach(X, LOOP, F(-1, 2)),
        r"stage must lie in \[0, 1\]",
    ),
    "attach_then_detach open path": (
        lambda: SUS.attach_then_detach(X, HALF, F(1, 2)),
        "needs a loop at the cone point",
    ),
    "detach_then_attach stage": (
        lambda: SUS.detach_then_attach(HALF, F(3, 2)),
        r"stage must lie in \[0, 1\]",
    ),
    "chain_split open path": (lambda: chain_split(SUS, HALF), "needs a loop at the cone point"),
    "full_straighten samples": (
        lambda: full_straighten(SUS, LOOP, (F(0), F(2))),
        r"samples must lie in \[0, 1\]",
    ),
    "empty cube name": (
        lambda: CubicalSet({"v": 0, "": 1}, {}, "v"),
        "cube names must be nonempty strings",
    ),
    "collapse nothing": (lambda: quotient_collapse(interval_complex(), []), "target is empty"),
    "collapse unknown cube": (
        lambda: quotient_collapse(interval_complex(), ["a", "ghost"]),
        "unknown cube 'ghost'",
    ),
    "retract non-letter": (lambda: retract_word(circle_complex(), ["e"]), "not a letter: 'e'"),
    "enumerate negative total": (
        lambda: count_words_by_enumeration([1, 2], -1),
        "total degree must be nonnegative",
    ),
    "interior point of a point": (
        lambda: random_interior_point(point_complex(), random.Random(0)),
        "no positive dimensional cubes",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_bad_arguments_are_refused(case):
    call, message = BAD_CALLS[case]
    with pytest.raises((ValueError, TypeError), match=message):
        call()


def test_concat_of_no_paths_is_the_empty_path_at_the_cone_point():
    assert SUS.concat() == MoorePath((), STAR)
