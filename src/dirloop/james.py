"""Words of base points, their loops, and the crossing word of a loop.

A word is a finite string of base points with the basepoint acting as the
identity; reduction deletes it.  A point letter is a
:class:`~dirloop.cubical.RealizationPoint` and threads the suspension once;
extended interval letters are letters in the act of dying: they only leave
a pause behind.  The crossing word reads a directed loop back into a word
by listing its passages through the middle slice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .cubical import CubicalSet, RealizationPoint, _Frozen, normalize_point
from .paths import MoorePath, StarSeg, Suspension, _ramp_segments


class IntervalLetter(_Frozen):
    """A fading letter; ``value`` in (0, 1], with 1 acting as the identity."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        _Frozen.__init__(self, value)


class JamesWord(_Frozen):
    """Reduced word: no letter sits over the basepoint."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[RealizationPoint, ...]):
        _Frozen.__init__(self, letters)

    def __len__(self) -> int:
        return len(self.letters)


EMPTY_WORD = JamesWord(())


def reduce_word(K: CubicalSet, letters: Iterable[RealizationPoint]) -> JamesWord:
    """Normalize every letter and drop those landing on the basepoint."""
    bp = RealizationPoint(K.basepoint, ())
    out = []
    for p in letters:
        q = normalize_point(K, p.cube, p.coords)
        if q != bp:
            out.append(q)
    return JamesWord(tuple(out))


def multiply(K: CubicalSet, a: JamesWord, b: JamesWord) -> JamesWord:
    return reduce_word(K, a.letters + b.letters)


def _interval_value(letter: IntervalLetter) -> Fraction:
    v = Fraction(letter.value)
    if not 0 < v <= 1:
        raise ValueError(f"interval letter value {v} outside (0, 1]")
    return v


def word_loop(sus: Suspension, letters: Iterable) -> MoorePath:
    """String the letters into a loop: one thread per point letter (a
    ``RealizationPoint``), a pause of twice the value per interval letter."""
    segs = []
    for letter in letters:
        if isinstance(letter, RealizationPoint):
            x = normalize_point(sus.base, letter.cube, letter.coords)
            segs.extend(_ramp_segments(x, Fraction(-1), Fraction(1)))
        elif isinstance(letter, IntervalLetter):
            segs.append(StarSeg(2 * _interval_value(letter)))
        else:
            raise TypeError(f"not a letter: {letter!r}")
    return sus._join(segs)


def retract_word(K: CubicalSet, letters: Iterable) -> JamesWord:
    """Collapse extended letters to a plain reduced word.

    Interval letters retract to the identity and vanish; point letters,
    which are ``RealizationPoint``s, are kept.
    """
    pts = []
    for letter in letters:
        if isinstance(letter, RealizationPoint):
            pts.append(letter)
        elif isinstance(letter, IntervalLetter):
            _interval_value(letter)
        else:
            raise TypeError(f"not a letter: {letter!r}")
    return reduce_word(K, pts)


def crossing_word(sus: Suspension, loop: MoorePath) -> JamesWord:
    """Word of middle slice passages of a directed loop, in time order.

    The loop must start and end at the cone point and have nondecreasing
    heights along every segment; base movement is unrestricted.
    """
    if not sus.is_loop(loop):
        raise ValueError("crossing word needs a loop at the cone point")
    problems = sus.verify_directed(loop, "total")
    if problems:
        raise ValueError("loop is not directed: " + problems[0])
    return JamesWord(tuple(p for _, p in sus.middle_crossings(loop)))
