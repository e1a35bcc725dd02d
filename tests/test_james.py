import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dirloop.corpus import (
    circle_complex,
    random_loop,
    random_reparam,
    random_xprime_letters,
    torus_complex,
)
from dirloop.cubical import RealizationPoint
from dirloop.james import (
    EMPTY_WORD,
    IntervalLetter,
    JamesWord,
    crossing_word,
    multiply,
    reduce_word,
    retract_word,
    word_loop,
)
from dirloop.paths import StarSeg, Suspension

F = Fraction


@pytest.fixture
def sus():
    return Suspension(circle_complex())


X1 = RealizationPoint("e", (F(1, 4),))
X2 = RealizationPoint("e", (F(3, 4),))


def test_reduce_word_drops_basepoint(sus):
    K = sus.base
    w = reduce_word(K, [X1, RealizationPoint("v", ()), X2, RealizationPoint("e", (F(0),))])
    assert w == JamesWord((X1, X2))
    assert reduce_word(K, []) == EMPTY_WORD
    assert len(w) == 2


def test_multiply_monoid_laws(sus):
    K = sus.base
    a = reduce_word(K, [X1])
    b = reduce_word(K, [X2, X1])
    c = reduce_word(K, [X2])
    assert multiply(K, a, EMPTY_WORD) == a
    assert multiply(K, EMPTY_WORD, a) == a
    assert multiply(K, multiply(K, a, b), c) == multiply(K, a, multiply(K, b, c))


def test_word_loop_shapes(sus):
    assert word_loop(sus, [X1]) == sus.basic_loop(X1)
    assert word_loop(sus, [IntervalLetter(F(1, 2))]) == sus.path([StarSeg(F(1))])
    mixed = word_loop(sus, [X1, IntervalLetter(F(1)), X2])
    assert mixed.duration == 6
    assert word_loop(sus, []).duration == 0


def test_word_loop_letter_validation(sus):
    with pytest.raises(ValueError):
        word_loop(sus, [IntervalLetter(F(0))])
    with pytest.raises(ValueError):
        word_loop(sus, [IntervalLetter(F(3, 2))])
    with pytest.raises(TypeError):
        word_loop(sus, ["x"])


def test_retract_word_drops_interval_letters(sus):
    K = sus.base
    w = retract_word(K, [X1, IntervalLetter(F(1, 4)), X2])
    assert w == JamesWord((X1, X2))
    with pytest.raises(ValueError):
        retract_word(K, [IntervalLetter(F(2))])


def test_crossing_word_reads_word_loops_back(sus):
    loop = word_loop(sus, [X1, IntervalLetter(F(1, 2)), X2])
    assert crossing_word(sus, loop) == JamesWord((X1, X2))


def test_crossing_word_rejects_open_or_undirected_paths(sus):
    with pytest.raises(ValueError, match="loop"):
        crossing_word(sus, sus.ramp(X1, -1, 0))
    from dirloop.paths import TrackSeg

    wiggle = sus.path(
        [
            TrackSeg(F(1), F(-1), F(1, 2), "e", (F(1, 2),), (F(1, 2),)),
            TrackSeg(F(1), F(1, 2), F(-1), "e", (F(1, 2),), (F(1, 2),)),
        ]
    )
    with pytest.raises(ValueError, match="directed"):
        crossing_word(sus, wiggle)


BASES = [circle_complex, torus_complex]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(BASES))
def test_crossing_word_inverts_word_loop(seed, make_base):
    rng = random.Random(seed)
    s = Suspension(make_base())
    letters = random_xprime_letters(s.base, rng)
    assert crossing_word(s, word_loop(s, letters)) == retract_word(s.base, letters)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_crossing_word_is_a_monoid_map(seed):
    rng = random.Random(seed)
    s = Suspension(circle_complex())
    l1, l2 = random_loop(s, rng), random_loop(s, rng)
    both = s.concat(l1, l2)
    assert crossing_word(s, both) == multiply(
        s.base, crossing_word(s, l1), crossing_word(s, l2)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_crossing_word_survives_reparametrization(seed):
    rng = random.Random(seed)
    s = Suspension(circle_complex())
    loop = random_loop(s, rng)
    moved = s.reparam(loop, random_reparam(loop.duration, rng))
    assert crossing_word(s, moved) == crossing_word(s, loop)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_crossing_word_counts_runs(seed):
    rng = random.Random(seed)
    s = Suspension(torus_complex())
    loop = random_loop(s, rng)
    _, runs = s.pauses_and_runs(loop)
    assert len(crossing_word(s, loop)) == len(runs)
