from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ast
import pathlib
import pickle
import random

import dirloop

from dirloop.corpus import (
    circle_complex,
    interval_complex,
    random_interior_point,
    random_loop,
    random_reparam,
    torus_complex,
    wedge_of_circles,
)
from dirloop.cubical import (
    RealizationPoint,
    boundary_snap,
    normalize_point,
    suspension_model,
    tensor_product,
)
from dirloop.james import IntervalLetter, word_loop
from dirloop.paths import (
    Interior,
    MoorePath,
    STAR,
    StarSeg,
    Suspension,
    TrackSeg,
    _clamped_track,
    _lerp,
    _map_heights,
    _same_rate,
    _shifted,
    _slice,
    classify_point,
    is_strictly_increasing,
)
from dirloop.straighten import (
    chain_split,
    contract_straightened,
    full_straighten,
    straighten_step,
)

F = Fraction


@pytest.fixture
def sus():
    return Suspension(circle_complex())


@pytest.fixture
def x():
    return RealizationPoint("e", (F(1, 2),))


def const_track(dur, h0, h1, coord=F(1, 2)):
    return TrackSeg(F(dur), F(h0), F(h1), "e", (coord,), (coord,))


def test_point_classification(sus):
    assert sus.point(-1, "e", (F(1, 2),)) is STAR
    assert sus.point(1, "e", (F(1, 2),)) is STAR
    assert sus.point(0, "v", ()) is STAR
    assert sus.point(F(1, 2), "e", (F(0),)) is STAR
    p = sus.point(0, "e", (F(1, 2),))
    assert p == Interior(F(0), RealizationPoint("e", (F(1, 2),)))
    assert classify_point(p) == "middle"
    assert classify_point(sus.point(F(-1, 2), "e", (F(1, 2),))) == "lower"
    assert classify_point(STAR) == "star"
    with pytest.raises(ValueError):
        sus.point(2, "v", ())


def test_point_off_basepoint_vertex():
    s = Suspension(interval_complex())
    assert s.point(0, "e", (F(1),)) == Interior(F(0), RealizationPoint("b", ()))
    assert s.point(0, "e", (F(0),)) is STAR


def test_path_drops_empty_and_merges_stars(sus):
    p = sus.path([StarSeg(F(0)), StarSeg(F(1)), StarSeg(F(2))])
    assert p.segments == (StarSeg(F(3)),)
    assert sus.path([StarSeg(F(0))]) == MoorePath((), STAR)


def test_path_track_over_basepoint_becomes_pause(sus):
    p = sus.path([TrackSeg(F(2), F(-1), F(1), "v", (), ())])
    assert p.segments == (StarSeg(F(2)),)


def test_path_strips_constant_boundary_coordinate():
    sus2 = Suspension(torus_complex())
    p = sus2.path([TrackSeg(F(1), F(0), F(1, 2), "(e|e)", (F(0), F(1, 4)), (F(0), F(3, 4)))])
    assert p.segments == (
        TrackSeg(F(1), F(0), F(1, 2), "(v|e)", (F(1, 4),), (F(3, 4),)),
    )


def test_path_rebuilds_int_values_lists_and_boundary_tracks():
    # the boundary canonicalizer hands back Fraction values and tuple
    # coordinates, whatever it is given
    sus2 = Suspension(torus_complex())
    kept = (F(1), F(0), F(1, 2), "(e|e)", (F(1, 4), F(1, 3)), (F(3, 4), F(1, 3)))
    for ints in (
        TrackSeg(1, *kept[1:]),
        TrackSeg(*kept[:1], 0, *kept[2:]),
        TrackSeg(*kept[:2], 1, *kept[3:]),
        TrackSeg(*kept[:4], (F(1, 4), 0), kept[5]),
        TrackSeg(*kept[:5], [F(3, 4), F(1, 3)]),
    ):
        (seg,) = sus2.path([ints]).segments
        assert seg is not ints
        values = (seg.duration, seg.h0, seg.h1, *seg.c0, *seg.c1)
        assert all(type(v) is F for v in values)
        assert type(seg.c0) is tuple and type(seg.c1) is tuple
    # a track that strips gets a new carrier and new coordinate tuples
    boundary = TrackSeg(F(1), F(0), F(1, 2), "(e|e)", (F(0), F(1, 4)), (F(0), F(3, 4)))
    (seg,) = sus2.path([boundary]).segments
    assert seg is not boundary and seg.cube == "(v|e)"
    assert seg.c0 == (F(1, 4),) and seg.c1 == (F(3, 4),)


def test_path_merges_collinear_tracks(sus, x):
    p = sus.path([const_track(1, -1, 0), const_track(1, 0, 1)])
    assert p == sus.basic_loop(x)


def test_path_rejects_discontinuous_junction(sus):
    with pytest.raises(ValueError, match="junction"):
        sus.path([const_track(1, -1, 0, F(1, 2)), const_track(1, 0, 1, F(1, 4))])


def test_path_allows_junction_through_cone_point(sus):
    p = sus.path([const_track(1, 0, 1), const_track(1, -1, 0)])
    assert len(p.segments) == 2


def test_path_allows_sideways_entry_to_cone_point():
    s = Suspension(interval_complex())
    p = s.path(
        [
            TrackSeg(F(1), F(1, 4), F(1, 2), "e", (F(1, 2),), (F(0),)),
            TrackSeg(F(1), F(-1, 2), F(0), "e", (F(0),), (F(1, 2),)),
        ]
    )
    assert len(p.segments) == 2
    assert s.is_loop(p) is False


def test_path_input_validation(sus):
    with pytest.raises(ValueError):
        sus.path([StarSeg(F(-1))])
    with pytest.raises(ValueError):
        sus.path([TrackSeg(F(1), F(-2), F(0), "e", (F(1, 2),), (F(1, 2),))])
    with pytest.raises(ValueError):
        sus.path([TrackSeg(F(1), F(0), F(1), "e", (), ())])
    with pytest.raises(ValueError):
        sus.path([TrackSeg(F(1), F(0), F(1), "ghost", (F(1, 2),), (F(1, 2),))])


def test_path_errors_name_the_segment(sus):
    good = const_track(1, -1, 0)
    cases = [
        (StarSeg(F(-1)), "segment 2: duration -1 is negative"),
        (const_track(1, 0, 2), "segment 2: track heights"),
        (TrackSeg(F(1), F(0), F(1), "ghost", (), ()), "segment 2: unknown cube 'ghost'"),
        (TrackSeg(F(1), F(0), F(1), "e", (), ()), "segment 2: cube 'e' has dimension 1"),
        (const_track(1, 0, 1, F(3, 2)), "segment 2: coordinates"),
        (const_track(1, 0, 1, F(1, 4)), "between segment 0 and segment 2"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            sus.path([good, StarSeg(F(0)), bad])


def test_evaluate_basic_loop(sus, x):
    loop = sus.basic_loop(x)
    assert loop.duration == 2
    assert sus.evaluate(loop, 0) is STAR
    assert sus.evaluate(loop, F(1, 2)) == Interior(F(-1, 2), x)
    assert sus.evaluate(loop, 1) == Interior(F(0), x)
    assert sus.evaluate(loop, 2) is STAR
    with pytest.raises(ValueError):
        sus.evaluate(loop, F(5, 2))


def test_concat_and_is_loop(sus, x):
    loop = sus.basic_loop(x)
    two = sus.concat(loop, loop)
    assert two.duration == 4
    assert sus.is_loop(two)
    tail = sus.slice_path(sus.ramp(x, -1, 0), F(1, 2), 1)
    with pytest.raises(ValueError, match="meet"):
        sus.concat(loop, tail)


def test_slice_and_truncate_path(sus, x):
    loop = sus.basic_loop(x)
    assert sus.slice_path(loop, 0, 1) == sus.ramp(x, -1, 0)
    mid = sus.slice_path(loop, F(1, 2), F(3, 2))
    assert mid.segments == (const_track(1, F(-1, 2), F(1, 2)),)
    empty = sus.slice_path(loop, 1, 1)
    assert empty.duration == 0
    assert empty.empty_at == Interior(F(0), x)


def test_slice_then_concat_restores(sus, x):
    loop = sus.concat(sus.basic_loop(x), sus.path([StarSeg(F(1))]), sus.basic_loop(x))
    t = F(7, 3)
    left, right = sus.slice_path(loop, 0, t), sus.slice_path(loop, t, loop.duration)
    assert sus.concat(left, right) == loop


def test_scale_time_round_trip(sus, x):
    loop = sus.basic_loop(x)
    assert sus.scale_time(sus.scale_time(loop, 2), F(1, 2)) == loop
    with pytest.raises(ValueError):
        sus.scale_time(loop, 0)


def test_reparam_identity_and_flats(sus, x):
    loop = sus.basic_loop(x)
    assert sus.reparam(loop, [(0, 0), (2, 2)]) == loop
    held = sus.reparam(loop, [(0, 0), (1, 1), (2, 1), (3, 2)])
    assert held.duration == 3
    assert sus.evaluate(held, F(3, 2)) == Interior(F(0), x)
    assert held.segments[1] == const_track(1, 0, 0)
    # a flat span where the loop is at the cone point is a pause
    twice = sus.concat(loop, loop)
    assert sus.evaluate(twice, 2) is STAR
    held = sus.reparam(twice, [(0, 0), (2, 2), (5, 2), (7, 4)])
    assert held.segments == (const_track(2, -1, 1), StarSeg(F(3)), const_track(2, -1, 1))
    with pytest.raises(ValueError):
        sus.reparam(loop, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        sus.reparam(loop, [(0, 0), (1, F(3, 2)), (2, 1), (3, 2)])
    with pytest.raises(ValueError):
        sus.reparam(loop, [(0, 0), (0, 1), (3, 2)])


def test_reparam_errors_name_the_row(sus, x):
    loop = sus.basic_loop(x)
    with pytest.raises(ValueError, match="table row 2: new times must strictly increase"):
        sus.reparam(loop, [(0, 0), (1, 1), (1, 2)])
    with pytest.raises(ValueError, match="table row 2: old times must not decrease"):
        sus.reparam(loop, [(0, 0), (1, F(3, 2)), (2, 1), (3, 2)])
    with pytest.raises(ValueError, match="table row 1: table must end at the old duration 2"):
        sus.reparam(loop, [(0, 0), (1, 1)])


def test_slice_errors_name_the_bounds(sus, x):
    loop = sus.basic_loop(x)
    with pytest.raises(ValueError, match="slice bounds 3/2 and 1 out of order .* for duration 2"):
        sus.slice_path(loop, F(3, 2), 1)
    with pytest.raises(ValueError, match="slice bounds 0 and 3 out of order .* for duration 2"):
        sus.slice_path(loop, 0, 3)


def test_verify_directed(sus):
    assert sus.verify_directed(sus.path([const_track(2, -1, 1)])) == []
    report = sus.verify_directed(sus.path([const_track(1, 1, 0)]))
    assert report and "height decreases" in report[0]
    sideways = sus.path([TrackSeg(F(1), F(0), F(1, 2), "e", (F(3, 4),), (F(1, 4),))])
    assert sus.verify_directed(sideways, "total") == []
    assert any("coordinate 1" in line for line in sus.verify_directed(sideways, "directed"))
    with pytest.raises(ValueError):
        sus.verify_directed(sideways, "everything")


def test_height_affine_validation(sus, x):
    loop = sus.basic_loop(x)
    with pytest.raises(ValueError):
        sus.height_affine(loop, 0, 0)
    with pytest.raises(ValueError):
        sus.height_affine(loop, 1, F(1, 2))
    assert sus.height_affine(loop, 1, 0) == loop


def test_shrink_cone_frozen(sus, x):
    r = sus.ramp(x, -1, F(1, 2))
    low = sus.shrink_cone(r, "lower", 1)
    assert low.segments == (StarSeg(F(1)), const_track(F(1, 2), -1, 0))
    assert sus.end_point(low) == Interior(F(0), x)
    up = sus.shrink_cone(sus.basic_loop(x), "upper", 1)
    assert up.segments == (const_track(1, -1, 1), StarSeg(F(1)))
    with pytest.raises(ValueError):
        sus.shrink_cone(r, "middle", 1)


def test_shift_heights_clamps(sus, x):
    shifted = sus.shift_heights(sus.basic_loop(x), F(1, 2))
    assert shifted.segments == (const_track(F(3, 2), F(-1, 2), 1), StarSeg(F(1, 2)))


def test_attach_detach_round_trip(sus, x):
    pause = sus.path([StarSeg(F(1))])
    grown = sus.attach_letter(x, pause)
    assert grown.segments == (StarSeg(F(1)), const_track(1, -1, 0))
    letter, loop = sus.detach_letter(grown)
    assert letter == x
    assert loop == sus.path([StarSeg(F(2))])


def test_attach_requires_loop(sus, x):
    with pytest.raises(ValueError, match="loop"):
        sus.attach_letter(x, sus.ramp(x, -1, 0))


def test_detach_requires_middle_or_star(sus, x):
    with pytest.raises(ValueError, match="middle"):
        sus.detach_letter(sus.ramp(x, -1, F(1, 4)))
    letter, loop = sus.detach_letter(sus.basic_loop(x))
    assert letter == sus.origin
    assert sus.is_loop(loop)


def test_attach_then_detach_endpoints(sus, x):
    loop = sus.basic_loop(RealizationPoint("e", (F(1, 4),)))
    assert sus.attach_then_detach(x, loop, 0) == loop
    _, round_trip = sus.detach_letter(sus.attach_letter(x, loop))
    assert sus.attach_then_detach(x, loop, 1) == round_trip
    mid = sus.attach_then_detach(x, loop, F(1, 2))
    assert sus.is_loop(mid)


def test_detach_then_attach_endpoints(sus, x):
    gamma = sus.ramp(x, -1, 0)
    assert sus.detach_then_attach(gamma, 0) == gamma
    letter, loop = sus.detach_letter(gamma)
    assert sus.detach_then_attach(gamma, 1) == sus.attach_letter(letter, loop)
    mid = sus.detach_then_attach(gamma, F(1, 2))
    assert sus.end_point(mid) == Interior(F(0), x)
    assert mid.duration == gamma.duration + F(1, 2)


def test_make_increasing_frozen(sus, x):
    tilted = sus.make_increasing(sus.basic_loop(x), F(1, 2))
    assert tilted.segments == (
        StarSeg(F(2, 5)),
        const_track(F(4, 5), -1, 1),
        StarSeg(F(4, 5)),
    )
    assert is_strictly_increasing(tilted)
    assert sus.middle_crossings(tilted) == [(F(4, 5), x)]
    with pytest.raises(ValueError):
        sus.make_increasing(sus.basic_loop(x), 1)


def test_make_increasing_leaves_an_empty_path_alone(sus, x):
    # a path of duration 0 has no clock to tilt by
    for t in (0, 1):
        empty = sus.slice_path(sus.basic_loop(x), t, t)
        assert sus.make_increasing(empty, F(1, 2)) is empty


def test_make_increasing_keeps_pauses_and_letters(sus):
    x1 = RealizationPoint("e", (F(1, 4),))
    x2 = RealizationPoint("e", (F(3, 4),))
    wl = sus.concat(sus.basic_loop(x1), sus.path([StarSeg(F(1))]), sus.basic_loop(x2))
    tilted = sus.make_increasing(wl, F(1, 3))
    assert tilted.duration == wl.duration
    assert sus.is_loop(tilted)
    assert is_strictly_increasing(tilted)
    assert [p for _, p in sus.middle_crossings(tilted)] == [x1, x2]


def test_pauses_and_runs(sus, x):
    wl = sus.concat(sus.basic_loop(x), sus.path([StarSeg(F(1))]), sus.basic_loop(x))
    pauses, runs = sus.pauses_and_runs(wl)
    assert pauses == [F(0), F(1), F(0)]
    assert [len(r) for r in runs] == [1, 1]
    back_to_back = sus.concat(sus.basic_loop(x), sus.basic_loop(x))
    pauses, runs = sus.pauses_and_runs(back_to_back)
    assert pauses == [F(0), F(0), F(0)]
    assert len(runs) == 2


def test_runs_split_at_sideways_cone_touch():
    s = Suspension(interval_complex())
    p = s.path(
        [
            TrackSeg(F(1), F(1, 4), F(1, 2), "e", (F(1, 2),), (F(0),)),
            TrackSeg(F(1), F(-1, 2), F(0), "e", (F(0),), (F(1, 2),)),
        ]
    )
    pauses, runs = s.pauses_and_runs(p)
    assert pauses == [F(0), F(0), F(0)]
    assert len(runs) == 2


def test_runs_split_where_a_degenerate_face_reaches_the_cone_point():
    # in (lo|e) of the suspended circle the face d0_1 is the basepoint with
    # its slot deleted, so the end (0, 1/2) is the cone point although its
    # second coordinate lies inside (0, 1); the end (1, 1/2) lies in (mid|e)
    s = Suspension(suspension_model(circle_complex()).complex)
    assert s.point(F(1, 2), "(lo|e)", (F(0), F(1, 2))) is STAR
    into_star = TrackSeg(F(1), F(-1, 2), F(1, 2), "(lo|e)", (F(1, 2), F(1, 2)), (F(0), F(1, 2)))
    climb = TrackSeg(F(1), F(-1), F(1), "(lo|e)", (F(1, 2), F(1, 4)), (F(1, 2), F(1, 4)))
    pauses, runs = s.pauses_and_runs(s.path([into_star, climb]))
    assert pauses == [F(0), F(0), F(0)]
    assert runs == [(into_star,), (climb,)]
    onto_mid = TrackSeg(F(1), F(-1, 2), F(1, 2), "(lo|e)", (F(1, 2), F(1, 2)), (F(1), F(1, 2)))
    on = TrackSeg(F(1), F(1, 2), F(1), "(mid|e)", (F(1, 2),), (F(1, 4),))
    pauses, runs = s.pauses_and_runs(s.path([onto_mid, on]))
    assert pauses == [F(0), F(0)]
    assert runs == [(onto_mid, on)]


def test_middle_crossings_dedupe_at_junction(sus):
    p = sus.path([const_track(1, -1, 0), const_track(2, 0, 1)])
    crossings = sus.middle_crossings(p)
    assert crossings == [(F(1), RealizationPoint("e", (F(1, 2),)))]


def test_middle_crossing_at_cone_point_does_not_count():
    s = Suspension(interval_complex())
    p = s.path(
        [
            TrackSeg(F(1), F(-1, 2), F(0), "e", (F(1, 2),), (F(0),)),
            TrackSeg(F(1), F(0), F(1, 2), "e", (F(0),), (F(1, 2),)),
        ]
    )
    assert s.middle_crossings(p) == []


def test_middle_plateau_raises(sus):
    p = sus.path([TrackSeg(F(1), F(0), F(0), "e", (F(1, 4),), (F(3, 4),))])
    with pytest.raises(ValueError, match="make_increasing"):
        sus.middle_crossings(p)


def test_ramp_shapes(sus, x):
    assert sus.ramp(x, -2, 0).segments == (StarSeg(F(1)), const_track(1, -1, 0))
    assert sus.ramp(x, 0, 2).segments == (const_track(1, 0, 1), StarSeg(F(1)))
    # both poles crossed: a pause, the full climb, a pause
    assert sus.ramp(x, -2, 2).segments == (StarSeg(F(1)), const_track(2, -1, 1), StarSeg(F(1)))
    assert sus.ramp(sus.origin, -1, 1) == sus.path([StarSeg(F(2))])
    with pytest.raises(ValueError):
        sus.ramp(x, 1, 1)


_LERP_VALUES = st.one_of(
    # signed heights
    st.fractions(min_value=-1, max_value=1, max_denominator=60),
    # coordinates
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    # large, unequal denominators
    st.builds(lambda n, d: F(n % (2 * d) - d, d), st.integers(), st.integers(1, 10**30)),
)


@given(_LERP_VALUES, _LERP_VALUES, st.integers(0, 10**20), st.integers(1, 10**20), st.integers(1, 50))
@settings(max_examples=400, deadline=None)
def test_lerp_is_the_fraction_interpolation(a, b, p, q, k):
    p = p % (q + 1)
    want = a + (b - a) * F(p, q)
    assert _lerp(a, b, p, q) == want
    # p/q need not be in lowest terms
    assert _lerp(a, b, k * p, k * q) == want
    # a value held constant comes back as the same object
    assert _lerp(a, F(a.numerator, a.denominator), p, q) is a


def test_truncate_delta_kills_shallow_dips(sus):
    dip = sus.path([const_track(1, -1, F(-7, 8)), const_track(1, F(-7, 8), -1)])
    assert sus.truncate_near_basepoint(dip, F(1, 4)) == sus.path([StarSeg(F(2))])
    assert sus.truncate_near_basepoint(dip, F(1, 16)) == dip
    hanging = sus.slice_path(dip, F(1, 2), 2)
    assert sus.truncate_near_basepoint(hanging, F(1, 4)) == hanging
    with pytest.raises(ValueError):
        sus.truncate_near_basepoint(dip, 0)


def test_truncate_collar_stretches_middle(sus, x):
    out = sus.truncate_near_basepoint(sus.basic_loop(x))
    assert out.segments == (
        StarSeg(F(1, 3)),
        const_track(F(1, 3), -1, 0),
        const_track(F(2, 3), 0, 0),
        const_track(F(1, 3), 0, 1),
        StarSeg(F(1, 3)),
    )
    assert out.duration == 2


def test_truncate_collar_swallows_near_basepoint_letters(sus):
    y = RealizationPoint("e", (F(1, 4),))
    assert sus.truncate_near_basepoint(sus.basic_loop(y)) == sus.path([StarSeg(F(2))])


def star_measure(path: MoorePath) -> Fraction:
    """Total time the path spends parked at the cone point."""
    return sum((s.duration for s in path.segments if isinstance(s, StarSeg)), Fraction(0))


def test_star_measure(sus, x):
    wl = sus.concat(sus.basic_loop(x), sus.path([StarSeg(F(3, 2))]))
    assert star_measure(wl) == F(3, 2)


BASES = [circle_complex, torus_complex]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(BASES))
def test_random_loop_invariants(seed, make_base):
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng)
    assert s.is_loop(loop)
    assert s.verify_directed(loop) == []
    pauses, runs = s.pauses_and_runs(loop)
    assert len(pauses) == len(runs) + 1
    assert sum(pauses) + sum(sum(t.duration for t in r) for r in runs) == loop.duration


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(BASES))
def test_make_increasing_preserves_letters(seed, make_base):
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng)
    tilted = s.make_increasing(loop, F(1, 4))
    assert tilted.duration == loop.duration
    assert s.is_loop(tilted)
    assert is_strictly_increasing(tilted)
    assert [p for _, p in s.middle_crossings(tilted)] == [
        p for _, p in s.middle_crossings(loop)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_reparam_preserves_letters(seed):
    rng = random.Random(seed)
    s = Suspension(circle_complex())
    loop = random_loop(s, rng)
    clock = random_reparam(loop.duration, rng)
    moved = s.reparam(loop, clock)
    assert moved.duration == clock[-1][0]
    assert [p for _, p in s.middle_crossings(moved)] == [
        p for _, p in s.middle_crossings(loop)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_slice_concat_identity_random(seed, num):
    rng = random.Random(seed)
    s = Suspension(circle_complex())
    loop = random_loop(s, rng)
    t = loop.duration * F(num, 8)
    left, right = s.slice_path(loop, 0, t), s.slice_path(loop, t, loop.duration)
    assert s.concat(left, right) == loop


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_truncations_preserve_duration(seed):
    rng = random.Random(seed)
    s = Suspension(circle_complex())
    loop = random_loop(s, rng)
    assert s.truncate_near_basepoint(loop).duration == loop.duration
    assert s.truncate_near_basepoint(loop, F(1, 8)).duration == loop.duration


# ----------------------------------------------------------------------
# pointwise oracles: each transform against its documented map, evaluated


def _breaks(path):
    out, acc = [F(0)], F(0)
    for seg in path.segments:
        acc += seg.duration
        out.append(acc)
    return out


def _probe_times(times):
    # both sides are affine between consecutive breakpoints of either path,
    # so agreeing at every breakpoint and midpoint means agreeing everywhere
    ts = sorted(set(times))
    return ts + [(a + b) / 2 for a, b in zip(ts, ts[1:])]


def _clamped(h, p):
    return STAR if h <= -1 or h >= 1 else Interior(h, p)


def _check_pointwise(s, src, out, old_time, image, extra_times=()):
    """``out`` at new time t must be ``image`` of ``src`` at ``old_time(t)``."""
    checked = 0
    for t in _probe_times(_breaks(out) + list(extra_times)):
        s_t = old_time(t)
        want = image(s.evaluate(src, s_t), s_t)
        if want is None:
            continue
        assert s.evaluate(out, t) == want, (t, s_t)
        checked += 1
    return checked


def _height_image(f):
    def image(p, t):
        return STAR if p is STAR else _clamped(f(p.height, t), p.point)

    return image


def _wandering_loop(s, rng):
    """Loop whose excursions climb while drifting across one cube."""
    segs = [StarSeg(F(rng.randint(0, 2), 2))]
    for _ in range(rng.randint(1, 3)):
        a = random_interior_point(s.base, rng)
        b = tuple(F(rng.randint(1, 7), 8) for _ in a.coords)
        levels = [F(-1)] + sorted(rng.sample([F(k, 4) for k in (-3, -2, -1, 1, 2, 3)], 2)) + [F(1)]
        for h0, h1 in zip(levels, levels[1:]):
            u0, u1 = (h0 + 1) / 2, (h1 + 1) / 2
            segs.append(
                TrackSeg(
                    F(rng.randint(1, 4), 2),
                    h0,
                    h1,
                    a.cube,
                    tuple(p + (q - p) * u0 for p, q in zip(a.coords, b)),
                    tuple(p + (q - p) * u1 for p, q in zip(a.coords, b)),
                )
            )
        segs.append(StarSeg(F(rng.randint(0, 2), 2)))
    return s.path(segs)


POINTWISE_BASES = [circle_complex, lambda: wedge_of_circles(2), torus_complex]


def _thirds(h):
    # the collar retraction of the height axis, by its breakpoints
    if h <= F(-2, 3):
        return F(-1)
    if h <= F(-1, 3):
        return 3 * h + 1
    if h < F(1, 3):
        return F(0)
    if h < F(2, 3):
        return 3 * h - 1
    return F(1)


@pytest.mark.parametrize("coord", [F(1, 2), F(1, 8)])
def test_empty_slices_at_interior_points_map_pointwise(coord):
    # an empty path is one point; each transform must put it where its
    # pointwise map sends that point
    s = Suspension(circle_complex())
    loop = s.basic_loop(RealizationPoint("e", (coord,)))
    for t in (F(1, 8), F(1, 2), F(3, 4), F(1), F(5, 4), F(15, 8)):
        p = s.evaluate(loop, t)
        assert isinstance(p, Interior)
        empty = s.slice_path(loop, t, t)
        assert empty == MoorePath((), p)
        for delta in (F(-1, 2), F(1, 4), F(7, 8)):
            want = _clamped(p.height + delta, p.point)
            assert s.shift_heights(empty, delta) == MoorePath((), want)
        for u in (F(0), F(1, 3), F(1)):
            for side, off in (("lower", -u), ("upper", u)):
                want = _clamped((1 + u) * p.height + off, p.point)
                assert s.shrink_cone(empty, side, u) == MoorePath((), want)
        snapped = boundary_snap(s.base, p.point)
        want = STAR if snapped == s.origin else _clamped(_thirds(p.height), snapped)
        assert s.truncate_near_basepoint(empty) == MoorePath((), want)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transforms_match_pointwise_maps(seed):
    rng = random.Random(seed)
    checked = 0
    for make_base in POINTWISE_BASES:
        s = Suspension(make_base())
        for k in range(16):
            loop = random_loop(s, rng) if k % 2 else _wandering_loop(s, rng)
            T = loop.duration
            same = _breaks(loop)

            a = 1 + F(rng.randint(0, 8), 4)
            b = (a - 1) * F(rng.randint(-4, 4), 4)
            out = s.height_affine(loop, a, b)
            checked += _check_pointwise(
                s, loop, out, lambda t: t, _height_image(lambda h, t: a * h + b), same
            )

            u = F(rng.randint(0, 4), 4)
            side = rng.choice(["lower", "upper"])
            off = -u if side == "lower" else u
            out = s.shrink_cone(loop, side, u)
            checked += _check_pointwise(
                s, loop, out, lambda t: t, _height_image(lambda h, t: (1 + u) * h + off), same
            )

            e = F(rng.randint(1, 7), 8)
            out = s.make_increasing(loop, e)
            checked += _check_pointwise(
                s,
                loop,
                out,
                lambda t: t,
                _height_image(lambda h, t: (h + e * t / T) / (1 - e)),
                same,
            )

            f = F(rng.randint(1, 12), 4)
            out = s.scale_time(loop, f)
            checked += _check_pointwise(
                s, loop, out, lambda t: t / f, lambda p, t: p, [x * f for x in same]
            )

            table = random_reparam(T, rng)

            def old_time(n, table=table):
                for (n0, o0), (n1, o1) in zip(table, table[1:]):
                    if n <= n1:
                        return o0 + (o1 - o0) * (n - n0) / (n1 - n0)
                raise AssertionError(n)

            moved = [
                n0 + (x - o0) * (n1 - n0) / (o1 - o0)
                for (n0, o0), (n1, o1) in zip(table, table[1:])
                for x in same
                if o0 <= x <= o1
            ]
            out = s.reparam(loop, table)
            checked += _check_pointwise(
                s, loop, out, old_time, lambda p, t: p, moved + [n for n, _ in table]
            )

            # not a quotient map: compare only where the input is off the cone point
            delta = F(rng.randint(-7, 7), 8)
            for run in s.pauses_and_runs(loop)[1]:
                exc = s.path(run)
                out = s.shift_heights(exc, delta)
                checked += _check_pointwise(
                    s,
                    exc,
                    out,
                    lambda t: t,
                    lambda p, t: None if p is STAR else _clamped(p.height + delta, p.point),
                    _breaks(exc),
                )
    assert checked > 1000


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["cube3", "torus", "suspended_circle"]))
def test_canonical_track_keeps_endpoints(seed, which):
    rng = random.Random(seed)
    if which == "cube3":
        interval = interval_complex()
        K = tensor_product(tensor_product(interval, interval), interval)
    elif which == "torus":
        K = torus_complex()
    else:
        K = suspension_model(circle_complex()).complex
    s = Suspension(K)
    cube = rng.choice(sorted(c for c, d in K.cubes.items() if d > 0))
    ends = ([], [])
    for _ in range(K.cubes[cube]):
        kind = rng.random()
        if kind < 0.4:
            held = F(rng.randint(0, 1))
            ends[0].append(held)
            ends[1].append(held)
        else:
            for side in ends:
                side.append(F(rng.randint(0, 8), 8))
    h0 = F(rng.randint(-4, 4), 4)
    h1 = F(rng.randint(-4, 4), 4)
    raw = TrackSeg(F(1), h0, h1, cube, tuple(ends[0]), tuple(ends[1]))
    (seg,) = s.path([raw]).segments
    raw_start, raw_end = s.point(h0, cube, raw.c0), s.point(h1, cube, raw.c1)
    if isinstance(seg, StarSeg):
        assert raw_start is STAR and raw_end is STAR
    else:
        assert s.point(seg.h0, seg.cube, seg.c0) == raw_start
        assert s.point(seg.h1, seg.cube, seg.c1) == raw_end
        assert len(seg.c0) == K.cubes[seg.cube]


# ----------------------------------------------------------------------
# untrusted segments are canonicalized once, internal pieces only joined


@pytest.mark.parametrize("make_base", POINTWISE_BASES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_staged_canonicalization_agrees(make_base, seed):
    # internal builders pass raw segment lists and canonicalize once at the
    # end; that is sound because canonicalizing in stages changes nothing
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng) if rng.random() < 0.5 else _wandering_loop(s, rng)
    T = loop.duration
    sheared = s.make_increasing(loop, F(rng.randint(1, 7), 8))
    for canonical in (loop, sheared):
        cuts = sorted({F(0), T} | {T * F(rng.randint(0, 16), 16) for _ in range(6)})
        raw = []
        for t0, t1 in zip(cuts, cuts[1:]):
            raw.extend(s.slice_path(canonical, t0, t1).segments)
            raw.insert(rng.randint(0, len(raw)), StarSeg(F(0)))
        assert s.path(raw) == canonical
        k = rng.randint(0, len(raw))
        A, B = raw[:k], raw[k:]
        assert s.path(A + B) == s.path(s.path(A).segments + s.path(B).segments)
        for run in s.pauses_and_runs(canonical)[1]:
            assert s.path(run) == MoorePath(run)


def _cube3_complex():
    interval = interval_complex()
    return tensor_product(tensor_product(interval, interval), interval)


def _reference_route(K, start):
    # breadth first over the one skeleton from scratch, neighbours sorted
    adj = {}
    for e in sorted(c for c, d in K.cubes.items() if d == 1):
        a, b = K.faces[(e, 1, 0)].base, K.faces[(e, 1, 1)].base
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    parent = {start: ()}
    queue = [start]
    while queue:
        v = queue.pop(0)
        for w, e in sorted(adj.get(v, [])):
            if w not in parent:
                parent[w] = (v, e)
                queue.append(w)
    hops, v = [], K.basepoint
    while parent[v]:
        prev, e = parent[v]
        hops.append((e, v))
        v = prev
    return hops[::-1]


def _reference_walk(s, result):
    """The walk home, each frame canonicalized whole from the letter states."""
    K = s.base
    runs = s.pauses_and_runs(result)[1]
    state = [["letter", tr.duration, RealizationPoint(tr.cube, tr.c0)] for (tr,) in runs]
    frames = []

    def emit():
        segs = []
        for kind, d, *rest in state:
            if kind == "pause":
                segs.append(StarSeg(d))
            else:
                pos = rest[0]
                segs.append(TrackSeg(d, F(-1), F(1), pos.cube, pos.coords, pos.coords))
        frames.append(s.path(segs))

    for entry in state:
        pos = entry[2]
        entry[2] = normalize_point(K, pos.cube, tuple(c / 2 for c in pos.coords))
        emit()
        entry[2] = normalize_point(K, pos.cube, (F(0),) * len(pos.coords))
        emit()
        for edge, far in _reference_route(K, entry[2].cube):
            entry[2] = normalize_point(K, edge, (F(1, 2),))
            emit()
            entry[2] = RealizationPoint(far, ())
            emit()
        entry[0] = "pause"
        del entry[2:]
        emit()
    return frames


@pytest.mark.parametrize("make_base", POINTWISE_BASES + [_cube3_complex])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_spliced_trail_frames_agree(make_base, seed):
    # a contraction frame canonicalizes only its head and splices the rest
    # of the word on unchanged; that must be the whole frame canonicalized
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng, max_runs=5) if rng.random() < 0.5 else _wandering_loop(s, rng)
    result, frames = full_straighten(s, loop)
    trail = contract_straightened(s, result, frames)
    want = [frames[0]]
    for fr in [*frames[1:], *_reference_walk(s, result), MoorePath((), STAR)]:
        if fr != want[-1]:
            want.append(fr)
    assert trail == want
    for fr in trail:
        assert s.path(fr.segments) == fr


def _count_kernel_calls(monkeypatch):
    """Record each boundary canonicalization and each join, with its piece count."""
    calls = []
    real_canonical, real_join = Suspension._canonical, Suspension._join

    def canonical(self, seg):
        calls.append(("canonical", 1))
        return real_canonical(self, seg)

    def join(self, pieces, empty_at=STAR):
        pieces = list(pieces)
        calls.append(("join", len(pieces)))
        return real_join(self, pieces, empty_at)

    monkeypatch.setattr(Suspension, "_canonical", canonical)
    monkeypatch.setattr(Suspension, "_join", join)
    return calls


def test_contraction_canonicalizes_only_frame_heads(monkeypatch):
    s = Suspension(_cube3_complex())
    rng = random.Random(4)
    letters = [random_interior_point(s.base, rng) for _ in range(30)]
    result, frames = full_straighten(s, word_loop(s, letters))
    built = len(_reference_walk(s, result))
    calls = _count_kernel_calls(monkeypatch)
    contract_straightened(s, result, frames)
    # the frame heads are built from canonical pieces, so nothing passes
    # the boundary canonicalizer; one join per frame of the walk, on its
    # head: the pause walked so far, the moving letter and the next one,
    # not the whole word.  A letter's last stop is the basepoint, whose
    # climb is already the pause, so no frame is built for the pause itself
    assert [kind for kind, _ in calls if kind != "join"] == []
    sizes = [n for _, n in calls]
    assert len(sizes) == built - len(letters) > 3 * len(letters)
    assert max(sizes) == 3
    assert sum(sizes) <= 3 * built


def test_transforms_join_once_without_canonicalizing(monkeypatch):
    s = Suspension(wedge_of_circles(2))
    rng = random.Random(5)
    loop = s.make_increasing(random_loop(s, rng, max_runs=4), F(1, 4))
    while len(s.pauses_and_runs(loop)[1]) < 2:
        loop = s.make_increasing(random_loop(s, rng, max_runs=4), F(1, 4))
    run = MoorePath(s.pauses_and_runs(loop)[1][0])
    x = random_interior_point(s.base, rng)
    climb = TrackSeg(F(1), F(-1), F(0), x.cube, x.coords, x.coords)
    into_middle = s.path(list(loop.segments) + [climb])
    table = random_reparam(loop.duration, rng)
    assert len(table) > 2
    samples = [F(0), F(1, 3), F(1, 2), F(5, 6), F(1)]
    letters = [x, IntervalLetter(F(1, 2)), random_interior_point(s.base, rng)]
    calls = _count_kernel_calls(monkeypatch)

    def count(fn, *args):
        # (segments canonicalized at the boundary, joins)
        calls.clear()
        fn(*args)
        kinds = [kind for kind, _ in calls]
        return kinds.count("canonical"), kinds.count("join")

    # no boundary canonicalization inside full_straighten, and one join per
    # distinct stage other than 0 (the loop itself), the result's stage 1
    # included: 1/3, 1/2, 5/6, 1
    assert count(full_straighten, s, loop, samples) == (0, 4)
    assert count(chain_split, s, loop) == (0, 0)
    for fn, *args in [
        (straighten_step, s, run, F(1, 3)),
        (s.concat, loop, run),
        (s.slice_path, loop, F(1, 3), loop.duration - F(1, 3)),
        (s.scale_time, loop, F(3, 2)),
        (s.reparam, loop, table),
        (s.height_affine, loop, F(3, 2), F(1, 4)),
        (s.shift_heights, run, F(-1, 4)),
        (s.shrink_cone, loop, "upper", F(1, 2)),
        (s.make_increasing, loop, F(1, 8)),
        (s.ramp, x, F(-1, 2), F(3, 2)),
        (s.attach_letter, x, loop),
        (s.attach_then_detach, x, loop, F(1, 2)),
        (s.detach_then_attach, into_middle, F(1, 2)),
        (s.truncate_near_basepoint, loop, F(1, 4)),
        (s.truncate_near_basepoint, loop),
        (word_loop, s, letters),
    ]:
        # a public transform builds its output from canonical pieces and
        # joins them once; only outside segments pass the canonicalizer
        assert count(fn, *args) == (0, 1), fn.__name__


@pytest.mark.parametrize("make_base", POINTWISE_BASES + [_cube3_complex])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_straightening_results_are_fixed_points_of_path(make_base, seed):
    # every transform joins canonical pieces without the boundary
    # canonicalizer; the canonicalizer is the reference
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng, max_runs=5) if rng.random() < 0.5 else _wandering_loop(s, rng)
    samples = sorted({F(rng.randint(0, 12), 12) for _ in range(4)})
    result, frames = full_straighten(s, loop, samples)
    for fr in [result, *frames, *contract_straightened(s, result, frames)]:
        assert s.path(fr.segments) == fr
    # so does every other transform; a point may sit on a face of its cube
    T, u = loop.duration, F(rng.randint(0, 8), 8)
    cube = rng.choice(sorted(c for c, d in s.base.cubes.items() if d > 0))
    x = RealizationPoint(cube, tuple(F(rng.randint(0, 8), 8) for _ in range(s.base.cubes[cube])))
    t0 = T * F(rng.randint(0, 8), 8)
    t1 = t0 if rng.random() < 0.25 else t0 + (T - t0) * F(rng.randint(0, 8), 8)
    _, (n1, o1), (_, o2), _ = table = random_reparam(T, rng)
    # a flat span holds the point at o1 still
    held = [*table[:2], (n1 + 1, o1), (n1 + 2, o2), (n1 + 3, T)]
    a = 1 + F(rng.randint(0, 8), 4)
    b = (a - 1) * F(rng.randint(-4, 4), 4)
    chain = chain_split(s, loop)
    run = rng.choice(chain.excursions)
    letters = [x, IntervalLetter(F(rng.randint(1, 8), 8)), random_interior_point(s.base, rng)]
    outputs = [
        *chain.excursions,
        straighten_step(s, run, u),
        s.concat(loop, run, s.slice_path(run, run.duration, run.duration)),
        s.slice_path(loop, t0, t1),
        s.scale_time(loop, F(rng.randint(1, 8), 4)),
        s.reparam(loop, table),
        s.reparam(loop, held),
        s.height_affine(loop, a, b),
        s.shift_heights(run, F(rng.randint(-8, 8), 8)),
        s.shrink_cone(loop, rng.choice(["lower", "upper"]), u),
        s.make_increasing(loop, F(rng.randint(1, 7), 8)),
        s.ramp(x, F(rng.randint(-12, 4), 8), F(rng.randint(5, 12), 8)),
        s.attach_letter(x, loop),
        s.attach_then_detach(x, loop, u),
        s.detach_then_attach(s.attach_letter(x, loop), u),
        s.truncate_near_basepoint(loop, F(rng.randint(1, 7), 8)),
        word_loop(s, letters),
    ]
    for out in outputs:
        assert s.path(out.segments, out.empty_at) == out


# ----------------------------------------------------------------------
# the integer fast paths and the time index against plain references


def _scan_evaluate(s, path, t):
    # the first segment that ends at or after t, found by walking the string
    acc = F(0)
    for seg in path.segments:
        if t <= acc + seg.duration:
            if isinstance(seg, StarSeg):
                return STAR
            u = (t - acc) / seg.duration
            return s.point(
                seg.h0 + (seg.h1 - seg.h0) * u,
                seg.cube,
                tuple(a + (b - a) * u for a, b in zip(seg.c0, seg.c1)),
            )
        acc += seg.duration
    return path.empty_at


@pytest.mark.parametrize("make_base", POINTWISE_BASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_evaluate_and_slice_match_a_linear_scan(make_base, seed):
    rng = random.Random(seed)
    s = Suspension(make_base())
    for k in range(8):
        loop = random_loop(s, rng) if k % 2 else _wandering_loop(s, rng)
        path = s.make_increasing(loop, F(1, 4)) if k % 4 == 3 else loop
        assert list(path.times) == _breaks(path)
        assert path.duration == path.times[-1]
        probes = _probe_times(_breaks(path))
        for t in probes:
            assert s.evaluate(path, t) == _scan_evaluate(s, path, t), t
        for _ in range(4):
            a, b = sorted(rng.choice(probes) for _ in range(2))
            piece = s.slice_path(path, a, b)
            assert piece.duration == b - a
            for t in _probe_times(_breaks(piece) + [x - a for x in probes if a <= x <= b]):
                assert s.evaluate(piece, t) == _scan_evaluate(s, path, t + a), (a, b, t)


def test_cached_times_leave_equality_and_hash_alone(sus, x):
    loop = sus.basic_loop(x)
    twin = MoorePath(loop.segments, loop.empty_at)
    assert loop.times == (F(0), F(2)) and loop.duration == 2
    assert loop == twin and hash(loop) == hash(twin)
    assert MoorePath.__slots__ == ("segments", "empty_at")
    assert "times" not in repr(loop) and repr(twin) == repr(loop)
    assert repr(loop).startswith("MoorePath(segments=(TrackSeg(duration=Fraction(2, 1), h0=")
    assert MoorePath().duration == 0 and MoorePath().times == (0,)


def test_slice_evaluates_its_start_only_when_empty(monkeypatch, sus, x):
    loop = sus.basic_loop(x)
    calls = []
    real = Suspension.evaluate

    def counted(self, path, t):
        calls.append(t)
        return real(self, path, t)

    monkeypatch.setattr(Suspension, "evaluate", counted)
    assert sus.slice_path(loop, F(1, 2), F(3, 2)).duration == 1
    assert calls == []
    empty = sus.slice_path(loop, F(1, 2), F(1, 2))
    assert calls == [F(1, 2)]
    assert empty == MoorePath((), Interior(F(-1, 2), x))


def _represent(kind, value):
    value = F(value)
    if kind == "int" and value.denominator == 1:
        return int(value)
    return str(value) if kind == "str" else value


def _represented(kind, seg):
    if isinstance(seg, StarSeg):
        return StarSeg(_represent(kind, seg.duration))
    return TrackSeg(
        _represent(kind, seg.duration),
        _represent(kind, seg.h0),
        _represent(kind, seg.h1),
        seg.cube,
        tuple(_represent(kind, c) for c in seg.c0),
        tuple(_represent(kind, c) for c in seg.c1),
    )


@pytest.mark.parametrize("make_base", POINTWISE_BASES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_path_is_the_same_on_fraction_int_and_str_data(make_base, seed):
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng) if rng.random() < 0.5 else _wandering_loop(s, rng)
    T = loop.duration
    # raw pieces: cut at whole and fractional times, with empty pauses and a
    # track held at a pole mixed in
    cuts = sorted({F(0), T} | {T * F(rng.randint(0, 4), 4) for _ in range(4)})
    raw = []
    for t0, t1 in zip(cuts, cuts[1:]):
        raw.extend(s.slice_path(loop, t0, t1).segments)
        raw.insert(rng.randint(0, len(raw)), StarSeg(F(0)))
    x = random_interior_point(s.base, rng)
    raw.insert(0, TrackSeg(F(1), F(-1), F(-1), x.cube, x.coords, x.coords))
    want = s.path(raw)
    assert want == s.path([StarSeg(F(1)), *loop.segments])
    for kind in ("int", "str"):
        got = s.path([_represented(kind, seg) for seg in raw])
        assert got == want, kind
        for seg in got.segments:
            values = [seg.duration]
            if isinstance(seg, TrackSeg):
                values += [seg.h0, seg.h1, *seg.c0, *seg.c1]
            assert all(type(v) is F for v in values)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
    st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
)
def test_clamped_track_pieces_follow_the_clamped_line(dur, h0, h1, c0, c1):
    # heights in quarters from -2 to 2: both the no-cut branch (heights in
    # [-1, 1], pinned at a pole or not) and the cutting branch are reached
    seg = TrackSeg(F(dur), F(h0, 4), F(h1, 4), "e", (c0,), (c1,))
    pieces = _clamped_track(seg)
    assert sum(p.duration for p in pieces) == seg.duration
    acc = F(0)
    for piece in pieces:
        for u in (F(0), F(1, 2), F(1)):
            t = acc + piece.duration * u
            h = seg.h0 + (seg.h1 - seg.h0) * t / seg.duration
            if isinstance(piece, StarSeg):
                assert h <= -1 or h >= 1 or u != F(1, 2)
            else:
                assert piece.h0 + (piece.h1 - piece.h0) * u == h
                assert -1 <= h <= 1
        acc += piece.duration
    if -1 <= seg.h0 <= 1 and -1 <= seg.h1 <= 1:
        pinned = seg.h0 == seg.h1 and abs(seg.h0) == 1
        assert pieces == ([StarSeg(seg.duration)] if pinned else [seg])


def _reference_clamp(seg):
    """Cut at each pole crossed inside, in plain Fraction arithmetic; a
    piece whose middle height is at or beyond a pole is a pause."""

    def at(s):
        return seg.h0 + (seg.h1 - seg.h0) * s, tuple(a + (b - a) * s for a, b in zip(seg.c0, seg.c1))

    cuts = {F(0), F(1)}
    if seg.h0 != seg.h1:
        for pole in (-1, 1):
            s = (pole - seg.h0) / (seg.h1 - seg.h0)
            if 0 < s < 1:
                cuts.add(s)
    cuts = sorted(cuts)
    pieces = []
    for sa, sb in zip(cuts, cuts[1:]):
        d = seg.duration * (sb - sa)
        mid, _ = at((sa + sb) / 2)
        if mid <= -1 or mid >= 1:
            pieces.append(StarSeg(d))
        else:
            (ha, ca), (hb, cb) = at(sa), at(sb)
            pieces.append(TrackSeg(d, ha, hb, seg.cube, ca, cb))
    return pieces


_CLAMP_HEIGHTS = st.one_of(
    st.sampled_from([F(k, 2) for k in range(-6, 7)]),
    st.fractions(-3, 3, max_denominator=10**12),
)
_CLAMP_COORDS = st.lists(
    st.tuples(st.fractions(0, 1, max_denominator=10**9), st.fractions(0, 1, max_denominator=10**9), st.booleans()),
    min_size=0,
    max_size=3,
)


@settings(max_examples=400, deadline=None)
@given(
    st.fractions(F(1, 10**9), 10**3, max_denominator=10**9),
    _CLAMP_HEIGHTS,
    _CLAMP_HEIGHTS,
    _CLAMP_COORDS,
)
@example(F(1), F(0), F(2), [])  # one pole crossed, going up
@example(F(3), F(1, 2), F(-3, 2), [])  # one pole crossed, going down
@example(F(2), F(-2), F(2), [])  # both poles, going up
@example(F(5, 7), F(3), F(-5, 2), [])  # both poles, going down
@example(F(1), F(-2), F(1), [])  # crosses one pole and ends exactly at the other
@example(F(1), F(1), F(3), [])  # starts at a pole and leaves it outward
@example(F(1), F(-1), F(-1), [])  # flat at a pole
@example(F(1), F(2), F(3), [])  # wholly beyond a pole
@example(F(1), F(-3, 2), F(-3, 2), [])  # flat beyond a pole
@example(F(10**6 + 3, 999983), F(-1000003, 999999), F(7, 5), [(F(1, 3), F(5, 11), False)])
@example(F(2, 3), F(-5, 3), F(12345679, 1234567), [(F(1, 7), F(6, 7), False), (F(1, 2), F(1, 2), True)])
def test_clamped_track_matches_a_fraction_reference(dur, h0, h1, coords):
    # ``_clamped_track`` cuts on the integers of the heights; the reference
    # cuts with Fraction operators, so the pieces must be equal as values
    c0 = tuple(a for a, _, _ in coords)
    c1 = tuple(a if held else b for a, b, held in coords)
    seg = TrackSeg(dur, h0, h1, "c", c0, c1)
    pieces = _clamped_track(seg)
    assert pieces == _reference_clamp(seg)
    for piece in pieces:
        values = [piece.duration]
        if isinstance(piece, TrackSeg):
            values += [piece.h0, piece.h1, *piece.c0, *piece.c1]
        assert all(type(v) is F for v in values)


@pytest.mark.parametrize("make_base", POINTWISE_BASES)
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    scale=st.sampled_from([F(1), F(5, 4), F(3, 2), F(2), F(4)]),
    tilt=st.integers(-4, 4),
)
def test_height_affine_matches_pointwise_map(make_base, seed, scale, tilt):
    # scale 1 keeps every track within the poles (no cut); larger scales
    # push some tracks over a pole and others, plateaus included, onto it
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng) if rng.random() < 0.5 else _wandering_loop(s, rng)
    offset = (scale - 1) * F(tilt, 4)
    out = s.height_affine(loop, scale, offset)
    image = _height_image(lambda h, t: scale * h + offset)
    assert _check_pointwise(s, loop, out, lambda t: t, image, _breaks(loop)) > 0


def _rational(data, lo, hi, den=10**12):
    # a rational strictly between the integers lo and hi, denominator up to den
    d = data.draw(st.integers(2, den))
    return F(data.draw(st.integers(lo * d + 1, hi * d - 1)), d)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_merge_decision_matches_fractions(data):
    # durations with huge numerators and denominators, heights of both signs
    # on unequal denominators, flat stretches, and exactly collinear pairs
    big = st.integers(1, 10**40)
    d0, d1 = F(data.draw(big), data.draw(big)), F(data.draw(big), data.draw(big))

    def ends(lo, hi):
        a0 = _rational(data, lo, hi)
        a1 = a0 if data.draw(st.booleans()) else _rational(data, lo, hi)
        a2 = a1 + (a1 - a0) * d1 / d0
        if not (data.draw(st.booleans()) and lo < a2 < hi):
            a2 = a1 if data.draw(st.booleans()) else _rational(data, lo, hi)
        return a0, a1, a2

    h = ends(-1, 1)
    c = ends(0, 1)
    rates = [(h[1] - h[0]) * d1 == (h[2] - h[1]) * d0, (c[1] - c[0]) * d1 == (c[2] - c[1]) * d0]
    assert _same_rate(h[0], h[1], d0, h[1], h[2], d1) == rates[0]
    assert _same_rate(c[0], c[1], d0, c[1], c[2], d1) == rates[1]
    x0, x1, y0, y1 = (_rational(data, -1, 1) for _ in range(4))
    assert _same_rate(x0, x1, d0, y0, y1, d1) == ((x1 - x0) * d1 == (y1 - y0) * d0)
    s = Suspension(circle_complex())
    first = TrackSeg(d0, h[0], h[1], "e", (c[0],), (c[1],))
    second = TrackSeg(d1, h[1], h[2], "e", (c[1],), (c[2],))
    merged = s.path([first, second]).segments
    assert len(merged) == (1 if all(rates) else 2)


@pytest.mark.parametrize("make_base", POINTWISE_BASES)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    delta=st.sampled_from([F(0), F(1, 8), F(-1, 8), F(1, 2), F(-3, 4), F(7, 5), F(-3, 2)]),
)
def test_pure_shift_matches_pointwise_map(make_base, seed, delta):
    # a = 1, c = 0: the height map is h -> h + delta with no clock, and
    # delta = 0 hands the (canonical) segments back as they are
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng) if rng.random() < 0.5 else _wandering_loop(s, rng)
    for run in s.pauses_and_runs(loop)[1]:
        exc = MoorePath(run)
        shifted = _map_heights(run, 1, delta, 0)
        if delta == 0:
            assert all(a is b for a, b in zip(shifted, run)) and len(shifted) == len(run)
        out = s.shift_heights(exc, delta)
        assert out == s.path(shifted)
        image = _height_image(lambda h, t: h + delta)
        checked = _check_pointwise(
            s, exc, out, lambda t: t, lambda p, t: None if p is STAR else image(p, t), _breaks(exc)
        )
        assert checked > 0


@pytest.mark.parametrize("make_base", POINTWISE_BASES)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    delta=st.sampled_from([F(-1, 3), F(1, 2), F(-3, 4), F(2, 3), F(7, 5)]),
    factor=st.sampled_from([F(3, 4), F(3, 5), F(2), F(1, 3)]),
)
def test_shifted_keeps_the_objects_it_does_not_change(make_base, seed, delta, factor):
    # the clamp builds a Fraction only for a value it changes: on a new clock
    # (b = 0) a canonical piece is not cut and keeps its height and
    # coordinate objects; under a pure shift (f = 1) a pause comes back as
    # it is, and so does the duration object of every track left uncut
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng) if rng.random() < 0.5 else _wandering_loop(s, rng)
    scaled = _shifted(loop.segments, 0, factor)
    assert len(scaled) == len(loop.segments)
    for new, old in zip(scaled, loop.segments):
        assert type(new) is type(old) and new.duration == old.duration * factor
        if isinstance(old, TrackSeg):
            assert (new.h0, new.h1, new.c0, new.c1) == (old.h0, old.h1, old.c0, old.c1)
            assert new.h0 is old.h0 and new.h1 is old.h1 and new.c0 is old.c0 and new.c1 is old.c1
    for old in loop.segments:
        pieces = _shifted([old], delta)
        if isinstance(old, StarSeg):
            assert pieces[0] is old
        elif len(pieces) == 1:
            assert pieces[0].duration is old.duration


def test_shifted_keeps_the_duration_of_an_uncut_track():
    x = (F(1, 2),)
    for seg in (TrackSeg(F(5, 2), F(-1, 4), F(1, 8), "e", x, x), TrackSeg(F(1, 3), F(1, 2), F(1), "e", x, x)):
        for delta in (F(-1, 3), F(-3, 4)):
            (piece,) = _shifted([seg], delta)
            assert piece.duration is seg.duration
            assert (piece.h0, piece.h1) == (seg.h0 + delta, seg.h1 + delta)


# ----------------------------------------------------------------------
# the join and the breakpoints against plain Fraction references


def _ends(s, seg):
    # both end points, normalized through ``Suspension.point``
    if isinstance(seg, StarSeg):
        return STAR, STAR
    return s.point(seg.h0, seg.cube, seg.c0), s.point(seg.h1, seg.cube, seg.c1)


def _reference_join(s, pieces):
    """The join in plain Fraction arithmetic: every junction compares the
    normalized end points, and two tracks merge when every rate agrees."""
    out, last = [], None
    for k, seg in enumerate(pieces):
        if seg.duration == 0:
            continue
        if isinstance(seg, TrackSeg) and (
            seg.cube == s.base.basepoint or (seg.h0 == seg.h1 and abs(seg.h0) == 1)
        ):
            seg = StarSeg(seg.duration)
        if out:
            prev = out[-1]
            if _ends(s, prev)[1] != _ends(s, seg)[0]:
                raise ValueError(f"discontinuous junction between segment {last} and segment {k}")
            last = k
            if isinstance(prev, StarSeg) and isinstance(seg, StarSeg):
                out[-1] = StarSeg(prev.duration + seg.duration)
                continue
            if isinstance(prev, TrackSeg) and isinstance(seg, TrackSeg) and prev.cube == seg.cube:
                p0, p1 = (prev.h0, *prev.c0), (prev.h1, *prev.c1)
                q0, q1 = (seg.h0, *seg.c0), (seg.h1, *seg.c1)
                if p1 == q0 and all(
                    (b - a) / prev.duration == (d - c) / seg.duration
                    for a, b, c, d in zip(p0, p1, q0, q1)
                ):
                    out[-1] = TrackSeg(
                        prev.duration + seg.duration, prev.h0, seg.h1, prev.cube, prev.c0, seg.c1
                    )
                    continue
        out.append(seg)
        last = k
    return MoorePath(tuple(out), STAR)


def _face_excursion(s, rng):
    """A climb in a cube onto one of its faces, continued in the face's
    carrier: a junction between two carriers."""
    K = s.base
    cube = rng.choice(sorted(c for c, d in K.cubes.items() if d > 0))
    i, eps = rng.randrange(K.cubes[cube]), rng.randint(0, 1)
    ref = K.faces[(cube, i + 1, eps)]
    start = tuple(F(rng.randint(1, 7), 8) for _ in range(K.cubes[cube]))
    end = start[:i] + (F(eps),) + start[i + 1:]
    rest = end[:i] + end[i + 1:]
    for j in ref.degens:
        rest = rest[: j - 1] + rest[j:]
    a = F(rng.randint(-3, 3), 4)
    return [
        TrackSeg(F(rng.randint(1, 4), 2), F(-1), a, cube, start, end),
        TrackSeg(F(rng.randint(1, 4), 2), a, F(1), ref.base, rest, rest),
    ]


def _bent_climb(s, rng):
    """A climb at one speed whose base coordinates may turn, stop or start
    at its middle: the two tracks merge only when they do not."""
    x = random_interior_point(s.base, rng)
    y = tuple(c if rng.random() < 0.5 else F(rng.randint(1, 7), 8) for c in x.coords)
    z = tuple(c if rng.random() < 0.5 else F(rng.randint(1, 7), 8) for c in y)
    d = F(rng.randint(1, 4), 2)
    return [TrackSeg(d, F(-1), F(0), x.cube, x.coords, y), TrackSeg(d, F(0), F(1), x.cube, y, z)]


def _outcome(build, pieces):
    try:
        return build(pieces)
    except ValueError as err:
        return str(err)


JOIN_BASES = POINTWISE_BASES + [_cube3_complex, lambda: suspension_model(circle_complex()).complex]


@pytest.mark.parametrize("make_base", JOIN_BASES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), shifted=st.booleans())
def test_join_matches_a_fraction_reference(make_base, seed, shifted):
    rng = random.Random(seed)
    s = Suspension(make_base())
    loop = random_loop(s, rng) if rng.random() < 0.5 else _wandering_loop(s, rng)
    T = loop.duration
    a, b = sorted(T * F(rng.randint(0, 8), 8) for _ in range(2))
    cuts = sorted({a, b} | {a + (b - a) * F(rng.randint(1, 15), 16) for _ in range(3)})
    # a slice cut into more pieces: collinear neighbours that must merge back
    pieces = [p for t0, t1 in zip(cuts, cuts[1:]) for p in _slice(loop, t0, t1)]
    if a < b:
        assert s._join(pieces) == s.slice_path(loop, a, b)
    # pieces that become pauses, a junction between two carriers and one
    # where only the base coordinates turn, each put where the path sits at
    # the cone point
    x = random_interior_point(s.base, rng)
    pole = F(rng.choice([-1, 1]))
    h0, h1 = sorted(F(rng.randint(-4, 4), 4) for _ in range(2))
    # a run of pauses over equal and coprime denominators, with a track in
    # the basepoint column and one flat at a pole inside it
    run = [StarSeg(F(rng.randint(1, 5), q)) for q in (6, 6, 5, 7)] + [
        TrackSeg(F(rng.randint(1, 4), 3), h0, h1, s.base.basepoint, (), ()),
        TrackSeg(F(rng.randint(1, 4), 2), pole, pole, x.cube, x.coords, x.coords),
    ]
    rng.shuffle(run)
    blocks = [
        [TrackSeg(F(rng.randint(1, 4), 2), h0, h1, s.base.basepoint, (), ())],
        [TrackSeg(F(rng.randint(1, 4), 2), pole, pole, x.cube, x.coords, x.coords)],
        _face_excursion(s, rng),
        _bent_climb(s, rng),
        run,
    ]
    for block in blocks:
        at_star = [
            k
            for k in range(len(pieces) + 1)
            if (k == 0 or _ends(s, pieces[k - 1])[1] is STAR)
            and (k == len(pieces) or _ends(s, pieces[k])[0] is STAR)
        ]
        if at_star and rng.random() < 0.7:
            k = rng.choice(at_star)
            pieces[k:k] = block
    # zero-length pieces anywhere, a track's data not even continuous
    for empty in (StarSeg(F(0)), TrackSeg(F(0), F(1, 2), F(-1, 3), x.cube, x.coords, x.coords)):
        pieces.insert(rng.randint(0, len(pieces)), empty)
    tracks = [k for k, p in enumerate(pieces) if isinstance(p, TrackSeg) and p.duration]
    if shifted and tracks:
        k = rng.choice(tracks)
        # sometimes the track right after the run, so that the error names
        # the last piece merged into it
        end = next((i for i, p in enumerate(pieces) if p is run[-1]), len(pieces))
        after = [i for i in tracks if i > end]
        if after and rng.random() < 0.5:
            k = after[0]
        p = pieces[k]
        pieces[k] = TrackSeg(p.duration, p.h0 / 2, p.h1 / 2 + F(1, 8), p.cube, p.c0, p.c1)
    want = _outcome(lambda p: _reference_join(s, p), pieces)
    assert _outcome(s._join, pieces) == want
    assert _outcome(s.path, pieces) == want
    if not shifted:
        assert isinstance(want, MoorePath)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_times_match_fraction_breakpoints(data):
    # durations with large denominators, mostly coprime to each other
    n = data.draw(st.integers(0, 60))
    segs = tuple(
        StarSeg(d) if data.draw(st.booleans()) else TrackSeg(d, F(0), F(0), "e", (), ())
        for d in (_rational(data, 0, 5) for _ in range(n))
    )
    times = MoorePath(segs).times
    assert list(times) == _breaks(MoorePath(segs))
    assert all(type(t) is F for t in times)


def test_times_over_pairwise_coprime_denominators():
    # consecutive integers are coprime, so the common denominator grows
    # with every segment
    segs = tuple(StarSeg(F(k % 7 + 1, 10**12 + k)) for k in range(200))
    times = MoorePath(segs).times
    assert list(times) == _breaks(MoorePath(segs))
    assert all(type(t) is F for t in times)
    assert MoorePath().times == (0,) and type(MoorePath().times[0]) is F


# ----------------------------------------------------------------------
# the collar truncation against the Fraction reference it replaced


def _reference_snap(s):
    if s <= F(1, 3):
        return F(0)
    if s >= F(2, 3):
        return F(1)
    return 3 * (s - F(1, 2)) + F(1, 2)


def _reference_snap_height(h):
    return _reference_snap(h) if h >= 0 else -_reference_snap(-h)


def _reference_snap_point(s, p):
    # boundary_snap on Fraction arithmetic
    return normalize_point(s.base, p.cube, tuple(_reference_snap(c) for c in p.coords))


def _reference_truncate_collar(s, path):
    """The collar truncation on Fraction arithmetic: cut every track at each
    collar level crossed inside, then classify each piece by its snapped
    midpoint and snap its ends, and canonicalize the whole."""
    heights = (F(-2, 3), F(-1, 3), F(1, 3), F(2, 3))
    coords = (F(1, 3), F(2, 3))
    segs = []
    for seg in path.segments:
        if isinstance(seg, StarSeg):
            segs.append(seg)
            continue
        cuts = {F(0), F(1)}
        moves = [(seg.h0, seg.h1, heights)] + [(a, b, coords) for a, b in zip(seg.c0, seg.c1)]
        for a, b, levels in moves:
            if a != b:
                for level in levels:
                    u = (level - a) / (b - a)
                    if 0 < u < 1:
                        cuts.add(u)
        cuts = sorted(cuts)
        for sa, sb in zip(cuts, cuts[1:]):
            d = seg.duration * (sb - sa)
            h0, h1 = (seg.h0 + (seg.h1 - seg.h0) * u for u in (sa, sb))
            c0, c1 = (tuple(a + (b - a) * u for a, b in zip(seg.c0, seg.c1)) for u in (sa, sb))
            hm = (h0 + h1) / 2
            mid = RealizationPoint(seg.cube, tuple((a + b) / 2 for a, b in zip(c0, c1)))
            if hm <= F(-2, 3) or hm >= F(2, 3) or _reference_snap_point(s, mid) == s.origin:
                segs.append(StarSeg(d))
            else:
                segs.append(
                    TrackSeg(
                        d,
                        _reference_snap_height(h0),
                        _reference_snap_height(h1),
                        seg.cube,
                        tuple(map(_reference_snap, c0)),
                        tuple(map(_reference_snap, c1)),
                    )
                )
    p = path.empty_at
    if p is not STAR:
        h, snapped = _reference_snap_height(p.height), _reference_snap_point(s, p.point)
        p = STAR if h in (-1, 1) or snapped == s.origin else Interior(h, snapped)
    return s.path(segs, empty_at=p)


def _cube3():
    interval = interval_complex()
    return tensor_product(tensor_product(interval, interval), interval)


_COLLAR_BASES = {
    "circle": circle_complex,
    "wedge2": lambda: wedge_of_circles(2),
    "torus": torus_complex,
    "cube3": _cube3,
    "sus-circle": lambda: suspension_model(circle_complex()).complex,
}
# the collar levels, the ends, and values next to the levels on large
# denominators that differ from each other
_COLLAR_HEIGHTS = sorted(
    {F(k, 3) for k in (-2, -1, 0, 1, 2)}
    | {F(k, 12) for k in range(-11, 12)}
    | {F(-666667, 1000000), F(-333333, 1000001), F(333334, 999999), F(2001, 3001), F(-1, 7)}
)
_COLLAR_COORDS = sorted(
    {F(0), F(1), F(1, 3), F(2, 3), F(1, 2)}
    | {F(k, 12) for k in range(1, 12)}
    | {F(1000, 3001), F(333334, 1000001), F(2000, 2999), F(666667, 1000003), F(5, 7)}
)


@st.composite
def _collar_loops(draw):
    """A loop of excursions, each through waypoints inside one cube.

    An excursion starts at the lower pole and ends at either pole; between
    waypoints a height may rise or fall, and a coordinate may move or be
    held at its last value (a collar level, 0 or 1 among them).
    """
    K = _COLLAR_BASES[draw(st.sampled_from(sorted(_COLLAR_BASES)))]()
    s = Suspension(K)
    cubes = sorted(K.cubes)
    height, coord = st.sampled_from(_COLLAR_HEIGHTS), st.sampled_from(_COLLAR_COORDS)
    duration = st.sampled_from([F(1, 2), F(1), F(3), F(7, 5), F(1000, 999)])
    segs = []
    for _ in range(draw(st.integers(1, 3))):
        segs.append(StarSeg(draw(st.sampled_from([F(0), F(1, 2), F(1)]))))
        cube = draw(st.sampled_from(cubes))
        c = tuple(draw(coord) for _ in range(K.cubes[cube]))
        h = F(-1)
        for k in range(draw(st.integers(1, 4)), -1, -1):
            h1 = draw(height) if k else draw(st.sampled_from([F(-1), F(1)]))
            c1 = tuple(x if draw(st.booleans()) else draw(coord) for x in c)
            segs.append(TrackSeg(draw(duration), h, h1, cube, c, c1))
            h, c = h1, c1
    return s, s.path(segs)


def _collar_image(s):
    # the thirds retraction of a suspension point, by its definition
    def image(p, t):
        if p is STAR:
            return STAR
        snapped = boundary_snap(s.base, p.point)
        return STAR if snapped == s.origin else _clamped(_thirds(p.height), snapped)

    return image


def _check_collar_truncation(s, loop):
    out = s.truncate_near_basepoint(loop)
    assert out == _reference_truncate_collar(s, loop)
    _check_pointwise(s, loop, out, lambda t: t, _collar_image(s), _breaks(loop))
    return out


@settings(max_examples=300, deadline=None)
@given(_collar_loops())
def test_collar_truncation_matches_the_fraction_reference(drawn):
    _check_collar_truncation(*drawn)


def _held(dur, h0, h1, cube, c):
    return TrackSeg(F(dur), F(h0), F(h1), cube, c, c)


_COLLAR_CASES = {
    # ends exactly on the height levels, rising and falling
    "height-levels": (
        "circle",
        [
            _held(1, -1, F(-2, 3), "e", (F(1, 2),)),
            _held(1, F(-2, 3), F(-1, 3), "e", (F(1, 2),)),
            _held(1, F(-1, 3), F(1, 3), "e", (F(1, 2),)),
            _held(1, F(1, 3), F(-1, 3), "e", (F(1, 2),)),
            _held(1, F(-1, 3), F(2, 3), "e", (F(1, 2),)),
            _held(1, F(2, 3), F(1, 3), "e", (F(1, 2),)),
            _held(1, F(1, 3), 1, "e", (F(1, 2),)),
        ],
    ),
    # coordinates held at the collar levels and at the ends of a square
    "held-coordinates": (
        "torus",
        [
            _held(1, -1, 1, "(e|e)", (F(1, 3), F(1, 2))),
            _held(1, -1, 1, "(e|e)", (F(2, 3), F(1, 2))),
            _held(1, -1, 1, "(e|e)", (F(1, 2), F(1, 3))),
            _held(1, -1, 1, "(e|e)", (F(1, 3), F(2, 3))),
            _held(1, -1, 1, "(e|e)", (F(1, 2), F(1, 2))),
        ],
    ),
    "held-faces": (
        "cube3",
        [
            TrackSeg(F(2), F(-1), F(1, 2), "((e|e)|e)", (F(0), F(1, 2), F(1)), (F(0), F(3, 4), F(1))),
            TrackSeg(F(1), F(1, 2), F(1), "((e|e)|e)", (F(0), F(3, 4), F(1)), (F(0), F(3, 4), F(2, 3))),
        ],
    ),
    # one track across all four height levels and both coordinate levels,
    # at cuts that coincide and at cuts that do not
    "all-levels": (
        "circle",
        [
            TrackSeg(F(2), F(-1), F(1), "e", (F(0),), (F(1),)),
            TrackSeg(F(3), F(-1), F(1), "e", (F(1, 10),), (F(9, 10),)),
            TrackSeg(F(3), F(-1), F(1), "e", (F(19, 20),), (F(1, 20),)),
        ],
    ),
    "falling": (
        "wedge2",
        [
            TrackSeg(F(1), F(-1), F(5, 6), "e1", (F(1, 2),), (F(1, 4),)),
            TrackSeg(F(1), F(5, 6), F(-5, 6), "e1", (F(1, 4),), (F(5, 6),)),
            TrackSeg(F(1), F(-5, 6), F(-1), "e1", (F(5, 6),), (F(5, 6),)),
        ],
    ),
    "large-denominators": (
        "sus-circle",
        [
            TrackSeg(
                F(1000, 999),
                F(-1),
                F(2001, 3001),
                "(hi|e)",
                (F(1000, 3001), F(666667, 1000003)),
                (F(333334, 1000001), F(1, 7)),
            ),
            TrackSeg(
                F(7, 1000003),
                F(2001, 3001),
                F(1),
                "(hi|e)",
                (F(333334, 1000001), F(1, 7)),
                (F(2000, 2999), F(1, 7)),
            ),
        ],
    ),
    # a track on the collapsed column and one on the middle slice
    "degenerate-faces": (
        "sus-circle",
        [
            TrackSeg(F(1), F(-1), F(1), "(mid|e)", (F(1, 5),), (F(4, 5),)),
            TrackSeg(F(1), F(-1), F(1, 2), "(lo|e)", (F(1), F(1, 2)), (F(1, 2), F(1, 2))),
            TrackSeg(F(1), F(1, 2), F(1), "(lo|e)", (F(1, 2), F(1, 2)), (F(1, 2), F(1))),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(_COLLAR_CASES))
def test_collar_truncation_matches_the_fraction_reference_on_edge_cases(case):
    which, segs = _COLLAR_CASES[case]
    s = Suspension(_COLLAR_BASES[which]())
    _check_collar_truncation(s, s.path(segs))


@settings(max_examples=150, deadline=None)
@given(_collar_loops())
def test_collar_truncation_is_canonical(drawn):
    # the truncation joins its pieces without the boundary canonicalizer,
    # so its output must already be what that canonicalizer makes of it
    s, loop = drawn
    out = s.truncate_near_basepoint(loop)
    assert out == s.path(out.segments, empty_at=out.empty_at)
    for seg in out.segments:
        assert type(seg.duration) is F
        if isinstance(seg, TrackSeg):
            assert all(type(x) is F for x in (seg.h0, seg.h1, *seg.c0, *seg.c1))


# the value objects are slotted rather than frozen: no module of the package
# writes to one, and they keep structural equality and hash; their fields
# are their slots, in constructor order

_VALUE_CLASSES = (TrackSeg, StarSeg, Interior, RealizationPoint)
_VALUE_FIELDS = {"duration", "h0", "h1", "cube", "c0", "c1", "height", "point", "coords"}
# the classes whose own ``__init__`` writes the fields it builds: the value
# classes, the base of the frozen records, and the path record
_BUILDERS = {cls.__name__ for cls in _VALUE_CLASSES} | {"_Frozen", "MoorePath"}


def _constructors(tree) -> list:
    # the ``__init__`` of every class named in _BUILDERS, as (class, function)
    return [
        (cls.name, f)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in _BUILDERS
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name == "__init__"
    ]


def _value_writes(source: str, name: str = "<source>") -> list:
    # every setattr/delattr call, every call of an attribute's
    # __setattr__/__delattr__, and every assignment, augmented assignment or
    # del whose target is an attribute named after a field of a value object,
    # outside the constructors that build one
    out = []
    tree = ast.parse(source)
    building = {id(node) for _, f in _constructors(tree) for node in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in building:
            continue
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called in ("setattr", "delattr", "__setattr__", "__delattr__"):
                out.append((name, node.lineno, called))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and node.attr in _VALUE_FIELDS
        ):
            out.append((name, node.lineno, "." + node.attr))
    return sorted(out)


def test_no_module_writes_to_a_value_object():
    assert _VALUE_FIELDS == {name for cls in _VALUE_CLASSES for name in cls.__slots__}
    # the walk sees each kind of write
    writes = (
        "seg.duration = 1\nx.c0 += (1,)\ndel p.point\nobject.__setattr__(s, 'h0', 0)\n"
        "setattr(s, 'h1', 0)\na.cube, b = 1, 2\nfor q.coords in []: pass\n"
        "x.height: int = 0\nrows.cube_count = 0\nseg.cubes = {}\n"
    )
    assert [what for _, _, what in _value_writes(writes)] == [
        ".duration", ".c0", ".point", "__setattr__", "setattr", ".cube", ".coords", ".height"
    ]
    # only the constructor of a value class is left out, nothing else it holds
    classes = (
        "class TrackSeg:\n def __init__(self, d):\n  self.duration = d\n"
        " def grow(self):\n  self.duration += 1\n"
        "class Other:\n def __init__(self, d):\n  self.duration = d\n"
    )
    assert _value_writes(classes) == [("<source>", 5, ".duration"), ("<source>", 8, ".duration")]
    package = pathlib.Path(dirloop.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    sources = {m.name: m.read_text(encoding="utf-8") for m in modules}
    found = [w for m, source in sources.items() for w in _value_writes(source, m)]
    assert found == []
    # every class left out is defined once, with one constructor
    built = sorted((m, cls) for m, source in sources.items() for cls, _ in _constructors(ast.parse(source)))
    assert built == [
        ("cubical.py", "RealizationPoint"), ("cubical.py", "_Frozen"),
        ("paths.py", "Interior"), ("paths.py", "MoorePath"), ("paths.py", "StarSeg"), ("paths.py", "TrackSeg"),
    ]


def test_slotted_value_objects_keep_equality_hash_replace_and_fields():
    def build(k):
        # the same values from fresh objects for each k
        c = (F(k, 4 * k), F(2 * k, 6 * k))
        x = RealizationPoint("(e|e)", c)
        return (
            TrackSeg(F(k, k), F(-k, k), F(k, 2 * k), "(e|e)", c, tuple(list(c))),
            StarSeg(F(2 * k, 3 * k)),
            Interior(F(k, 2 * k), x),
            x,
        )

    names = {
        TrackSeg: ["duration", "h0", "h1", "cube", "c0", "c1"],
        StarSeg: ["duration"],
        Interior: ["height", "point"],
        RealizationPoint: ["cube", "coords"],
    }
    for a, b in zip(build(1), build(3)):
        cls = type(a)
        assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1
        assert cls.__slots__ == tuple(names[cls]) and not hasattr(a, "__dict__")
        values = [getattr(a, name) for name in names[cls]]
        # the constructor takes the fields in slot order, by position or by name
        assert cls(*values) == a == cls(**dict(zip(names[cls], values)))
        # a variant is a constructor call with one value swapped, and back
        changed = cls(F(7), *values[1:])
        assert changed != a and getattr(changed, names[cls][0]) == 7
        assert cls(values[0], *[getattr(changed, name) for name in names[cls][1:]]) == a
        assert [getattr(b, name) for name in names[cls]] == values
        assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names[cls], values))})"
        assert pickle.loads(pickle.dumps(a)) == a
        assert a.__eq__(values[0]) is NotImplemented
    assert TrackSeg(F(1), F(0), F(1), "e", (F(1, 2),), (F(1, 2),)) != StarSeg(F(1))
    # a path stays frozen: its cached times live in its instance dict
    loop = MoorePath((StarSeg(F(1)),))
    with pytest.raises(AttributeError):
        loop.empty_at = None
    with pytest.raises(AttributeError):
        del loop.segments
    assert loop.duration == 1 and "times" in vars(loop)
    assert loop.empty_at is STAR and loop.segments == (StarSeg(F(1)),)
    assert loop.__eq__(loop.segments) is NotImplemented
