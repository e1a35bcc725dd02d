"""Stock complexes and random generators shared by tests, demos and the CLI.

Everything here is deterministic given an explicit ``random.Random``; no
module level RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cubical import CubicalSet, FaceRef, RealizationPoint, tensor_product
from .james import IntervalLetter
from .paths import MoorePath, StarSeg, Suspension, TrackSeg


def point_complex() -> CubicalSet:
    return CubicalSet({"p": 0}, {}, "p")


def interval_complex() -> CubicalSet:
    """Two vertices joined by an edge, based at the source end."""
    return CubicalSet(
        {"a": 0, "b": 0, "e": 1},
        {("e", 1, 0): FaceRef("a"), ("e", 1, 1): FaceRef("b")},
        "a",
    )


def circle_complex() -> CubicalSet:
    """One vertex, one loop edge."""
    return CubicalSet(
        {"v": 0, "e": 1},
        {("e", 1, 0): FaceRef("v"), ("e", 1, 1): FaceRef("v")},
        "v",
    )


def wedge_of_circles(n: int = 2) -> CubicalSet:
    cubes: dict[str, int] = {"v": 0}
    faces = {}
    for k in range(n):
        name = f"e{k}"
        cubes[name] = 1
        faces[(name, 1, 0)] = FaceRef("v")
        faces[(name, 1, 1)] = FaceRef("v")
    return CubicalSet(cubes, faces, "v")


def torus_complex() -> CubicalSet:
    c = circle_complex()
    return tensor_product(c, c)


def two_component_complex() -> CubicalSet:
    """A based circle next to a circle the basepoint cannot reach."""
    return CubicalSet(
        {"v": 0, "w": 0, "e": 1, "f": 1},
        {
            ("e", 1, 0): FaceRef("v"),
            ("e", 1, 1): FaceRef("v"),
            ("f", 1, 0): FaceRef("w"),
            ("f", 1, 1): FaceRef("w"),
        },
        "v",
    )


def random_interior_point(K: CubicalSet, rng: random.Random) -> RealizationPoint:
    """Interior point of a random positive dimensional cube of ``K``, in eighths."""
    positive = sorted(c for c, d in K.cubes.items() if d > 0)
    if not positive:
        raise ValueError("complex has no positive dimensional cubes")
    cube = rng.choice(positive)
    coords = tuple(Fraction(rng.randint(1, 7), 8) for _ in range(K.cubes[cube]))
    return RealizationPoint(cube, coords)


_LEVEL_POOL = [
    Fraction(-3, 4),
    Fraction(-1, 2),
    Fraction(-1, 4),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
]


def random_loop(sus: Suspension, rng: random.Random, max_runs: int = 3) -> MoorePath:
    """Directed loop with a constant base letter along each excursion.

    Heights climb from -1 to 1 through random nonzero cut levels, possibly
    holding at one of them, so every excursion crosses the middle slice
    exactly once and away from any plateau.
    """
    segs: list = [StarSeg(Fraction(rng.choice([0, 1, 2]), 2))]
    for _ in range(rng.randint(1, max_runs)):
        x = random_interior_point(sus.base, rng)
        levels = (
            [Fraction(-1)]
            + sorted(rng.sample(_LEVEL_POOL, rng.randint(0, 3)))
            + [Fraction(1)]
        )
        if len(levels) > 2 and rng.random() < Fraction(3, 10):
            i = rng.randrange(1, len(levels) - 1)
            levels = levels[: i + 1] + levels[i:]
        for a, b in zip(levels, levels[1:]):
            dur = Fraction(rng.randint(1, 4), 2)
            segs.append(TrackSeg(dur, a, b, x.cube, x.coords, x.coords))
        segs.append(StarSeg(Fraction(rng.choice([0, 1, 2]), 2)))
    return sus.path(segs)


def random_xprime_letters(K: CubicalSet, rng: random.Random, max_len: int = 4) -> list:
    """Mixed string of point letters and fading interval letters."""
    letters: list = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.7:
            letters.append(random_interior_point(K, rng))
        else:
            letters.append(IntervalLetter(Fraction(rng.randint(1, 4), 4)))
    return letters


def random_reparam(duration, rng: random.Random) -> list:
    """Strictly increasing clock table for a path of the given duration."""
    T = Fraction(duration)
    o1 = T * Fraction(rng.randint(1, 3), 8)
    o2 = T * Fraction(rng.randint(5, 7), 8)
    n1 = Fraction(rng.randint(1, 6), 2)
    n2 = n1 + Fraction(rng.randint(1, 6), 2)
    n3 = n2 + Fraction(rng.randint(1, 6), 2)
    return [(Fraction(0), Fraction(0)), (n1, o1), (n2, o2), (n3, T)]
