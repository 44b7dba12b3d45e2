"""Seeded inputs, operations and reference answers of each workload.

Every input is generated here, not by the package, so a change to
``pointline.generators`` cannot change what the benchmark measures.  The
seed moves every input without changing its size or its line-size
histogram: random sets are drawn from it, grids and near-pencils are
moved by a unimodular integer map, and circle points are shifted along
the rational parametrisation.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

WORKLOADS = ("lattice-large", "sweep-small", "crosscheck", "constants")


class Op(NamedTuple):
    """One CLI call: the argv after ``pointline`` and how to check its output.

    ``expect`` holds the reference answer: for ``verify`` the point count
    and, for structured sets, the line-size histogram; for ``constants``
    the family.
    """

    label: str
    argv: list
    expect: dict


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------


def unimodular_map(rng: random.Random):
    """A seeded integer affine map with determinant +-1.

    Shears with small factors keep coordinates (and so the size of every
    intermediate integer) in the same range for every seed.
    """
    a, b = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
    m = ((1 + a * b, a), (b, 1))  # [[1, a], [0, 1]] @ [[1, 0], [b, 1]]
    if rng.random() < 0.5:
        m = (m[1], m[0])  # a row swap keeps |det| = 1
    tx, ty = rng.randint(-999, 999), rng.randint(-999, 999)
    return lambda x, y: (m[0][0] * x + m[0][1] * y + tx, m[1][0] * x + m[1][1] * y + ty)


def grid(w: int, h: int, rng: random.Random) -> list:
    f = unimodular_map(rng)
    return [f(x, y) for x in range(w) for y in range(h)]


def near_pencil(n: int, rng: random.Random) -> list:
    f = unimodular_map(rng)
    return [f(i, 0) for i in range(n - 1)] + [f(0, 1)]


def circle(n: int, rng: random.Random) -> list:
    """n rational points of the unit circle, t -> ((1-t^2)/(1+t^2), 2t/(1+t^2))."""
    offset = rng.randrange(16)
    return [
        (Fraction(1 - t * t, 1 + t * t), Fraction(2 * t, 1 + t * t))
        for t in range(offset, offset + n)
    ]


def random_lattice(n: int, bound: int, rng: random.Random) -> list:
    chosen: set = set()
    while len(chosen) < n:
        chosen.add((rng.randint(-bound, bound), rng.randint(-bound, bound)))
    return sorted(chosen)


def write_points(points: list, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"points": [[str(x), str(y)] for x, y in points]}, fp)


# ---------------------------------------------------------------------------
# Reference line-size histograms, by counting rather than by enumeration
# ---------------------------------------------------------------------------


def grid_hist(w: int, h: int) -> dict[int, int]:
    """Line-size histogram of the w x h grid, from pair counts per direction.

    For a primitive direction v, N_m = (w - m|vx|)+ (h - m|vy|)+ counts
    the points P with P + m v in the grid.  Since the grid is convex, the
    lines with at least L points number N_{L-1} - N_L, so exactly L
    points: N_{L-1} - 2 N_L + N_{L+1}.
    """
    hist: dict[int, int] = {}
    for vx in range(0, w):
        for vy in range(-(h - 1), h):
            if gcd(vx, vy) != 1 or (vx == 0 and vy < 0):
                continue

            def count(m, vx=vx, vy=vy):
                return max(w - m * vx, 0) * max(h - m * abs(vy), 0)

            size = 2
            while count(size - 1):
                k = count(size - 1) - 2 * count(size) + count(size + 1)
                if k:
                    hist[size] = hist.get(size, 0) + k
                size += 1
    return hist


def pencil_hist(n: int) -> dict[int, int]:
    hist = {2: n - 1}
    hist[n - 1] = hist.get(n - 1, 0) + 1  # n = 3: the base is a 2-line too
    return hist


def circle_hist(n: int) -> dict[int, int]:
    return {2: comb(n, 2)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _verify(label, points, hist, workdir, extra=()):
    path = os.path.join(workdir, label.replace(" ", "_") + ".json")
    write_points(points, path)
    return Op(label, ["verify", path, *extra], {"n": len(points), "hist": hist})


def lattice_large(seed: int, workdir: str) -> list[Op]:
    """Three large inputs whose cost is the pair kernel and the statistics.

    The grid and the random set have many lines and load the statistics
    step; the pencil has 2M pairs on only 2k lines and loads the kernel.
    """
    rng = random.Random(f"lattice-large:{seed}")
    json_out = ("--format", "json")
    return [
        _verify("grid 30x30", grid(30, 30, rng), grid_hist(30, 30), workdir, json_out),
        _verify("near-pencil 2000", near_pencil(2000, rng), pencil_hist(2000), workdir, json_out),
        _verify("random 800", random_lattice(800, 2000, rng), None, workdir, json_out),
    ]


def sweep_small(seed: int, workdir: str) -> list[Op]:
    """The acceptance sweep's shape: many small calls, fixed cost per call dominates."""
    rng = random.Random(f"sweep-small:{seed}")
    json_out = ("--format", "json")
    ops = []
    for w in range(2, 13):
        for h in range(w, 13):
            ops.append(_verify(f"grid {w}x{h}", grid(w, h, rng), grid_hist(w, h), workdir, json_out))
    for n in range(3, 201):
        ops.append(_verify(f"near-pencil {n}", near_pencil(n, rng), pencil_hist(n), workdir, json_out))
    for n in range(3, 101):
        ops.append(_verify(f"circle {n}", circle(n, rng), circle_hist(n), workdir, json_out))
    for i in range(200):
        n, bound = 5 + (7 * i) % 56, 4 + i % 13
        ops.append(_verify(f"random {i}", random_lattice(n, bound, rng), None, workdir, json_out))
    return ops


def crosscheck(seed: int, workdir: str) -> list[Op]:
    """The only workload that runs the brute-force oracle and rational inputs."""
    rng = random.Random(f"crosscheck:{seed}")
    flags = ("--cross-check", "--format", "json")
    return [
        _verify("circle 80", circle(80, rng), circle_hist(80), workdir, flags),
        _verify("grid 12x12", grid(12, 12, rng), grid_hist(12, 12), workdir, flags),
        _verify("random 150", random_lattice(150, 100, rng), None, workdir, flags),
    ]


def constants(seed: int, workdir: str) -> list[Op]:
    """Both constant scans; no point set, so every arrangement layer is idle.

    There is no random input: the seed changes nothing here.
    """
    del seed, workdir
    return [
        Op(
            "constants wd",
            ["constants", "--family", "wd", "--c-min", "8", "--c-max", "200",
             "--eps", "1/26", "--format", "json"],
            {"family": "wd"},
        ),
        Op(
            "constants few",
            ["constants", "--family", "few", "--c-min", "29", "--c-max", "200",
             "--format", "json"],
            {"family": "few"},
        ),
    ]


BUILDERS = {
    "lattice-large": lattice_large,
    "sweep-small": sweep_small,
    "crosscheck": crosscheck,
    "constants": constants,
}
