"""The statistics kernels: the hot loops of arrangement construction.

Both take the triples of ``homogenise``, which clears every point to an
integer homogeneous triple (X, Y, W), so ints and Fractions take one path,
and both return (size_hist, lines_per_point) without building the lines.

``exact_statistics`` is exact big-integer arithmetic, whatever the size
of the coordinates.  It skips each pair on a line of 3 or more points
that an earlier row already counted: a row lists its clear columns from
one n-bit int, in C when they are many.  So its cost is about the pairs
not covered by such a line, n(n - 1)/2 with no three points collinear
and about 2n on a near-pencil, plus two n-bit int operations per row.
It counts the statistics as each such line is finished, and keys each
column by its slope from the row's point in a dict dropped when the row
ends, so it holds O(n) objects, not all C(n, 2) lines: 0.07 MB of
tracemalloc peak on a rational circle of 600 points, where a dict of its
179,700 lines took 58 MB.  Inside the guard below a slope needs no gcd:
on 562 small inputs shaped like the benchmark's sweep the slope loop
took 0.46-0.53 of the time of one keyed by the gcd-reduced line
(a, b, c) (in-process, 2-core VM, CPython 3.11.7).

Asked for a witness, ``exact_statistics`` also hands out every line of 3
or more points as its sorted member list (none on a rational circle,
34,270 of the 184,466 lines of a 30x30 grid), which
``oracle.certify_statistics`` checks with its own arithmetic, so
``verify --cross-check`` runs this one loop.

``int64_statistics`` builds no line at all: it sorts, for every point,
the directions to the other points in blocks of numpy rows, and reads the
per-point line counts off the equal neighbours of each sorted row and the
line-size histogram off the runs of equal neighbours; only lines of 3 or
more points give such a run, and 2-point lines are counted as the
remainder.  It keys each direction by its float64 slope dy / dx, which
is exact while 2 * max(|X|, |Y|) * max(W) < 2^26 (for integer input,
|coordinate| < 2^25; see its docstring).  Past that guard, it refuses the
input before numpy is imported.
"""
from __future__ import annotations

from itertools import compress, count
from math import gcd, inf, lcm

# 8-byte elements per block of rows: each array of a block is 512 KB, so a
# block stays in cache (larger blocks were no faster and cost more memory)
_BLOCK_ELEMENTS = 1 << 16
# below this bound every |dx|, |dy| is an exact double and dy / dx an exact key
_SLOPE_BOUND = 1 << 26
# bin() digits as the bytes 0 and 1 that compress() selects by
_BITS = bytes.maketrans(b"01", b"\0\1")
# rows with more than 1/_DENSE of their later columns clear list them from
# bin() in C, sparser rows walk the set bits: 8 was the fastest of 2-32 on
# grids, random sets and lines with 4-128 points off them (CPython 3.11.7)
_DENSE = 8


def homogenise(points) -> tuple[list, list, list]:
    """Clear each point (x, y) to integers (X, Y, W) with x = X/W, y = Y/W, W > 0.

    W is the lcm of the two denominators; no Fraction arithmetic is done.
    When every coordinate is an int, W = 1 and no clearing is done either.
    """
    xs, ys = map(list, zip(*points))
    if {*map(type, xs), *map(type, ys)} == {int}:
        return xs, ys, [1] * len(xs)
    hx, hy, hw = [], [], []
    for x, y in zip(xs, ys):
        # ints expose .numerator and .denominator == 1, so mixed input is fine
        w = lcm(x.denominator, y.denominator)
        hx.append(x.numerator * (w // x.denominator))
        hy.append(y.numerator * (w // y.denominator))
        hw.append(w)
    return hx, hy, hw


def _within_slope_guard(hx: list, hy: list, hw: list) -> bool:
    """True when 2 * max(|X|, |Y|) * max(W) < 2^26: every slope dy / dx is then an exact key."""
    return 2 * max(max(map(abs, hx)), max(map(abs, hy))) * max(hw) < _SLOPE_BOUND


def exact_statistics(hx: list, hy: list, hw: list, witness: list | None = None) -> tuple[dict, list]:
    """Statistics of distinct points, without their lines: (size_hist, lines_per_point).

    size_hist and lines_per_point are as ``int64_statistics`` returns
    them.  Row i forms for column j the direction (dx, dy) = (X_j W_i -
    X_i W_j, Y_j W_i - Y_i W_j), a positive multiple of the affine
    difference, or (X_j - X_i, Y_j - Y_i) with no product when every
    W = 1, and keys it (below).  The row's dict maps each key to its
    first column; a key met again holds a line of 3 or more points, whose
    members, i first, gather in a list.  When the row ends, each list is
    counted, its pairs are covered, and the row's dicts are dropped.

    A later row never meets a counted line again.  Each point v keeps one
    int bitmask of the columns it skips and left[v], the number of later
    columns it does not skip; when row r ends, each line found in it gets
    one mask of its members, which one walk over them ORs into v's mask,
    or shares when v has none (a near-pencil's masks are one n-bit int),
    while it counts the line and takes the members after v off left[v].
    Row v's shift drops the bits up to v that the mask holds too.  Row i
    shifts its clear columns into free = (full ^ mask) >> (i + 1), full =
    (1 << n) - 1, so bit b is column i + 1 + b.  When more than 1/_DENSE
    of its later columns are clear it lists them in C, selecting
    count(i + 1) by the reversed bin(free); otherwise it walks the set
    bits lowest first (free & -free, then clear it).  left[i] only picks
    the way: both list the set bits of free in ascending order.  A
    skipped pair costs no Python step.  Every pair (i, j) that is still
    evaluated lies on a line whose first member is i: had that line a
    member before i, it would have at least 3 points, the row of its
    first member would have counted it, and j would be skipped.  So the
    direction names that line up to scale, all its later members are
    columns of row i, and a found line is extended without a test of its
    first member.  The pairs evaluated are those not covered by a longer
    line through an earlier point, about 2n on a near-pencil instead of
    n^2 / 2, and all of them on input with no three points collinear.

    The statistics are counted by two identities from the lines of 3 or
    more points alone, each line once, when its row ends.  The lines
    through a point v split the other n - 1 points among them, so v lies
    on n - 1 - sum (k - 2) lines, the sum over the lines of k >= 3 points
    through v.  All lines together hold the C(n, 2) pairs, so the
    2-point lines number s_2 = C(n, 2) - sum C(k, 2) s_k over the sizes
    k >= 3, and the key 2 is left out when s_2 = 0.

    Given a list as witness, the loop also appends each of those member
    lists to it when its row ends (by first member, then in the order the
    row met their third members), so the witness holds every line of 3 or
    more points once, its members sorted; oracle.certify_statistics checks
    it and recounts the statistics from it.  Without one the loop keeps
    nothing past its row.

    The key is the slope dy / dx: Python's correctly rounded true
    division of two ints, or inf when dx = 0.  A slope does not change
    when the direction flips sign, and -0.0 == 0.0, so equal directions
    give one double and meet at the first column f of their key.  Inside
    the guard of ``int64_statistics``, 2 * max(|X|, |Y|) * max(W) < 2^26
    (for integer input, |coordinate| < 2^25), every |dx|, |dy| is below
    2^26, distinct slopes give distinct doubles by the argument in its
    docstring, and a key met again is taken as it is: no gcd runs.  Past
    the guard two slopes may round to one double, or a quotient past the
    largest double raises OverflowError and takes the key None.  So there
    each column j that meets f is confirmed by the exact cross product
    dx * dy_f == dy * dx_f, with f's direction formed again.  A column
    that fails it is keyed in the same dict by its direction divided by
    gcd(dx, dy) and by its sign, so that dx > 0 or dx = 0 < dy, an exact
    key that a float or None never equals.  A direction's columns all
    meet f, so when f is not on its line, all of them go under its
    reduced direction.
    """
    n = len(hx)
    sizes: dict = {}  # sizes[k]: lines of k >= 3 points
    per_point = [n - 1] * n
    # covered[v]: bit j set when v and j lie on one counted line (row v reads the j > v);
    # left[v]: the columns after v that no counted line shares with v
    covered = [0] * n
    left = list(range(n - 1, -1, -1))
    full = (1 << n) - 1
    integer = max(hw) == 1
    # past the guard an equal slope is confirmed by an exact cross product
    confirm = not _within_slope_guard(hx, hy, hw)
    for i in range(n):
        x1 = hx[i]
        y1 = hy[i]
        w1 = hw[i]
        mask = covered[i]
        if mask:
            free = (full ^ mask) >> (i + 1)  # bit b: column i + 1 + b is left clear
            if left[i] * _DENSE > n - 1 - i:
                columns = compress(count(i + 1), bin(free)[:1:-1].encode().translate(_BITS))
            else:
                columns = []
                while free:
                    low = free & -free
                    columns.append(i + low.bit_length())
                    free ^= low
        else:
            columns = range(i + 1, n)
        first = {}  # slope key, or reduced direction, from i: its first column
        long_lines = {}  # first column: the members of a line of 3 or more points
        for j in columns:
            if integer:
                dx, dy = hx[j] - x1, hy[j] - y1
            else:
                w2 = hw[j]
                dx, dy = hx[j] * w1 - x1 * w2, hy[j] * w1 - y1 * w2
            try:
                key = dy / dx if dx else inf
            except OverflowError:
                key = None
            f = first.setdefault(key, j)
            if f == j:
                continue
            if confirm:
                wf = hw[f]
                if dx * (hy[f] * w1 - y1 * wf) != dy * (hx[f] * w1 - x1 * wf):
                    # the double of another direction: key by the reduced one
                    g = gcd(dx, dy)
                    if dx < 0 or (dx == 0 and dy < 0):
                        g = -g
                    f = first.setdefault((dx // g, dy // g), j)
                    if f == j:
                        continue
            members = long_lines.get(f)
            if members is None:
                long_lines[f] = [i, f, j]
            else:
                members.append(j)
        for members in long_lines.values():
            k = len(members)
            sizes[k] = sizes.get(k, 0) + 1
            line = 0
            for v in members:
                line |= 1 << v
            later = k  # the members after v
            for v in members:
                later -= 1
                per_point[v] -= k - 2
                left[v] -= later
                mask = covered[v]
                covered[v] = mask | line if mask else line
        if witness is not None:
            witness.extend(long_lines.values())
        covered[i] = 0
    two_point = n * (n - 1) // 2 - sum(k * (k - 1) // 2 * count for k, count in sizes.items())
    if two_point:
        sizes[2] = two_point
    return dict(sorted(sizes.items())), per_point


def int64_statistics(hx: list, hy: list, hw: list) -> tuple[dict, list] | None:
    """Line-size histogram and per-point line counts of distinct points, or None.

    Takes the homogeneous triples of ``homogenise``.  Returns
    ({size: number of lines}, [lines through point v for each v]) with
    sizes ascending, or None, before numpy is imported, when
    2 * max(|X|, |Y|) * max(W) >= 2^26.

    For a row i and every column j the direction from point i to point j
    is (dx, dy) = (X_j W_i - X_i W_j, Y_j W_i - Y_i W_j), a positive
    multiple of the affine difference; |dx|, |dy| <= 2 * max(|X|, |Y|) *
    max(W) < 2^26.  Two columns lie on one line through i iff their
    directions are proportional, and the direction is keyed by its
    float64 slope dy / dx.  Every product and difference is an integer
    below 2^26, so exact in float64.  A slope does not change when the
    direction flips sign, and -0.0 == +0.0, so it names the line.
    Vertical directions (dx = 0, so dy / dx is +inf or -inf) are set to
    +inf, and the diagonal (0 / 0) to the sentinel -inf.  Distinct slopes
    give distinct doubles: for p/q != r/s with every |.| < 2^26,
    |p/q - r/s| >= 1/|qs|, while rounding to nearest moves the two
    quotients together by at most 2^-53 (|p/q| + |r/s|) =
    2^-53 (|ps| + |rq|) / |qs| < 1/|qs|.  Equal slopes are one real
    number, so they round to one double.

    After sorting each row its sentinel comes first, and every run of
    equal keys among the n - 1 after it is one (point, line) incidence: a
    line of k points is seen k times, once from each member.  The row's
    equal-neighbour mask (key c equals key c + 1) is written into a bool
    block whose first and last columns stay False, so in the flattened
    block no run of True crosses a row end.  A point's line count is
    n - 1 less its row's equal neighbours.  A run of r equal neighbours is
    a line of r + 2 points; the edges of those runs, two per line of 3 or
    more points and none for a 2-point line, give their sizes, and the
    2-point incidences are the runs left over.  Integer input (every W =
    1) forms (dx, dy) by one subtraction each.  The block buffers are
    allocated once per call and written in place.
    """
    if not _within_slope_guard(hx, hy, hw):
        return None
    import numpy as np

    n = len(hx)
    integer = max(hw) == 1
    X = np.array(hx, dtype=np.float64)
    Y = np.array(hy, dtype=np.float64)
    W = np.array(hw, dtype=np.float64)
    seen = np.zeros(n + 1, dtype=np.int64)  # seen[k]: incidences on k-point lines
    per_point = np.empty(n, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // n)
    # the block buffers; a short last block uses their leading rows
    bufs = [np.empty((rows, n), dtype=np.float64) for _ in range(3)]
    bufs.append(np.empty((rows, n), dtype=bool))
    # eq[:, c] for 0 < c < n - 1: sorted keys c and c + 1 of the row are
    # equal (the sentinel is key 0); columns 0 and n - 1 stay False
    bufs.append(np.zeros((rows, n), dtype=bool))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dx, dy, tmp, vertical, eq = (buf[: hi - lo] for buf in bufs)
        if integer:
            np.subtract(X, X[lo:hi, None], out=dx)
            np.subtract(Y, Y[lo:hi, None], out=dy)
        else:
            wi = W[lo:hi, None]
            np.multiply(X, wi, out=dx)
            dx -= np.multiply(X[lo:hi, None], W, out=tmp)
            np.multiply(Y, wi, out=dy)
            dy -= np.multiply(Y[lo:hi, None], W, out=tmp)
        with np.errstate(divide="ignore", invalid="ignore"):
            key = np.divide(dy, dx, out=dy)
        np.putmask(key, np.equal(dx, 0, out=vertical), np.inf)
        key[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        key.sort(axis=1)
        np.equal(key[:, 2:], key[:, 1:-1], out=eq[:, 1:-1])
        # a row's runs are its n - 1 keys less its equal neighbours
        per_point[lo:hi] = n - 1 - np.count_nonzero(eq, axis=1)
        # a run of r equal neighbours (r + 1 keys): a line of r + 2 points;
        # eq starts and ends False, so its edges pair up as (start, end)
        flat = eq.reshape(-1)
        edges = np.flatnonzero(flat[1:] != flat[:-1])
        long_runs = edges[1::2] - edges[::2]
        seen[2] += per_point[lo:hi].sum() - long_runs.size
        seen += np.bincount(long_runs + 2, minlength=n + 1)
    size_hist = {k: int(seen[k]) // k for k in np.flatnonzero(seen).tolist()}
    return size_hist, per_point.tolist()
