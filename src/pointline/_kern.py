"""The line kernels: the hot loops of arrangement construction.

Both take the triples of ``homogenise``, which clears every point to an
integer homogeneous triple (X, Y, W), so ints and Fractions take one path.

``group_collinear`` maps point pairs to the canonical integer key of
their line and collects line memberships.  It is exact big-integer
arithmetic, whatever the size of the coordinates, and the only kernel
that builds lines.  It builds each line once, as the tuple of its sorted
members that Arrangement.lines returns: a 2-point line is born a tuple
and stays one, and a line of 3 or more points grows in a list only
within the row that finds it.  In CPython a tuple of ints leaves the
cyclic garbage collector's care at the first collection that sees it,
so no line stays tracked for the collector to rescan, as a list per line
would for each of the 10^5 or more lines of a large input.  A pair on a
line of 3 or more points that an earlier row already finished is
skipped, not evaluated: each point keeps one int bitmask of its covered
columns, and a row lists its other columns by walking the set bits of
one n-bit int, so its cost is about the number of pairs not covered by
such a line, n(n - 1)/2 with no three points collinear and about 2n on a
near-pencil, plus a few n-bit int operations per row.  It counts the
statistics as each line of 3 or more points is finished, by the counting
identities stated in its docstring.

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

from math import gcd, lcm

# 8-byte elements per block of rows: each array of a block is 512 KB, so a
# block stays in cache (larger blocks were no faster and cost more memory)
_BLOCK_ELEMENTS = 1 << 16
# below this bound every |dx|, |dy| is an exact double and dy / dx an exact key
_SLOPE_BOUND = 1 << 26


def homogenise(points) -> tuple[list, list, list]:
    """Clear each point (x, y) to integers (X, Y, W) with x = X/W, y = Y/W, W > 0.

    W is the lcm of the two denominators; no Fraction arithmetic is done.
    """
    hx, hy, hw = [], [], []
    for x, y in points:
        # ints expose .numerator and .denominator == 1, so mixed input is fine
        w = lcm(x.denominator, y.denominator)
        hx.append(x.numerator * (w // x.denominator))
        hy.append(y.numerator * (w // y.denominator))
        hw.append(w)
    return hx, hy, hw


def group_collinear(hx: list, hy: list, hw: list) -> tuple[dict, list, dict]:
    """Statistics and lines of distinct points: (size_hist, lines_per_point, lines).

    size_hist and lines_per_point are as ``int64_statistics`` returns
    them; lines groups all point pairs by line, {(a, b, c): tuple of
    point indices}.  Takes the homogeneous triples of ``homogenise``, so
    the pair loop is pure integer arithmetic (the line through two points
    is their homogeneous cross product).  Each key (a, b, c) is
    canonical: content gcd(a, b, c) = 1, and a > 0 or a = 0 < b.

    A line is created as the tuple (i, j) at its first pair and collects
    its other members in that row i: every later member is a column of
    row i, in ascending order.  At its third member it becomes the list
    [i, j, k], and its key goes on the row's list of long lines; when the
    row ends, that line is finished and its list is replaced, under its
    key, by its tuple.  So every value is a sorted tuple and the dict is
    in lexicographic member order: by first member, then by second.

    A later row never meets a finished line again.  Each point v keeps
    one int bitmask of the columns it skips: when row r ends, every
    member v of a line of at least 3 points created in it gets the bits
    of the members after v OR-ed in, in one reversed walk over the
    members that also counts the line.  Row i lists the columns left
    clear by walking the set bits of ((1 << n) - (2 << i)) & ~mask,
    lowest bit first (take free & -free, then clear it), so an evaluated
    column costs three int operations and a skipped pair costs no Python
    step.  A pair (i, j) that is still evaluated can only lie on a line
    created in row i: had that line a member before i, it would have at
    least 3 points and j would be skipped.  So a found line is extended
    without a test of its first member: a tuple (i, j) becomes [i, j, k],
    a list is appended to.  The pairs evaluated are those not covered by
    a longer line through an earlier point, about 2n on a near-pencil
    instead of n^2 / 2, and all of them on input with no three points
    collinear.

    The statistics are counted by two identities from the lines of 3 or
    more points alone, each line once, when its row ends.  The lines
    through a point v split the other n - 1 points among them, so v lies
    on n - 1 - sum (k - 2) lines, the sum over the lines of k >= 3 points
    through v.  All lines together hold the C(n, 2) pairs, so the
    2-point lines number s_2 = C(n, 2) - sum C(k, 2) s_k over the sizes
    k >= 3, and the key 2 is left out when s_2 = 0.
    """
    n = len(hx)
    groups: dict = {}
    sizes: dict = {}  # sizes[k]: finished lines of k >= 3 points
    per_point = [n - 1] * n
    # covered[v]: bit j set when the pair (v, j) lies on a finished line
    covered = [0] * n
    for i in range(n):
        x1 = hx[i]
        y1 = hy[i]
        w1 = hw[i]
        mask = covered[i]
        if mask:
            # the set bits of free are the columns after i left to evaluate
            free = ((1 << n) - (2 << i)) & ~mask
            columns = []
            while free:
                low = free & -free
                columns.append(low.bit_length() - 1)
                free ^= low
        else:
            columns = range(i + 1, n)
        long_keys = []  # the lines of row i that reached 3 points
        for j in columns:
            w2 = hw[j]
            a = y1 * w2 - hy[j] * w1
            b = hx[j] * w1 - x1 * w2
            c = x1 * hy[j] - y1 * hx[j]
            g = gcd(a, b, c)
            if g > 1:
                a //= g
                b //= g
                c //= g
            if a < 0 or (a == 0 and b < 0):
                a, b, c = -a, -b, -c
            key = (a, b, c)
            members = groups.get(key)
            if members is None:
                groups[key] = (i, j)
            elif len(members) == 2:  # a 2-point line is a tuple
                groups[key] = [i, members[1], j]
                long_keys.append(key)
            else:
                members.append(j)
        for key in long_keys:
            # finished: no later row meets it again
            members = groups[key] = tuple(groups[key])
            k = len(members)
            sizes[k] = sizes.get(k, 0) + 1
            after = 0  # the members after v
            for v in reversed(members):
                per_point[v] -= k - 2
                covered[v] |= after
                after |= 1 << v
        covered[i] = 0
    two_point = n * (n - 1) // 2 - sum(k * (k - 1) // 2 * count for k, count in sizes.items())
    if two_point:
        sizes[2] = two_point
    return dict(sorted(sizes.items())), per_point, groups


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
    m = max(max(map(abs, hx)), max(map(abs, hy)))
    w_max = max(hw)
    if 2 * m * w_max >= _SLOPE_BOUND:
        return None
    import numpy as np

    n = len(hx)
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
        if w_max == 1:
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
