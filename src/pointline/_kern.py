"""The line kernels: the hot loops of arrangement construction.

Both start from ``homogenise``, which clears every point to an integer
homogeneous triple (X, Y, W), so ints and Fractions take one path.

``group_collinear`` maps point pairs to the canonical integer key of
their line and collects line memberships.  It is exact big-integer
arithmetic, whatever the size of the coordinates, and the only kernel
that builds lines.  A pair on a line of 3 or more points that an earlier
row already finished is skipped, not evaluated, so its cost is about the
number of pairs not covered by such a line: n(n - 1)/2 with no three points
collinear, about 2n on a near-pencil.

``int64_statistics`` builds no line at all: it counts, for every point,
the distinct directions to the other points in blocks of numpy rows, and
reads the line-size histogram and the per-point line counts off those
runs.  It keys each direction by its float64 slope dy / dx while
2 * max(|X|, |Y|) * max(W) < 2^26 (for integer input, |coordinate| <
2^25), exact because distinct fractions of integers below 2^26 round to
distinct doubles, and by a gcd-reduced packed int64 key from there up to
its guard 2 * max(|X|, |Y|) * max(W) < 2^31 (for integer input,
|coordinate| < 2^30); past the guard, it refuses the input before numpy
is imported.
"""
from __future__ import annotations

from math import gcd, lcm

# 8-byte elements per block of rows: each array of a block is 512 KB, so a
# block stays in cache (larger blocks were no faster and cost more memory)
_BLOCK_ELEMENTS = 1 << 16
# every |dx|, |dy| of the vectorised kernel stays below this bound
_INT64_BOUND = 1 << 31
# below this bound every |dx|, |dy| is an exact double and dy / dx an exact key
_SLOPE_BOUND = 1 << 26


def homogenise(xs: list, ys: list) -> tuple[list, list, list]:
    """Clear each point (x, y) to integers (X, Y, W) with x = X/W, y = Y/W, W > 0.

    W is the lcm of the two denominators; no Fraction arithmetic is done.
    """
    hx, hy, hw = [], [], []
    for x, y in zip(xs, ys):
        # ints expose .numerator and .denominator == 1, so mixed input is fine
        w = lcm(x.denominator, y.denominator)
        hx.append(x.numerator * (w // x.denominator))
        hy.append(y.numerator * (w // y.denominator))
        hw.append(w)
    return hx, hy, hw


def group_collinear(xs: list, ys: list) -> dict:
    """Group all point pairs by line: {(a, b, c): list of point indices}.

    Coordinates may be ints or Fractions; each point is cleared to an
    integer homogeneous triple (X, Y, W) once, so the pair loop is pure
    integer arithmetic (the line through two points is their homogeneous
    cross product).  Keys follow the LineKey normalization (content 1,
    a > 0 or a = 0 < b).

    A line is created as [i, j] at its first pair and collects its other
    members in that row i: every later member is a column of row i, in
    ascending order.  So each member list is sorted and the dict is in
    lexicographic member order, the order of oracle.brute_force_lines.

    A later row never meets a finished line again.  When row r ends, each
    line of at least 3 points created in it is registered with each of
    its members after r but its last, and row i skips the later members
    of the lines registered for it.  A pair (i, j) that is still
    evaluated can only lie on a line created in row i: had that line a
    member before i, it would have at least 3 points and j would be
    skipped.  So a found key is appended to without a test.  The pairs
    evaluated are those not covered by a longer line through an earlier
    point, about 2n on a near-pencil instead of n^2 / 2, and all of them
    on input with no three points collinear.
    """
    n = len(xs)
    hx, hy, hw = homogenise(xs, ys)
    groups: dict = {}
    # registered[v]: (members, t) of finished lines with members[t] == v
    registered: dict = {}
    for i in range(n):
        x1 = hx[i]
        y1 = hy[i]
        w1 = hw[i]
        columns = range(i + 1, n)
        lines = registered.pop(i, None)
        if lines is not None:
            skip = set()
            for members, t in lines:
                skip.update(members[t + 1:])
            columns = [j for j in columns if j not in skip]
        long_lines = []  # lines of row i that reached 3 points
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
                groups[key] = [i, j]
            else:
                members.append(j)
                if len(members) == 3:
                    long_lines.append(members)
        for members in long_lines:
            for t in range(1, len(members) - 1):
                registered.setdefault(members[t], []).append((members, t))
    return groups


def int64_statistics(hx: list, hy: list, hw: list) -> tuple[dict, list] | None:
    """Line-size histogram and per-point line counts of distinct points, or None.

    Takes the homogeneous triples of ``homogenise``.  Returns
    ({size: number of lines}, [lines through point v for each v]) with
    sizes ascending, or None, before numpy is imported, when
    2 * max(|X|, |Y|) * max(W) >= 2^31.

    For a row i and every column j the direction from point i to point j
    is (dx, dy) = (X_j W_i - X_i W_j, Y_j W_i - Y_i W_j), a positive
    multiple of the affine difference; |dx|, |dy| <= 2 * max(|X|, |Y|) *
    max(W).  Two columns lie on one line through i iff their directions
    are proportional, and the direction is keyed in one of two exact ways:

    - Below 2^26, by the float64 slope dy / dx.  Every product and
      difference is an integer below 2^26, so exact in float64.  A slope
      does not change when the direction flips sign, and -0.0 == +0.0, so
      it names the line.  Vertical directions (dx = 0, so dy / dx is +inf
      or -inf) are set to +inf, and the diagonal (0 / 0) to the sentinel
      -inf.  Distinct slopes give distinct doubles: for p/q != r/s with
      every |.| < 2^26, |p/q - r/s| >= 1/|qs|, while rounding to nearest
      moves the two quotients together by at most 2^-53 (|p/q| + |r/s|) =
      2^-53 (|ps| + |rq|) / |qs| < 1/|qs|.  Equal slopes are one real
      number, so they round to one double.
    - From 2^26 on, by an int64 key.  The direction reduced by its gcd
      packs into P = dx * 2^32 + dy, and the key is |P|.  As |dx|, |dy| <
      2^31, P names the reduced direction and -P its negation, so |P|
      names the line and fits in int64; the diagonal's key 0 is the
      sentinel, below every other key.

    After sorting each row its sentinel comes first, and every run of m
    equal keys after it is one (point, line) incidence on a line of m + 1
    points: the number of runs is the point's line count, and a line of k
    points is seen k times, once from each member.  The block buffers are
    allocated once per call and written in place.
    """
    m = max(max(map(abs, hx)), max(map(abs, hy)))
    bound = 2 * m * max(hw)
    if bound >= _INT64_BOUND:
        return None
    import numpy as np

    slope = bound < _SLOPE_BOUND
    dtype = np.float64 if slope else np.int64
    n = len(hx)
    X = np.array(hx, dtype=dtype)
    Y = np.array(hy, dtype=dtype)
    W = np.array(hw, dtype=dtype)
    seen = np.zeros(n + 1, dtype=np.int64)  # seen[k]: incidences on k-point lines
    per_point = np.empty(n, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // n)
    # the block buffers; a short last block uses their leading rows
    bufs = [np.empty((rows, n), dtype=dtype) for _ in range(3)]
    bufs.append(np.empty((rows, n), dtype=bool))
    bufs.append(np.ones((rows, n - 1), dtype=bool))  # column 0 stays True
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dx, dy, tmp, vertical, starts = (buf[: hi - lo] for buf in bufs)
        wi = W[lo:hi, None]
        np.multiply(X, wi, out=dx)
        dx -= np.multiply(X[lo:hi, None], W, out=tmp)
        np.multiply(Y, wi, out=dy)
        dy -= np.multiply(Y[lo:hi, None], W, out=tmp)
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        if slope:
            with np.errstate(divide="ignore", invalid="ignore"):
                key = np.divide(dy, dx, out=dy)
            np.putmask(key, np.equal(dx, 0, out=vertical), np.inf)
            key[diag] = -np.inf
        else:
            g = np.gcd(dx, dy, out=tmp)
            g[diag] = 1  # (0, 0); distinct points give g > 0 elsewhere
            dx //= g
            dy //= g
            key = dx
            key *= 1 << 32
            key += dy
            np.abs(key, out=key)
        key.sort(axis=1)
        # drop the sentinel column; a run starts at column 0 and at each change
        key = key[:, 1:]
        np.not_equal(key[:, 1:], key[:, :-1], out=starts[:, 1:])
        per_point[lo:hi] = starts.sum(axis=1)
        runs = np.diff(np.flatnonzero(starts), append=starts.size)
        seen[1:] += np.bincount(runs, minlength=n)  # a run of m: a line of m + 1
    size_hist = {k: int(seen[k]) // k for k in np.flatnonzero(seen).tolist()}
    return size_hist, per_point.tolist()
