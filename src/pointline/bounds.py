"""Bound constants, series enclosures, inequality checks, and constant scans.

Everything here is exact or a true enclosure: closed-form quantities are
exact rationals, and the two infinite series that appear in the bound
coefficients are bracketed by an Interval: a partial sum up to a cutoff
M, plus the Euler-Maclaurin bracket of the remainder past M (truncated
after the B_2 and after the B_4 term; Graham, Knuth and Patashnik,
Concrete Mathematics, 2nd ed., section 9.5; T. M. Apostol, "An
elementary view of Euler's summation formula", Amer. Math. Monthly 106
(1999) 409-418).
The bracket is O(1/M^5) wide, so a few hundred terms suffice.  Each
term and each end of the bracket is rounded outward to a multiple of
2^-128 (TAIL_BITS) and summed as an int, so every enclosure holds the
exact rational one, is at most (M + 2) * 2^-128 wider at each end, and
has a 129-bit denominator instead of one of thousands of bits.
There is one tail path: _suffix_tail_table encloses the series from
every start c in a range in one pass over the terms.
Inequality verdicts are exact rational comparisons; thresholds such as
n/26 + 2 are never rounded.

The constant formulas of the two bound families live in one record
builder each (_wd_record, _few_record; BoundParamsWD.with_eps gives the
eps-dependent delta from the record's numerator), from integer closed
forms, one Fraction per field or enclosure end; the paper-form formulas,
in Fraction and Interval operators, are in tests/reference.py.  The scans
over c (scan_constants_wd, scan_constants_few) are the only callers of
those builders and return their records, so callers such as the CLI
format fields and never re-derive one.  The record at a single c is the
one record of the scan from c to c.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple, Optional

from .arrangement import Arrangement, lines_with_at_most, max_lines_through_point
from .errors import DomainError, InvalidCutoff, Unresolved
from .geometry import Rational

DEFAULT_CUTOFF = 256
MAX_CUTOFF = 1 << 12


class Interval(namedtuple("Interval", "lo hi")):
    """Closed rational interval [lo, hi] enclosing a real value, as a named tuple.

    Supports the affine arithmetic of few_lines_lower_bound and the paper-form
    reference records: addition and subtraction with scalars or intervals,
    sign-aware scalar multiplication, and division by a nonzero scalar.
    Each operator is defined here, so none falls back to tuple
    concatenation or repetition.  Intervals are
    not ordered: <, <=, > and >= raise TypeError rather than compare the
    endpoints as a tuple, so max and sorted refuse them too.
    """

    __slots__ = ()

    def __new__(cls, lo: Rational, hi: Rational):
        if lo > hi:
            raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
        return super().__new__(cls, lo, hi)

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        if isinstance(other, (int, Fraction)):
            return Interval(self.lo + other, self.hi + other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        if isinstance(other, (int, Fraction)):
            return Interval(self.lo - other, self.hi - other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Interval(other - self.hi, other - self.lo)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other >= 0:
                return Interval(self.lo * other, self.hi * other)
            return Interval(self.hi * other, self.lo * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other > 0:
                return Interval(self.lo / other, self.hi / other)
            if other < 0:
                return Interval(self.hi / other, self.lo / other)
            raise ZeroDivisionError("interval divided by zero")
        return NotImplemented

    def _unordered(self, other):
        raise TypeError("intervals are not ordered; compare their lo or hi endpoints")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class CrossingConstants(namedtuple("CrossingConstants", "alpha beta")):
    """Constants (alpha, beta) of the crossing-number lower bound, as a named tuple.

    Every graph with n vertices and m >= alpha*n edges has crossing
    number at least m^3 / (beta * n^2).  Defaults are the pair of Pach,
    Radoicic, Tardos and Toth (Discrete Comput. Geom. 36, 2006) behind
    n/26 + 2 and n(n - l)/61; Ackerman's (7, 29) (Comput. Geom. 85, 2019)
    has a larger alpha and a smaller beta, so neither dominates.  The
    constant scans take any pair, for sensitivity scans; verify_theorems
    checks the statements the default pair proves.
    """

    __slots__ = ()

    def __new__(cls, alpha: Rational = Fraction(103, 16), beta: Rational = Fraction(31827, 1024)):
        if alpha <= 0 or beta <= 0:
            raise DomainError("crossing constants must be positive")
        return super().__new__(cls, alpha, beta)


DEFAULT_CONSTANTS = CrossingConstants()


class GraphSize(namedtuple("GraphSize", "n_vertices m_edges")):
    """Vertex and edge counts of an abstract graph, as a named tuple."""

    __slots__ = ()

    def __new__(cls, n_vertices: int, m_edges: int):
        if n_vertices < 1:
            raise DomainError("graph needs at least one vertex")
        max_edges = n_vertices * (n_vertices - 1) // 2
        if not 0 <= m_edges <= max_edges:
            raise DomainError(f"edge count {m_edges} outside [0, {max_edges}]")
        return super().__new__(cls, n_vertices, m_edges)


def crossing_lower_bound(g: GraphSize, k: CrossingConstants = DEFAULT_CONSTANTS) -> Rational:
    """Lower bound m^3/(beta*n^2) on the crossing number, 0 below the edge threshold."""
    if g.m_edges < k.alpha * g.n_vertices:
        return Fraction(0)
    return Fraction(g.m_edges**3) / (k.beta * g.n_vertices**2)


def _st_bound(n: int, e: int, k: CrossingConstants) -> tuple[Callable[[int], tuple[int, int]], int]:
    """The Szemeredi-Trotter bound on n points as bound(i) -> (num, den), den > 0.

    num/den = max{alpha*n / (i-1)^(e-2), beta*n^2 / (2(i-1)^e)} for i >= 2
    bounds sum_{j>=i} (j-1)^(3-e) s_j (e = 2: the st_edges check, e = 3:
    the st_lines check).  alpha*n and beta*n^2/2 are split into integers
    once, so each bound(i) is integer arithmetic.
    Returned with bound is alpha_from, the least i >= 2 from which the alpha
    term is the max; bound(i) never increases with i, and for e = 2 it is
    the constant alpha*n from alpha_from on.
    """
    if n < 1:
        raise DomainError(f"point count must be >= 1, got {n}")
    a, b = Fraction(k.alpha * n), Fraction(k.beta * n**2, 2)
    # a/(i-1)^(e-2) and b/(i-1)^e over the one denominator den*(i-1)^e
    a_num, b_num = a.numerator * b.denominator, b.numerator * a.denominator
    den = a.denominator * b.denominator

    def bound(i: int) -> tuple[int, int]:
        if i < 2:
            raise DomainError(f"line size threshold must be >= 2, got {i}")
        num = a_num * (i - 1) ** 2  # max(num, b_num) below, without a call per threshold
        return (num if num > b_num else b_num), den * (i - 1) ** e

    # the least t >= 1 with a_num * t^2 >= b_num, that is t^2 >= ceil(b_num / a_num)
    t = isqrt(-(-b_num // a_num) - 1) + 1
    return bound, t + 1


TAIL_KINDS = ("1/i^2", "(i+1)/i^3")

# the tail table sums in integer multiples of 2^-TAIL_BITS
TAIL_BITS = 128


def _term(kind: str, i: int) -> tuple[int, int]:
    """The i-th series term, 1/i^2 or (i+1)/i^3, as (num, den)."""
    return (1, i * i) if kind == "1/i^2" else (i + 1, i**3)


def _tail_bounds(kind: str, m: int) -> tuple[Rational, Rational]:
    """Euler-Maclaurin bracket of the sum of the terms with i > m, as (lo, hi).

    sum_{i>M} 1/i^2 lies in [U2 - 1/(30M^5), U2] with
    U2 = 1/M - 1/(2M^2) + 1/(6M^3), and sum_{i>M} 1/i^3 in
    [U3 - 1/(12M^6), U3] with U3 = 1/(2M^2) - 1/(2M^3) + 1/(4M^4).
    U2 and U3 stop after the B_2 term, the lower ends after the B_4
    term; every derivative of x^-s alternates in sign, so each
    remainder has the sign of the next term and is bounded by it
    (Graham, Knuth and Patashnik, Concrete Mathematics, section 9.5;
    Apostol, Amer. Math. Monthly 106 (1999)).  (i+1)/i^3 splits as
    1/i^2 + 1/i^3.  The bracket's width is O(1/M^5), and enclosures
    nest as the cutoff doubles (see _suffix_tail_table).
    """
    sq_hi = Fraction(6 * m * m - 3 * m + 1, 6 * m**3)  # 1/M - 1/(2M^2) + 1/(6M^3)
    sq_lo = sq_hi - Fraction(1, 30 * m**5)
    if kind == "1/i^2":
        return sq_lo, sq_hi
    cb_hi = Fraction(2 * m * m - 2 * m + 1, 4 * m**4)  # 1/(2M^2) - 1/(2M^3) + 1/(4M^4)
    cb_lo = cb_hi - Fraction(1, 12 * m**6)
    return sq_lo + cb_lo, sq_hi + cb_hi


def _suffix_tail_table(kind: str, c_min: int, c_max: int, cutoff: int) -> dict[int, Interval]:
    """Enclosures of sum_{i>=c} of 1/i^2 or (i+1)/i^3 for each c in [c_min, c_max], in one pass.

    Each is the partial sum for i in [c, cutoff] plus the bracket of
    _tail_bounds past M = cutoff.  The sums are two ints in units of
    2^-TAIL_BITS, walked back from the cutoff to c_min: lo adds each term
    and the bracket's lower end rounded down, hi adds them rounded up.  So each enclosure holds the exact one
    (exact partial sum plus the exact bracket) and is at most
    cutoff - c + 2 units wider at each end, under 2^-115 for cutoffs up
    to MAX_CUTOFF.
    Nesting survives the rounding.  The exact bracket at M misses the
    true tail by about 1/(42 M^7) at its lower end (the next
    Euler-Maclaurin term of the 1/i^2 series; the 1/i^3 series adds
    about 1/(12 M^8)) and by about 1/(30 M^5) at its upper end.  The
    misses at 2M are 2^7 and 2^5 times smaller, so the exact enclosure
    at 2M lies inside the one at M with a margin of about 1/(42 M^7) at
    the lower end.  At M = 2048, the last cutoff that doubles, that is
    about 2^-82, far more than the 2 * 2048 + 2 units (under 2^-115)
    by which rounding can move an end, so the enclosure at 2M still
    lies inside the one at M.
    """
    if kind not in TAIL_KINDS:
        raise DomainError(f"unknown series kind {kind!r}; expected one of {TAIL_KINDS}")
    if c_min < 2:
        raise DomainError(f"series start must be >= 2, got {c_min}")
    if cutoff < c_max:
        raise InvalidCutoff(f"cutoff {cutoff} below series start {c_max}")
    t_lo, t_hi = _tail_bounds(kind, cutoff)
    lo = (t_lo.numerator << TAIL_BITS) // t_lo.denominator
    hi = -((-t_hi.numerator << TAIL_BITS) // t_hi.denominator)
    unit, table = 1 << TAIL_BITS, {}
    for i in range(cutoff, c_min - 1, -1):
        num, den = _term(kind, i)
        q, r = divmod(num << TAIL_BITS, den)
        lo += q
        hi += q + (r > 0)
        if i <= c_max:
            table[i] = Interval(Fraction(lo, unit), Fraction(hi, unit))
    return table


# ---------------------------------------------------------------------------
# Bound-constant families
#
# Each family has one record builder taking (c, series enclosure, k); it is
# the only place the family's constant formulas are written, apart from the
# eps-dependent delta of the wd family, which BoundParamsWD.with_eps derives
# from the numerator its builder stores.
# The scan over c is the builders' only caller.
# ---------------------------------------------------------------------------

WD_C_MIN = 8
FEW_C_MIN = 29


def check_eps(eps: Rational) -> Fraction:
    """eps as a Fraction; DomainError unless it lies in (0, 1/2)."""
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise DomainError(f"eps must lie in (0, 1/2), got {eps}")
    return eps


class BoundParamsWD(NamedTuple):
    """Constant bundle of the incidence lower bound I >= delta*n^2 + r*n, as a named tuple.

    h = c(c-2)/(5c-18); x = (h+1)/2 dominates the per-size pair/incidence
    ratios; y = c - 5h - 2 + 18h/(c+1) is the negative correction that
    folds the medium sizes into the series term; r is exact.  num =
    1 - (beta/2)(offset + sum_{i>=c}(i+1)/i^3) is an enclosure (it absorbs
    the series); f = num/(h+1+alpha) encloses the largest eps the bound
    supports and delta = (num - eps*alpha)/(h+1) the incidence coefficient
    at eps.  eps and delta are None until with_eps fills them in.
    """

    c: int
    eps: Optional[Rational]
    h: Rational
    x: Rational
    y: Rational
    delta: Optional[Interval]
    r: Rational
    num: Interval
    f: Interval
    k: CrossingConstants

    def with_eps(self, eps: Rational) -> "BoundParamsWD":
        """A copy of this record with delta filled in for eps in (0, 1/2)."""
        eps = check_eps(eps)
        ea, ea_den = eps.numerator * self.k.alpha.numerator, eps.denominator * self.k.alpha.denominator
        ends = [(v.numerator * ea_den - ea * v.denominator, v.denominator * ea_den) for v in self.num]
        h = self.h  # delta = (num - eps*alpha)/(h + 1)
        return self._replace(eps=eps, delta=_scaled(ends, h.denominator, h.numerator + h.denominator))


class BoundParamsFew(NamedTuple):
    """Constant bundle of the few-point-line count bound A*n^2 - B*l*n, as a named tuple.

    h = (c^2-c-2)/(4c-16); x = h+1 dominates the per-size ratios; A is an
    enclosure (series term), B = alpha/(2x) is exact, and eps = 2A/(1+2B)
    encloses the largest eps with A*n^2 - B*l*n >= eps*n(n-l)/2.
    """

    c: int
    h: Rational
    x: Rational
    a: Interval
    b: Rational
    eps: Interval


def _series_ends(off_num: int, off_den: int, series: Interval, beta: Rational) -> list[tuple[int, int]]:
    """1 - (beta/2)(off_num/off_den + S) as (num, den): the lower end (S = series.hi, beta > 0), then the upper."""
    ends = []
    for s in (series.hi, series.lo):
        den = 2 * beta.denominator * off_den * s.denominator
        ends.append((den - beta.numerator * (off_num * s.denominator + s.numerator * off_den), den))
    return ends


def _scaled(ends: list[tuple[int, int]], num: int, den: int) -> Interval:
    """The Interval of the (num, den) end pairs, each times num/den > 0, one Fraction per end."""
    (lo_num, lo_den), (hi_num, hi_den) = ends
    return Interval(Fraction(lo_num * num, lo_den * den), Fraction(hi_num * num, hi_den * den))


def _wd_record(c: int, series: Interval, k: CrossingConstants) -> BoundParamsWD:
    p, q = c * (c - 2), 5 * c - 18  # h = p/q
    a_num, a_den = k.alpha.numerator, k.alpha.denominator
    ends = _series_ends(-18 * (c - 2), c**3 * q, series, k.beta)  # offset y * (c+1)/c^3
    return BoundParamsWD(
        c=c,
        eps=None,
        h=Fraction(p, q),
        x=Fraction(p + q, 2 * q),  # (h + 1)/2
        y=Fraction(-18 * (c - 2), (c + 1) * q),  # c - 5h - 2 + 18h/(c + 1)
        delta=None,
        r=Fraction((2 * p - q) * a_den + a_num * q, (p + q) * a_den),  # (2h - 1 + alpha)/(h + 1)
        num=_scaled(ends, 1, 1),
        f=_scaled(ends, q * a_den, (p + q) * a_den + a_num * q),  # num/(h + 1 + alpha)
        k=k,
    )


def _few_record(c: int, series: Interval, k: CrossingConstants) -> BoundParamsFew:
    p, q = c * c - c - 2, 4 * c - 16  # h = p/q, x = h + 1 = (p + q)/q
    a_num, a_den = k.alpha.numerator, k.alpha.denominator
    ends = _series_ends(c * c - 3 * c - 14, 2 * c**3 * (c - 4), series, k.beta)
    return BoundParamsFew(c=c, h=Fraction(p, q), x=Fraction(p + q, q),
                          a=_scaled(ends, q, 2 * (p + q)),  # (1 - (beta/2)(offset + S))/(2x)
                          b=Fraction(a_num * q, 2 * a_den * (p + q)),  # alpha/(2x)
                          eps=_scaled(ends, q * a_den, a_den * (p + q) + a_num * q))  # 2A/(1 + 2B)


class ScanResult(NamedTuple):
    """Outcome of a scan over c, as a named tuple: the argmax, the
    (c, objective) table and the full per-c records of the final
    refinement round."""

    argmax_c: int
    table: tuple[tuple[int, Interval], ...]
    cutoff: int
    records: tuple


class _Family:
    """A bound family: its series kind, smallest c, record builder and the
    record field its scan over c maximizes."""

    def __init__(self, series: str, c_min: int, build: Callable, objective: str):
        self.series, self.c_min, self.build, self.objective = series, c_min, build, objective

    def scan(self, c_min, c_max, k, cutoff) -> ScanResult:
        """Isolate the c maximizing the objective enclosure by interval dominance.

        The argmax is accepted only when its enclosure's lower bound exceeds
        every other enclosure's upper bound.  While enclosures overlap at the
        top, the cutoff doubles (up to MAX_CUTOFF); if the maximum still
        cannot be isolated, Unresolved is raised naming the overlapping set.
        The start cutoff must lie in [1, MAX_CUTOFF]; one below c_max is
        lifted to c_max, so c_max must not exceed MAX_CUTOFF either.
        """
        if not self.c_min <= c_min <= c_max:
            raise DomainError(f"need {self.c_min} <= c_min <= c_max, got [{c_min}, {c_max}]")
        if cutoff < 1:
            raise InvalidCutoff(f"cutoff must be >= 1, got {cutoff}")
        if cutoff > MAX_CUTOFF:
            raise InvalidCutoff(f"cutoff must be <= {MAX_CUTOFF}, got {cutoff}")
        if c_max > MAX_CUTOFF:
            raise InvalidCutoff(f"c_max must be <= {MAX_CUTOFF}, the largest cutoff, got {c_max}")
        cutoff = max(cutoff, c_max)
        while True:
            tails = _suffix_tail_table(self.series, c_min, c_max, cutoff)
            # pop: each tail enclosure is freed once its record is built
            records = tuple(self.build(c, tails.pop(c), k) for c in range(c_min, c_max + 1))
            table = tuple((p.c, getattr(p, self.objective)) for p in records)
            best_c, best = max(table, key=lambda row: row[1].lo)
            overlapping = [c for c, iv in table if c != best_c and iv.hi >= best.lo]
            if not overlapping:
                return ScanResult(argmax_c=best_c, table=table, cutoff=cutoff, records=records)
            if cutoff * 2 > MAX_CUTOFF:
                raise Unresolved(
                    f"argmax not isolated at cutoff {cutoff}: "
                    f"{best_c} overlaps with {overlapping}"
                )
            cutoff *= 2


_WD = _Family("(i+1)/i^3", WD_C_MIN, _wd_record, "f")
_FEW = _Family("1/i^2", FEW_C_MIN, _few_record, "eps")


def scan_constants_wd(
    c_min: int,
    c_max: int,
    k: CrossingConstants = DEFAULT_CONSTANTS,
    cutoff: int = DEFAULT_CUTOFF,
) -> ScanResult:
    """Isolate the c in [c_min, c_max] maximizing f(c); records are BoundParamsWD."""
    return _WD.scan(c_min, c_max, k, cutoff)


def scan_constants_few(
    c_min: int,
    c_max: int,
    k: CrossingConstants = DEFAULT_CONSTANTS,
    cutoff: int = DEFAULT_CUTOFF,
) -> ScanResult:
    """Isolate the c in [c_min, c_max] maximizing 2A(c)/(1 + 2B(c)); records are BoundParamsFew."""
    return _FEW.scan(c_min, c_max, k, cutoff)


# The paper's constants, certified at the default pair and cutoff by one
# record each: at WD_C, with_eps(WD_DELTA).delta.lo >= WD_DELTA and r >= WD_R;
# at FEW_C, eps.lo >= FEW_EPS.  verify_theorems derives its thresholds from them.
WD_C, WD_DELTA, WD_R = 46, Fraction(1, 26), 2
FEW_C, FEW_EPS = 44, Fraction(2, 61)


def few_lines_lower_bound(n: int, l: int, p: BoundParamsFew) -> Interval:
    """Enclosure of A*n^2 - B*l*n, the guaranteed count of lines with <= c points."""
    if not 2 <= l <= n:
        raise DomainError(f"need 2 <= l <= n, got l={l}, n={n}")
    return p.a * n**2 - p.b * l * n


# ---------------------------------------------------------------------------
# Per-configuration theorem verification
# ---------------------------------------------------------------------------


class TheoremCheck(NamedTuple):
    """Outcome of one inequality check on one arrangement, as a named tuple.

    holds is None when the check's premise fails (inapplicable); the
    sides are still reported.  relation is the asserted comparison of
    lhs against rhs.
    """

    name: str
    applicable: bool
    relation: str
    lhs: Rational
    rhs: Rational
    holds: Optional[bool]
    note: str = ""


def _check(name, applicable, relation, lhs, rhs, note="") -> TheoremCheck:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    if applicable:
        holds = lhs <= rhs if relation == "<=" else lhs >= rhs
    else:
        holds = None
    return TheoremCheck(name, applicable, relation, lhs, rhs, holds, note)


def hirzebruch_check(arr: Arrangement) -> TheoremCheck:
    """Check s_2 + (3/4) s_3 >= n + sum_{i>=5} (2i-9) s_i.

    Applicable only when at most n-3 points are collinear; otherwise the
    sides are still reported but no verdict is asserted.
    """
    s = arr.size_hist
    lhs = Fraction(s.get(2, 0)) + Fraction(3, 4) * s.get(3, 0)
    rhs = arr.n + sum((2 * i - 9) * c for i, c in s.items() if i >= 5)
    applicable = arr.max_collinear <= arr.n - 3
    note = "" if applicable else f"needs max_collinear <= n-3, have {arr.max_collinear} > {arr.n - 3}"
    return _check("hirzebruch", applicable, ">=", lhs, rhs, note)


# the name of each check verify_theorems runs, in its order
CHECK_NAMES = ("hirzebruch", "st_edges", "st_lines", "point_degree", "incidences",
               "total_lines", "lines_le3", "half_le3")


def verify_theorems(arr: Arrangement) -> list[TheoremCheck]:
    """Run every supported inequality against one arrangement, in CHECK_NAMES order.

    The thresholds are delta*n + r, delta*n^2 + r*n, (eps/2) n(n - l) and
    (eps/4) n(n - l) for (delta, r, eps) = (WD_DELTA, WD_R, FEW_EPS), and
    the Szemeredi-Trotter bounds of DEFAULT_CONSTANTS.
    Premises are part of the statements: an inapplicable check reports
    its sides with holds=None and counts as success for exit purposes.
    The point-degree and incidence checks require a non-collinear set of
    at least 5 points (the n=3 triangle violates both literal bounds);
    the incidence check also needs max_collinear <= WD_DELTA*n + WD_R,
    and the half-lines check a non-collinear set.
    """
    n = arr.n
    l = arr.max_collinear
    non_collinear = l < n
    checks = []

    checks.append(hirzebruch_check(arr))
    # sum_{j>=i} (j-1) s_j is visibility_edge_count(arr, i)
    checks.append(_st_check("st_edges", arr, 2, DEFAULT_CONSTANTS))
    checks.append(_st_check("st_lines", arr, 3, DEFAULT_CONSTANTS))

    idx, degree = max_lines_through_point(arr)
    degree_rhs = WD_DELTA * n + WD_R
    checks.append(
        _check(
            "point_degree",
            non_collinear and n >= 5,
            ">=",
            degree,
            degree_rhs,
            note=f"witness point {idx}" if non_collinear and n >= 5 else "needs a non-collinear set with n >= 5",
        )
    )
    incid_applicable = non_collinear and n >= 5 and l <= degree_rhs
    checks.append(
        _check(
            "incidences",
            incid_applicable,
            ">=",
            arr.incidences,
            degree_rhs * n,
            note="" if incid_applicable
            else f"needs non-collinear, n >= 5, and max_collinear <= n/{1 / WD_DELTA} + {WD_R}",
        )
    )
    checks.append(
        _check("total_lines", True, ">=", arr.num_lines, FEW_EPS / 2 * (n * (n - l)))
    )
    le3 = lines_with_at_most(arr, 3)
    checks.append(_check("lines_le3", True, ">=", le3, FEW_EPS / 4 * (n * (n - l))))
    checks.append(
        _check(
            "half_le3",
            non_collinear,
            ">=",
            le3,
            Fraction(arr.num_lines, 2),
            note="" if non_collinear else "needs a non-collinear set",
        )
    )
    return checks


def _st_check(name, arr, e, k) -> TheoremCheck:
    """Check sum_{j>=i} (j-1)^(3-e) s_j <= bound(i) for every i in [2, max_collinear].

    Both the weight and bound(i) come from e (see _st_bound).  The suffix
    sum is constant on [prev + 1, p] for consecutive line sizes prev < p
    present (prev = 1 below the smallest), and bound(i) does not increase
    with i, so the smallest slack there is at p; only where the e = 2
    bound is flat does it tie over [max(prev + 1, alpha_from), p], and
    the smallest such i stands for the tie.  So one pass over the present
    sizes, from max_collinear down, keeps the suffix sum as an int; each
    bound is num/den in ints, so slacks compare by cross-multiplication.
    The tightest i (smallest slack; the smallest such i on ties) is shown
    with rhs num/den, the integers that decide the verdict.
    """
    bound, alpha_from = _st_bound(arr.n, e, k)
    sizes = sorted(arr.size_hist, reverse=True)
    worst = None
    suffix = 0
    for p, prev in zip(sizes, sizes[1:] + [1]):
        suffix += (p - 1) ** (3 - e) * arr.size_hist[p]
        i = max(prev + 1, alpha_from) if e == 2 and p >= alpha_from else p
        num, den = bound(i)
        slack = num - suffix * den
        # slack/den <= worst slack/den, both denominators positive
        if worst is None or slack * worst[1] <= worst[0] * den:
            worst = (slack, den, num, i, suffix)
    slack, den, num, i, lhs = worst
    note = f"tightest at i={i} over i in [2, {arr.max_collinear}]"
    # every threshold holds exactly when the smallest slack is >= 0
    return TheoremCheck(name, True, "<=", Fraction(lhs), Fraction(num, den), slack >= 0, note)
