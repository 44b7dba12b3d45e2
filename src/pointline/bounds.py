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
Inequality verdicts are integer cross-multiplications of each check's
two sides, held as (numerator, denominator) pairs; thresholds such as
n/26 + 2 are never rounded.

The constant formulas of the two bound families live in one record
builder each (_wd_record, _few_record; BoundParamsWD.with_eps gives the
eps-dependent delta from the record's numerator), from integer closed
forms, one Fraction per field or enclosure end; the paper-form formulas,
in Fraction at both ends of the series enclosure, are in
tests/reference.py.  The scan over c, _scan (through scan_constants_wd
and scan_constants_few), is the only caller of those builders and
returns their records, so callers such as the CLI format fields and never
re-derive one.  The record at a single c is the one record of the scan
from c to c.
"""
from __future__ import annotations

import operator
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

    A plain enclosure record: compute with its lo and hi endpoints.
    Intervals are not ordered and have no arithmetic: <, <=, > and >=
    raise TypeError rather than compare the endpoints as a tuple, so max
    and sorted refuse them too, and + and * raise TypeError rather than
    concatenate or repeat the endpoints as a tuple (-, / and unary minus
    have no tuple form and raise it as well).
    """

    __slots__ = ()

    def __new__(cls, lo: Rational, hi: Rational):
        if lo > hi:
            raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
        return super().__new__(cls, lo, hi)

    def _refused(self, other):
        raise TypeError("intervals are not ordered and have no arithmetic; use their lo or hi endpoints")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rmul__ = _refused


class CrossingConstants(namedtuple("CrossingConstants", "alpha beta")):
    """Constants (alpha, beta) of the crossing-number lower bound, as a named tuple.

    Every graph with n vertices and m >= alpha*n edges has crossing
    number at least m^3 / (beta * n^2).  Defaults are the pair of Pach,
    Radoicic, Tardos and Toth (Discrete Comput. Geom. 36, 2006) behind
    n/26 + 2 and n(n - l)/61; Ackerman's (7, 29) (Comput. Geom. 85, 2019)
    has a larger alpha and a smaller beta, so neither dominates.  The
    constant scans take any pair, for sensitivity scans; verify_theorems
    checks the statements the default pair proves.  alpha and beta are
    held as Fractions, as check_eps holds eps.
    """

    __slots__ = ()

    def __new__(cls, alpha: Rational = Fraction(103, 16), beta: Rational = Fraction(31827, 1024)):
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha <= 0 or beta <= 0:
            raise DomainError("crossing constants must be positive")
        return super().__new__(cls, alpha, beta)


DEFAULT_CONSTANTS = CrossingConstants()


class GraphSize(namedtuple("GraphSize", "n_vertices m_edges")):
    """Vertex and edge counts of an abstract graph, as a named tuple; a non-integer count is a TypeError."""

    __slots__ = ()

    def __new__(cls, n_vertices: int, m_edges: int):
        n_vertices, m_edges = operator.index(n_vertices), operator.index(m_edges)
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
    Its one caller, _scan, passes a kind of _term, 2 <= c_min and
    cutoff >= c_max; the table does not check them again.
    """
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
# The scan over c, _scan, is the builders' only caller.
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


def _scan(series: str, smallest: int, build: Callable, objective: str,
          c_min: int, c_max: int, k: CrossingConstants, cutoff: int) -> ScanResult:
    """Isolate the c maximizing the objective enclosure by interval dominance.

    series, smallest, build and objective are a family's series kind,
    least c, record builder and the record field maximized.  The argmax
    is accepted only when its enclosure's lower bound exceeds every other
    enclosure's upper bound.  While enclosures overlap at the top, the
    cutoff doubles (up to MAX_CUTOFF); if the maximum still cannot be
    isolated, Unresolved is raised naming the overlapping set.
    The start cutoff must lie in [1, MAX_CUTOFF]; one below c_max is
    lifted to c_max, so c_max must not exceed MAX_CUTOFF either.
    """
    if not smallest <= c_min <= c_max:
        raise DomainError(f"need {smallest} <= c_min <= c_max, got [{c_min}, {c_max}]")
    if cutoff < 1:
        raise InvalidCutoff(f"cutoff must be >= 1, got {cutoff}")
    if cutoff > MAX_CUTOFF:
        raise InvalidCutoff(f"cutoff must be <= {MAX_CUTOFF}, got {cutoff}")
    if c_max > MAX_CUTOFF:
        raise InvalidCutoff(f"c_max must be <= {MAX_CUTOFF}, the largest cutoff, got {c_max}")
    cutoff = max(cutoff, c_max)
    while True:
        tails = _suffix_tail_table(series, c_min, c_max, cutoff)
        # pop: each tail enclosure is freed once its record is built
        records = tuple(build(c, tails.pop(c), k) for c in range(c_min, c_max + 1))
        table = tuple((p.c, getattr(p, objective)) for p in records)
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


def scan_constants_wd(
    c_min: int,
    c_max: int,
    k: CrossingConstants = DEFAULT_CONSTANTS,
    cutoff: int = DEFAULT_CUTOFF,
) -> ScanResult:
    """Isolate the c in [c_min, c_max] maximizing f(c); records are BoundParamsWD."""
    return _scan("(i+1)/i^3", WD_C_MIN, _wd_record, "f", c_min, c_max, k, cutoff)


def scan_constants_few(
    c_min: int,
    c_max: int,
    k: CrossingConstants = DEFAULT_CONSTANTS,
    cutoff: int = DEFAULT_CUTOFF,
) -> ScanResult:
    """Isolate the c in [c_min, c_max] maximizing 2A(c)/(1 + 2B(c)); records are BoundParamsFew."""
    return _scan("1/i^2", FEW_C_MIN, _few_record, "eps", c_min, c_max, k, cutoff)


# The paper's constants, certified at the default pair and cutoff by one
# record each: at WD_C, with_eps(WD_DELTA).delta.lo >= WD_DELTA and r >= WD_R;
# at FEW_C, eps.lo >= FEW_EPS.  verify_theorems derives its thresholds from them.
WD_C, WD_DELTA, WD_R = 46, Fraction(1, 26), 2
FEW_C, FEW_EPS = 44, Fraction(2, 61)


def few_lines_lower_bound(n: int, l: int, p: BoundParamsFew) -> Interval:
    """Enclosure of A*n^2 - B*l*n, the guaranteed count of lines with <= c points."""
    if not 2 <= l <= n:
        raise DomainError(f"need 2 <= l <= n, got l={l}, n={n}")
    cut = p.b * l * n
    return Interval(p.a.lo * n * n - cut, p.a.hi * n * n - cut)


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


def _hirzebruch(arr):
    """s_2 + (3/4) s_3 >= n + sum_{i>=5} (2i-9) s_i, when at most n - 3 points are collinear."""
    s, n, l = arr.size_hist, arr.n, arr.max_collinear
    rhs = n + sum((2 * i - 9) * c for i, c in s.items() if i >= 5)
    note = "" if l <= n - 3 else f"needs max_collinear <= n-3, have {l} > {n - 3}"
    return l <= n - 3, note, (4 * s.get(2, 0) + 3 * s.get(3, 0), 4), (rhs, 1)


def _degree_rhs(n: int) -> tuple[int, int]:
    """WD_DELTA*n + WD_R."""
    d, r = WD_DELTA, WD_R
    return d.numerator * n * r.denominator + r.numerator * d.denominator, d.denominator * r.denominator


def _point_degree(arr):
    """Some point lies on at least WD_DELTA*n + WD_R lines, when n >= 5 and l < n."""
    applicable = arr.max_collinear < arr.n and arr.n >= 5
    idx, degree = max_lines_through_point(arr)
    note = f"witness point {idx}" if applicable else "needs a non-collinear set with n >= 5"
    return applicable, note, (degree, 1), _degree_rhs(arr.n)


def _incidences(arr):
    """I >= (WD_DELTA*n + WD_R) n, when n >= 5 and l < n, l <= WD_DELTA*n + WD_R."""
    n, l, d = arr.n, arr.max_collinear, WD_DELTA
    num, den = _degree_rhs(n)
    applicable = l < n and n >= 5 and l * den <= num
    inverse = d.denominator if d.numerator == 1 else f"{d.denominator}/{d.numerator}"  # as str(1 / d)
    note = "" if applicable else f"needs non-collinear, n >= 5, and max_collinear <= n/{inverse} + {WD_R}"
    return applicable, note, (arr.incidences, 1), (num * n, den)


def _few(arr, lhs: int, den: int):
    """lhs >= (FEW_EPS/den) n(n - l), with no premise."""
    e = FEW_EPS
    return True, "", (lhs, 1), (e.numerator * arr.n * (arr.n - arr.max_collinear), den * e.denominator)


def _half_le3(arr):
    """Lines of at most 3 points are at least half of all lines, when l < n."""
    applicable = arr.max_collinear < arr.n
    note = "" if applicable else "needs a non-collinear set"
    return applicable, note, (lines_with_at_most(arr, 3), 1), (arr.num_lines, 2)


# (name, relation of lhs to rhs, sides(arr)) in the order verify_theorems runs them; sides
# gives (premise holds, note, lhs, rhs), each side (num, den) with den > 0, from
# WD_DELTA, WD_R, FEW_EPS and DEFAULT_CONSTANTS as they are when it runs
_CHECKS = (
    ("hirzebruch", ">=", _hirzebruch),
    # sum_{j>=i} (j-1) s_j is visibility_edge_count(arr, i)
    ("st_edges", "<=", lambda arr: _st_check(arr, 2, DEFAULT_CONSTANTS)),
    ("st_lines", "<=", lambda arr: _st_check(arr, 3, DEFAULT_CONSTANTS)),
    ("point_degree", ">=", _point_degree),
    ("incidences", ">=", _incidences),
    ("total_lines", ">=", lambda arr: _few(arr, arr.num_lines, 2)),
    ("lines_le3", ">=", lambda arr: _few(arr, lines_with_at_most(arr, 3), 4)),
    ("half_le3", ">=", _half_le3),
)
CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


def check_suite(names) -> None:
    """DomainError unless names is a non-empty collection of CHECK_NAMES."""
    unknown = sorted(set(names).difference(CHECK_NAMES))
    if unknown or not names:
        what = f"unknown check name(s) {unknown}" if unknown else "empty check suite"
        raise DomainError(f"{what}; available: {sorted(CHECK_NAMES)}")


def _decided(name: str, relation: str, sides) -> TheoremCheck:
    """The TheoremCheck of one check's sides, its verdict by integer cross-multiplication."""
    applicable, note, (a, b), (c, d) = sides
    holds = None
    if applicable:  # a/b against c/d, both denominators positive
        holds = a * d <= c * b if relation == "<=" else a * d >= c * b
    return TheoremCheck(name, applicable, relation, Fraction(a, b), Fraction(c, d), holds, note)


def verify_theorems(arr: Arrangement, names=None) -> list[TheoremCheck]:
    """Run the checks of _CHECKS that names names (default: all) on one arrangement, in its order.

    An unknown or empty names is a DomainError.  Each check function states
    its inequality and premise; its two sides are integer pairs, the
    verdict is their cross-multiplication, and each side is reported as
    one Fraction.  Premises are part of the statements: an inapplicable
    check reports its sides with holds=None and counts as success for exit
    purposes (the n=3 triangle violates both literal degree bounds, hence
    their n >= 5).
    """
    if names is not None:
        check_suite(names)
    return [_decided(name, relation, sides(arr)) for name, relation, sides in _CHECKS
            if names is None or name in names]


def _st_check(arr, e, k):
    """The sides of sum_{j>=i} (j-1)^(3-e) s_j <= bound(i) for every i in [2, max_collinear].

    bound(i) = max{alpha*n / (i-1)^(e-2), beta*n^2 / (2(i-1)^e)} (e = 2: the
    st_edges check, e = 3: the st_lines check), held as num/den in ints over
    the one denominator den*(i-1)^e, straight from the crossing pair k, so
    no Fraction is built.  bound(i) never increases with i, and for e = 2
    it is the constant alpha*n from alpha_from on, the least i >= 2 from
    which the alpha term is the max.  The suffix sum is constant on
    [prev + 1, p] for consecutive line sizes prev < p present (prev = 1
    below the smallest), so the smallest slack there is at p; only where
    the e = 2 bound is flat does it tie over [max(prev + 1, alpha_from), p],
    and the smallest such i stands for the tie.  So one pass over the
    present sizes, from max_collinear down, keeps the suffix sum as an int,
    and slacks compare by cross-multiplication.  The sides are those at
    the tightest i (smallest slack; the smallest such i on ties): every
    threshold holds iff suffix * den <= num there.
    """
    (alpha, beta), n = k, arr.n
    den = 2 * alpha.denominator * beta.denominator
    a_num = alpha.numerator * n * 2 * beta.denominator
    b_num = beta.numerator * n * n * alpha.denominator
    # the least i >= 2 with a_num * (i-1)^2 >= b_num, that is (i-1)^2 >= ceil(b_num / a_num)
    alpha_from = isqrt(-(-b_num // a_num) - 1) + 2
    sizes = sorted(arr.size_hist, reverse=True)
    worst = None
    suffix = 0
    for p, prev in zip(sizes, sizes[1:] + [1]):
        suffix += (p - 1) ** (3 - e) * arr.size_hist[p]
        i = max(prev + 1, alpha_from) if e == 2 and p >= alpha_from else p
        num, den_i = a_num * (i - 1) ** 2, den * (i - 1) ** e
        if num < b_num:  # max(num, b_num), without a call per size
            num = b_num
        slack = num - suffix * den_i
        # slack/den_i <= the worst slack so far, both denominators positive
        if worst is None or slack * worst[1] <= worst[0] * den_i:
            worst = (slack, den_i, num, i, suffix)
    _, den, num, i, lhs = worst
    return True, f"tightest at i={i} over i in [2, {arr.max_collinear}]", (lhs, 1), (num, den)
