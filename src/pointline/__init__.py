"""Exact rational point-line incidence structures and bound verification.

The package enumerates the lines determined by finite planar point sets
in exact rational arithmetic, verifies a family of classical incidence
inequalities on concrete configurations, and computes the bound
constants of the incidence and line-count lower bounds with rigorous
rational enclosures.
"""
from .arrangement import (
    Arrangement,
    PointSet,
    build_arrangement,
    lines_with_at_most,
    max_lines_through_point,
    visibility_edge_count,
)
from .bounds import (
    BoundParamsFew,
    BoundParamsWD,
    CrossingConstants,
    DEFAULT_CONSTANTS,
    GraphSize,
    Interval,
    ScanResult,
    TheoremCheck,
    crossing_lower_bound,
    few_lines_lower_bound,
    hirzebruch_check,
    scan_constants_few,
    scan_constants_wd,
    verify_theorems,
)
from .errors import (
    DomainError,
    DuplicatePoint,
    InvalidCutoff,
    PointFormatError,
    PointLineError,
    TooFewPoints,
    Unresolved,
)
from .generators import (
    circle,
    collinear,
    dump_points,
    grid,
    load_points,
    load_points_file,
    near_pencil,
    random_points,
    save_points_file,
)
from .geometry import Point, Rational, point
from .oracle import certify_lines

__version__ = "0.1.0"
