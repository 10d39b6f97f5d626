"""Precondition checks that no other test reaches: each row calls one
library or CLI function with the input its check rejects, and names the
exception type and message it must raise."""

import argparse
import math

import numpy as np
import pytest

from zorichlab import cli
from zorichlab.density import LineSpec, YPoint, adaptive_trace
from zorichlab.distortion import Slab, relative_distortion, verify_slab_bound
from zorichlab.errors import DomainError, ExponentOverflowError
from zorichlab.preimage import (
    ConeSurface,
    FaceRegion,
    annular_sector_areas,
    beam_boundary_distance,
    cone_for_strip,
    cone_height,
    project_to_plane,
)
from zorichlab.zorich import EXP_CAP, fold, h_inverse, zorich, zorich_second

LINE = LineSpec(YPoint("+x1", 0.4, 0.35))
NAN_POINT = (0.0, math.nan, 0.0)


def _invert_without_y():
    args = cli.build_parser().parse_args(["invert"])
    return args.func(args)


ROWS = [
    (lambda: LineSpec(), DomainError, "LineSpec: give exactly one of alpha and d"),
    (lambda: adaptive_trace(LINE, 1.0, 999, 0.1), DomainError,
     "adaptive_trace: budget must be >= 1000"),
    (lambda: adaptive_trace(LineSpec(p=(0.0, 0.0, 1e300), d=(1.0, 0.3, 0.5)), 1.0, 1000, 0.1),
     DomainError, "adaptive_trace: empty parameter range"),
    (lambda: relative_distortion(np.sin, np.empty((0, 3))), DomainError,
     "relative_distortion: need at least one sample point"),
    (lambda: verify_slab_bound(Slab(0.0, 1.0), 0, lam=1.0), DomainError,
     "verify_slab_bound: need samples"),
    (lambda: FaceRegion(ConeSurface(1.0), "+x3", 0.5, 1.0), DomainError,
     "FaceRegion: unknown face '+x3'"),
    (lambda: cone_height(0.0, (0.0, 0.0)), DomainError, "cone_height: level must be positive"),
    (lambda: beam_boundary_distance(-1.0, 1.0), DomainError,
     "beam_boundary_distance: level must be positive"),
    (lambda: annular_sector_areas(1.0, 1.0), DomainError, "annular_sector_areas: need t1 < t2"),
    (lambda: project_to_plane((0.0, 0.0, 0.0), (0.0, 1.0), 1), DomainError,
     "project_to_plane: u2 must be in (-1, 1) and nonzero"),
    (lambda: project_to_plane((0.0, 0.0, 0.0), (0.5, 0.0), 1), DomainError,
     "project_to_plane: u3 must be positive"),
    (lambda: cone_for_strip(0.0, 1, 0), DomainError, "cone_for_strip: level must be nonzero"),
    (lambda: fold(math.inf), DomainError, "fold: input must be finite"),
    (lambda: zorich(NAN_POINT), DomainError, "zorich: input must be finite"),
    (lambda: zorich_second(NAN_POINT), DomainError, "zorich_second: input must be finite"),
    (lambda: zorich_second((0.0, 0.0, EXP_CAP + 1.0)), ExponentOverflowError,
     f"exp() overflow at first application: x3 = {EXP_CAP + 1.0!r} exceeds the cap"),
    (lambda: h_inverse((0.0, 0.0, 2.0)), DomainError, "h_inverse: input must be a unit vector"),
    (lambda: cli._triple("1,2"), argparse.ArgumentTypeError,
     "expected three comma-separated numbers"),
    (lambda: cli._pair("1,2,3"), argparse.ArgumentTypeError,
     "expected two comma-separated integers"),
    (_invert_without_y, DomainError, "invert: --y is required"),
]


@pytest.mark.parametrize("call, error, message", ROWS, ids=[row[2] for row in ROWS])
def test_precondition_raises(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
