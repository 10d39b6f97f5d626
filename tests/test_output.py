"""The point-cloud and triangle writers against frozen copies of the per-row
writers they replaced: the same bytes for every input, including signed zeros,
NaNs, infinities, subnormals and the values where repr switches to exponent
form, at every block edge.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zorichlab.errors import DomainError
from zorichlab.output import _ROWS, write_point_cloud, write_triangle_soup

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# a NaN with another payload, and one with the sign bit set
NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
SPECIALS = [
    0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf, 5e-324, -5e-324,
    1e16, 9999999999999998.0, -1e16, 1e-5, 1e-4, np.nextafter(1e-4, 0.0), 1.0, -2.5,
]
ELEMENTS = st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))
COUNTS = [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 1]


def frozen_point_cloud(path, points) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# x y z (scene units)\n")
        for p in points:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")


def frozen_triangle_soup(path, triangles) -> None:
    triangles = np.asarray(triangles, dtype=float).reshape(-1, 9)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# x1 y1 z1 x2 y2 z2 x3 y3 z3 (scene units, one triangle per line)\n")
        for t in triangles:
            fh.write(" ".join(repr(float(v)) for v in t) + "\n")


def assert_same_bytes(directory, writer, frozen, data, written=None):
    """writer's file of `written` (data itself by default) is frozen's file of data."""
    new, old = directory / "new.txt", directory / "old.txt"
    writer(new, data if written is None else written)
    frozen(old, data)
    assert new.read_bytes() == old.read_bytes()


def with_zero_twins(vertices):
    """vertices followed by their copies with the sign of every zero flipped:
    equal to them by value, different by bits."""
    return np.concatenate([vertices, np.where(vertices == 0.0, -vertices, vertices)])


def strip(vertices):
    """The triangle strip (v_i, v_i+1, v_i+2): neighbouring triangles, and so
    the triangles on either side of every block edge, share vertices."""
    return vertices[np.arange(len(vertices) - 2)[:, None] + np.arange(3)]


@st.composite
def soups(draw):
    pool = with_zero_twins(draw(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)),
                                       elements=ELEMENTS)))
    idx = draw(arrays(np.intp, st.tuples(st.integers(0, 40), st.just(3)),
                      elements=st.integers(0, len(pool) - 1)))
    return pool[idx]


@PROPERTY
@given(points=arrays(np.float64, st.tuples(st.integers(0, 60), st.just(3)), elements=ELEMENTS))
def test_point_cloud_matches_the_row_writer(tmp_path_factory, points):
    assert_same_bytes(tmp_path_factory.getbasetemp(), write_point_cloud, frozen_point_cloud,
                      points, [points])


@PROPERTY
@given(triangles=soups())
def test_triangle_soup_matches_the_row_writer(tmp_path_factory, triangles):
    assert_same_bytes(tmp_path_factory.getbasetemp(), write_triangle_soup,
                      frozen_triangle_soup, triangles)


def mixed(rng, shape):
    """Specials in about a third of the entries, reals of magnitude 1e-8..1e18 elsewhere."""
    reals = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 19, shape)
    return np.where(rng.random(shape) < 0.3, rng.choice(SPECIALS, shape), reals)


@pytest.mark.parametrize("n", COUNTS)
def test_point_cloud_at_the_block_edges(tmp_path, n):
    points = mixed(np.random.default_rng(n), (n, 3))
    assert_same_bytes(tmp_path, write_point_cloud, frozen_point_cloud, points, [points])
    # the same rows as a stream of chunks of 0, 1, _ROWS - 1 and _ROWS + 1 rows and the rest
    chunks = np.split(points, np.cumsum([0, 1, _ROWS - 1, _ROWS + 1]))
    assert_same_bytes(tmp_path, write_point_cloud, frozen_point_cloud, points, chunks)


@pytest.mark.parametrize("n", COUNTS)
def test_triangle_soup_at_the_block_edges(tmp_path, n):
    # strips over vertices drawn from 40 values and their zero twins
    rng = np.random.default_rng(n)
    pool = with_zero_twins(np.where(rng.random((20, 3)) < 0.5, 0.0, mixed(rng, (20, 3))))
    triangles = strip(pool[rng.integers(0, len(pool), n + 2)])
    assert len(triangles) == n
    assert_same_bytes(tmp_path, write_triangle_soup, frozen_triangle_soup, triangles)


def test_triangle_soup_keeps_signed_zero_vertices_apart(tmp_path):
    zeros = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0],
                      [-0.0, -0.0, -0.0], [1.0, 0.0, 2.0], [1.0, -0.0, 2.0]])
    triangles = strip(zeros[np.arange(_ROWS + 9) % len(zeros)])
    assert_same_bytes(tmp_path, write_triangle_soup, frozen_triangle_soup, triangles)
    lines = (tmp_path / "new.txt").read_text().splitlines()
    assert lines[1] == "0.0 0.0 0.0 -0.0 0.0 0.0 0.0 -0.0 0.0"


@pytest.mark.parametrize("points", [[], np.empty((0, 3))])
def test_point_cloud_of_no_points_is_the_header(tmp_path, points):
    for chunks in ([points], []):  # the array alone, and the empty stream
        write_point_cloud(tmp_path / "p.txt", chunks)
        assert (tmp_path / "p.txt").read_text() == "# x y z (scene units)\n"


@pytest.mark.parametrize("shape", [(5, 4), (5, 2), (2,), (4, 3, 2)])
def test_point_cloud_needs_three_coordinates(tmp_path, shape):
    for chunks in ([np.ones(shape)], [np.ones((2, 3)), np.ones(shape)]):  # alone, after a good one
        with pytest.raises(DomainError, match="3 coordinates"):
            write_point_cloud(tmp_path / "p.txt", chunks)


@pytest.mark.parametrize("triangles", [[], np.empty((0, 9)), np.empty((0, 3, 3))])
def test_triangle_soup_of_no_triangles_is_the_header(tmp_path, triangles):
    write_triangle_soup(tmp_path / "t.txt", triangles)
    assert (tmp_path / "t.txt").read_text() == (
        "# x1 y1 z1 x2 y2 z2 x3 y3 z3 (scene units, one triangle per line)\n")


@pytest.mark.parametrize("shape", [(3, 6), (27,), (2, 3, 6), (3,)])
def test_triangle_soup_needs_nine_coordinates(tmp_path, shape):
    # a size that is a multiple of 9 must not be read as other triangles
    with pytest.raises(DomainError, match="9 coordinates"):
        write_triangle_soup(tmp_path / "t.txt", np.arange(float(np.prod(shape))).reshape(shape))


@pytest.mark.parametrize("writer, shape", [(write_point_cloud, (2**18, 3)),
                                           (write_triangle_soup, (10**5, 3, 3))])
def test_writers_hold_one_block_of_rows(tmp_path, writer, shape):
    # 64 and 25 blocks of distinct values: a whole-file join, or one dedup over
    # the whole array, holds tens of MB (10^6 points take 12-20 s traced)
    data = np.random.default_rng(3).standard_normal(shape)
    tracemalloc.start()
    try:
        writer(tmp_path / "out.txt", [data] if writer is write_point_cloud else data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
