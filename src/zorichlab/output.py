"""Writers for the delimited output formats.

Every file carries a leading header naming its columns and units.  Floats are
rendered with repr (shortest round trip), so identical inputs give byte
identical files.  The point-cloud and triangle writers format Python floats
one block of rows at a time, and a triangle block formats each of its distinct
vertices once.  Rows are formatted one by one, so the point-cloud writer's
stream of arrays may be cut anywhere.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .density import _points
from .errors import DomainError

# rows (points or triangles) formatted per block: bounds the Python floats and
# strings held at once
_ROWS = 2**12
# a vertex as one 24-byte key: a block's vertices are grouped by their bits, so
# 0.0 and -0.0 stay apart
_VERTEX_KEY = np.dtype((np.void, 24))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header: list[str], rows) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _lines(rows: np.ndarray) -> str:
    """The "x y z" lines of (n, 3) float rows, formatted from one list of Python floats."""
    return "%r %r %r\n" * len(rows) % tuple(rows.ravel().tolist())


def write_point_cloud(path, chunks) -> None:
    """One "x y z" triple per line, scene units, from a stream of point arrays (see _points)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# x y z (scene units)\n")
        for chunk in chunks:
            points = _points(chunk)
            for start in range(0, len(points), _ROWS):
                fh.write(_lines(points[start : start + _ROWS]))


def _triangle_lines(block: np.ndarray) -> str:
    """The lines of (n, 9) triangle rows, each distinct vertex formatted once (its
    texts are freed on return, before the write encodes the lines)."""
    block = np.ascontiguousarray(block)
    keys, slots = np.unique(block.view(_VERTEX_KEY).ravel(), return_inverse=True)
    texts = _lines(keys.view(float).reshape(-1, 3)).splitlines()
    return "%s %s %s\n" * len(block) % tuple(map(texts.__getitem__, slots.tolist()))


def write_triangle_soup(path, triangles) -> None:
    """One triangle per line as nine reals (x y z for each vertex).

    A non-empty input whose last axes are neither (3, 3) nor (9,) raises.
    """
    triangles = np.asarray(triangles, dtype=float)
    if triangles.size and triangles.shape[-1:] != (9,) and triangles.shape[-2:] != (3, 3):
        raise DomainError(f"triangles need 9 coordinates, got an array of shape {triangles.shape}")
    triangles = triangles.reshape(-1, 9)
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# x1 y1 z1 x2 y2 z2 x3 y3 z3 (scene units, one triangle per line)\n")
        for start in range(0, len(triangles), _ROWS):
            fh.write(_triangle_lines(triangles[start : start + _ROWS]))


def write_report(path, results, overall: bool) -> None:
    """One machine-parsable key=value record per line plus an overall line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# verification report: one record per line, key=value pairs\n")
        for r in results:
            fh.write(
                "check={name} claim={claim} value={value} bound={bound} "
                "tolerance={tol} pass={ok}\n".format(
                    name=r.name,
                    claim=r.claim,
                    value=_fmt(r.value),
                    bound=_fmt(r.bound),
                    tol=_fmt(r.tolerance),
                    ok=_fmt(r.passed),
                )
            )
        fh.write(
            "overall pass={ok} checks={n} failed={k}\n".format(
                ok=_fmt(overall),
                n=len(results),
                k=sum(1 for r in results if not r.passed),
            )
        )
