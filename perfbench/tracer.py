"""Outside-in tracer: wraps zorichlab's public functions from the benchmark side.

Nothing in the package is edited.  `Tracer.install` replaces each target
function by a wrapper in every zorichlab module that holds it (several names
are imported by value, e.g. `h_extended` lives in both `zorich` and
`density`), records one span per call (name, start, end, parent) plus a few
counts taken from the arguments and the result, and `Tracer.uninstall` puts
every original back.  `installed_wrappers` finds any wrapper left behind.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

WRAPPER_FLAG = "__perfbench_wrapper__"

VERIFY_CHECKS = (
    "norm_law", "group_invariance", "fiber_transitivity", "inverse_roundtrip",
    "cone_level", "face_flatness", "boundary_distance", "separation_gap",
    "sector_ratio", "width_window", "preimage_disk", "wall_projection",
    "slab_distortion", "face_projection_distortion", "strip_intersection",
    "area_transport", "coverage_trend", "density_trend",
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _rows(x, width):
    import numpy as np  # here, so that run.py can import PER_LAYER without numpy

    return int(np.size(x)) // width


def _file_bytes(args, kwargs):
    return Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _h_extended(args, kwargs, result):
    return {"points": _rows(_arg(args, kwargs, 0, "p"), 2)}


def _adaptive_trace(args, kwargs, result):
    a = result.audit
    return {
        "evals": a.evals,
        "budget_hits": int(a.evals >= _arg(args, kwargs, 2, "budget")),
        "dropped_overflow": a.dropped_overflow,
        "dropped_unresolvable": a.dropped_unresolvable,
        "cap_hits": a.cap_hits,
        "in_box_points": a.in_box_points,
    }


def _hits_ball(args, kwargs, result):
    return {"hits": int(result.hit)}


def _mark(args, kwargs, result):
    return {"points": _rows(_arg(args, kwargs, 1, "points"), 3)}


def _cone_mesh(args, kwargs, result):
    return {"triangles": len(result)}


def _relative_distortion(args, kwargs, result):
    from zorichlab import distortion

    dirs = _arg(args, kwargs, 4, "directions")
    n_dirs = len(dirs) if dirs is not None else _arg(
        args, kwargs, 3, "n_dirs", distortion.DEFAULT_DIRECTIONS)
    return {"probes": result.sample_count * (n_dirs + 1)}


def _grid_count_measures(args, kwargs, result):
    return {"cells": _arg(args, kwargs, 4, "cells_per_axis") ** len(_arg(args, kwargs, 2, "box_lo"))}


def _point_cloud(args, kwargs, result):
    return {"rows": _rows(_arg(args, kwargs, 1, "points"), 3), "bytes": _file_bytes(args, kwargs)}


def _triangle_soup(args, kwargs, result):
    return {"rows": _rows(_arg(args, kwargs, 1, "triangles"), 9), "bytes": _file_bytes(args, kwargs)}


def _sha256_of(args, kwargs, result):
    return {"bytes": _file_bytes(args, kwargs)}


# (module, attribute, span name, counter); a dotted attribute is a method
TARGETS = [
    ("zorichlab.zorich", "h_extended", "zorich.h_extended", _h_extended),
    ("zorichlab.density", "adaptive_trace", "density.adaptive_trace", _adaptive_trace),
    ("zorichlab.density", "hits_ball", "density.hits_ball", _hits_ball),
    ("zorichlab.density", "base_sequence", "density.base_sequence", None),
    ("zorichlab.density", "VoxelGrid.mark", "density.VoxelGrid.mark", _mark),
    ("zorichlab.density", "mark_and_coverage", "density.mark_and_coverage", None),
    ("zorichlab.preimage", "ray_cone_intersect", "preimage.ray_cone_intersect", None),
    ("zorichlab.preimage", "cone_mesh", "preimage.cone_mesh", _cone_mesh),
    ("zorichlab.distortion", "relative_distortion", "distortion.relative_distortion",
     _relative_distortion),
    ("zorichlab.distortion", "lambda_h_estimate", "distortion.lambda_h_estimate", None),
    ("zorichlab.distortion", "grid_count_measures", "distortion.grid_count_measures",
     _grid_count_measures),
    ("zorichlab.group", "apply", "group.apply", None),
    ("zorichlab.output", "write_point_cloud", "output.write_point_cloud", _point_cloud),
    ("zorichlab.output", "write_triangle_soup", "output.write_triangle_soup", _triangle_soup),
    ("zorichlab.output", "write_csv", "output.write_csv", None),
    ("zorichlab.output", "write_report", "output.write_report", None),
    ("zorichlab.manifest", "sha256_of", "manifest.sha256_of", _sha256_of),
    ("zorichlab.cli", "main", "cli.main", None),
] + [("zorichlab.verify", f"check_{c}", f"verify.{c}", None) for c in VERIFY_CHECKS]

# every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    "zorich.h_extended.calls": "count",
    "zorich.h_extended.points": "count",
    "zorich.h_extended.busy_s": "s",
    "zorich.h_extended.points_per_s": "1/s",
    "density.adaptive_trace.calls": "count",
    "density.adaptive_trace.busy_s": "s",
    "density.adaptive_trace.self_s": "s",
    "density.adaptive_trace.evals": "count",
    "density.adaptive_trace.budget_hits": "count",
    "density.adaptive_trace.dropped_overflow": "count",
    "density.adaptive_trace.dropped_unresolvable": "count",
    "density.adaptive_trace.cap_hits": "count",
    "density.adaptive_trace.in_box_fraction": "ratio",
    "density.hits_ball.calls": "count",
    "density.hits_ball.busy_s": "s",
    "density.hits_ball.hit_fraction": "ratio",
    "density.base_sequence.busy_s": "s",
    "density.VoxelGrid.mark.calls": "count",
    "density.VoxelGrid.mark.points": "count",
    "density.VoxelGrid.mark.busy_s": "s",
    "density.mark_and_coverage.busy_s": "s",
    "preimage.ray_cone_intersect.calls": "count",
    "preimage.ray_cone_intersect.busy_s": "s",
    "preimage.ray_cone_intersect.self_s": "s",
    "preimage.ray_cone_intersect.failed": "count",
    "preimage.cone_mesh.triangles": "count",
    "preimage.cone_mesh.busy_s": "s",
    "distortion.relative_distortion.calls": "count",
    "distortion.relative_distortion.probes": "count",
    "distortion.relative_distortion.busy_s": "s",
    "distortion.relative_distortion.self_s": "s",
    "distortion.lambda_h_estimate.busy_s": "s",
    "distortion.grid_count_measures.cells": "count",
    "distortion.grid_count_measures.busy_s": "s",
    "group.apply.calls": "count",
    "group.apply.busy_s": "s",
    "output.write_point_cloud.rows": "count",
    "output.write_point_cloud.bytes": "B",
    "output.write_point_cloud.busy_s": "s",
    "output.write_triangle_soup.rows": "count",
    "output.write_triangle_soup.bytes": "B",
    "output.write_triangle_soup.busy_s": "s",
    "output.write_csv.busy_s": "s",
    "output.write_report.busy_s": "s",
    "manifest.sha256_of.bytes": "B",
    "manifest.sha256_of.busy_s": "s",
    **{f"verify.{c}.busy_s": "s" for c in VERIFY_CHECKS},
    "cli.main.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.tracing_overhead_s": "s",
}


class Tracer:
    """Spans and counts of one traced call tree, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counts, failed]
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, {}, False]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper

    def install(self):
        """Wrap every target wherever a zorichlab module holds it."""
        # import everything first: a module imported later would copy a wrapper
        modules = {m: importlib.import_module(m) for m, _, _, _ in TARGETS}
        for mod_name, attr, name, counter in TARGETS:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patched.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for holder in _zorichlab_modules():
                if vars(holder).get(attr) is original:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the recorded spans (0 for layers not reached)."""
        n = len(self.spans)
        child_time = [0.0] * n
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        calls, busy, self_s, failed, counts = {}, {}, {}, {}, {}
        for i, (name, t0, t1, parent, cnt, err) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            failed[name] = failed.get(name, 0) + int(err)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
            if not _has_ancestor(self.spans, parent, name):
                busy[name] = busy.get(name, 0.0) + (t1 - t0)
            for key, value in cnt.items():
                counts[(name, key)] = counts.get((name, key), 0) + value

        out = {}
        for metric in PER_LAYER:
            layer, stat = metric.rsplit(".", 1)
            if stat == "calls":
                out[metric] = calls.get(layer, 0)
            elif stat == "busy_s":
                out[metric] = busy.get(layer, 0.0)
            elif stat == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif stat == "failed":
                out[metric] = failed.get(layer, 0)
            elif layer != "bench" and stat not in ("points_per_s", "in_box_fraction", "hit_fraction"):
                out[metric] = counts.get((layer, stat), 0)
        h = "zorich.h_extended"
        out[f"{h}.points_per_s"] = _ratio(out[f"{h}.points"], out[f"{h}.busy_s"])
        t = "density.adaptive_trace"
        out[f"{t}.in_box_fraction"] = _ratio(
            counts.get((t, "in_box_points"), 0), out[f"{t}.evals"])
        b = "density.hits_ball"
        out[f"{b}.hit_fraction"] = _ratio(counts.get((b, "hits"), 0), out[f"{b}.calls"])
        out["bench.traced_wall_s"] = wall_s
        return out


def _ratio(a, b):
    return a / b if b else 0.0


def _has_ancestor(spans, index, name):
    while index is not None:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _zorichlab_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "zorichlab" or k.startswith("zorichlab."))]


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from any zorichlab module or class."""
    found = []
    for module in _zorichlab_modules():
        for attr, value in vars(module).items():
            if getattr(value, WRAPPER_FLAG, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPER_FLAG, False):
                        found.append(f"{module.__name__}.{attr}.{meth}")
    return found
