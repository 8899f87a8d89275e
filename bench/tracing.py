"""Span tracing for the benchmark, installed from outside the library.

Each traced layer is timed by replacing one public function with a wrapper
at the attribute its caller actually looks up: `evolve` is bound into
`cli`, `steady` and `evolution` separately, so all three names are
wrapped; `helmholtz_solve` is wrapped where `operators` reads it; the
operator methods are wrapped on the class.  No library file changes.

A span records its name, start, end, parent and the id of the run it
belongs to.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its direct
children; the library's untraced helpers (gradient, divergence, norms)
count toward the nearest traced caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from contextlib import contextmanager

LAYERS = ("cli", "steady", "evolution", "operators", "grid", "models", "lorentz")
RESOLVE = "operators.resolve_detailed"

# Work counts derived from array sizes; they ignore caches, so they are
# labelled "computed" wherever they are printed.
_BYTES = 8


def _flux_work(attrs, args, kwargs, result):
    dom = args[0].domain
    faces = sum(math.prod(dom.face_shape(a)) for a in range(dom.dim))
    attrs["faces"] = faces
    # read the node values, write one value per face
    attrs["bytes"] = _BYTES * (dom.interior_count + faces)


def _helmholtz_work(attrs, args, kwargs, result):
    rhs = kwargs["rhs"] if "rhs" in kwargs else args[1]
    attrs["points"] = rhs.size
    # read the right-hand side, write the solution
    attrs["bytes"] = 2 * _BYTES * rhs.size


def _iterations(attrs, args, kwargs, result):
    attrs["iters"] = result[1].iterations


def _steps(attrs, args, kwargs, result):
    attrs["steps"] = len(result[1].times)


# (module, class or None, attribute, span name, observer of the result)
PATCHES = (
    ("driftflow.cli", None, "run", "cli.run", None),
    ("driftflow.models", None, "make_model", "models.make_model", None),
    ("driftflow.models", None, "make_truncation_plan", "models.make_truncation_plan", None),
    ("driftflow.models", None, "certify_truncation", "models.certify_truncation", None),
    ("driftflow.lorentz", None, "weak_norm_of_values", "lorentz.weak_norm_of_values", None),
    ("driftflow.operators", "TruncatedOperator", "flux", "operators.flux", _flux_work),
    ("driftflow.operators", "TruncatedOperator", "apply", "operators.apply", None),
    ("driftflow.operators", "TruncatedOperator", "resolve_detailed", RESOLVE, _iterations),
    ("driftflow.operators", None, "helmholtz_solve", "grid.helmholtz_solve", _helmholtz_work),
    ("driftflow.cli", None, "evolve", "evolution.evolve", _steps),
    ("driftflow.steady", None, "evolve", "evolution.evolve", _steps),
    ("driftflow.evolution", None, "evolve", "evolution.evolve", _steps),
    ("driftflow.cli", None, "continuation", "evolution.continuation", None),
    ("driftflow.cli", None, "decay_experiment", "steady.decay_experiment", None),
    ("driftflow.steady", None, "stationary_solve", "steady.stationary_solve", _iterations),
    ("driftflow.steady", None, "poincare_constant", "steady.poincare_constant", None),
)

_MARK = "__bench_span__"


class Tracer:
    """In-memory span recorder for one process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = True
        # each span is [name, parent index or -1, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, time.perf_counter(), 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield rec[4]
        finally:
            self.close(rec)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": i,
                            "name": name,
                            "parent": parent,
                            "start": start,
                            "end": end,
                            **attrs,
                        }
                    )
                    + "\n"
                )


def _wrap(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            rec[4]["error"] = type(err).__name__
            raise
        finally:
            tracer.close(rec)
        if observe is not None:
            observe(rec[4], args, kwargs, result)
        return result

    setattr(wrapper, _MARK, name)
    return wrapper


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def install(tracer: Tracer) -> None:
    """Wrap every patch point; call once per process, before any work."""
    for module, cls, attr, name, observe in PATCHES:
        owner = _owner(module, cls)
        setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, observe))


def installed_count() -> int:
    """How many patch points currently hold a tracing wrapper."""
    return sum(
        hasattr(getattr(_owner(module, cls), attr), _MARK)
        for module, cls, attr, _, _ in PATCHES
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[list]) -> tuple[dict[str, float], list[tuple]]:
    """Per-layer metrics and the self-time table of one traced run."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    in_resolve = [False] * n
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_resolve[i] = in_resolve[parent] or spans[parent][0] == RESOLVE
    own = [d - c for d, c in zip(dur, child)]
    roots = sum(d for d, s in zip(dur, spans) if s[1] < 0)

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, values=dur):
        return sum(values[i] for i in by_name.get(name, ()))

    def attr(name, key):
        return sum(spans[i][4].get(key, 0) for i in by_name.get(name, ()))

    flux = "operators.flux"
    helm = "grid.helmholtz_solve"
    evolve = "evolution.evolve"
    resolve_calls = calls(RESOLVE)
    iters = attr(RESOLVE, "iters")
    residual_evals = sum(1 for i in by_name.get("operators.apply", ()) if in_resolve[i])
    faces = attr(flux, "faces")
    points = attr(helm, "points")
    steps = attr(evolve, "steps")
    flux_in_resolve = sum(dur[i] for i in by_name.get(flux, ()) if in_resolve[i])

    m = {
        "operators.flux_s": total(flux),
        "operators.flux_calls": calls(flux),
        "operators.flux_ns_per_face": _ratio(1e9 * total(flux), faces),
        "operators.flux_faces_per_call": _ratio(faces, calls(flux)),
        "operators.flux_computed_mb": attr(flux, "bytes") / 1e6,
        "operators.flux_share_of_resolve": _ratio(flux_in_resolve, total(RESOLVE)),
        "operators.apply_calls": calls("operators.apply"),
        "operators.apply_us_per_call": _ratio(1e6 * total("operators.apply"), calls("operators.apply")),
        "operators.resolve_calls": resolve_calls,
        "operators.picard_iters": iters,
        "operators.picard_iters_per_resolve": _ratio(iters, resolve_calls),
        "operators.residual_evals": residual_evals,
        "operators.backtracks": residual_evals - resolve_calls - iters,
        "operators.accept_ratio": _ratio(iters, residual_evals - resolve_calls),
        "operators.resolve_self_s": total(RESOLVE, own),
        "operators.resolve_failures": sum(
            1 for i in by_name.get(RESOLVE, ()) if "error" in spans[i][4]
        ),
        "grid.helmholtz_calls": calls(helm),
        "grid.helmholtz_us_per_call": _ratio(1e6 * total(helm), calls(helm)),
        "grid.helmholtz_points": points,
        "grid.helmholtz_points_per_call": _ratio(points, calls(helm)),
        "grid.helmholtz_computed_mb": attr(helm, "bytes") / 1e6,
        "evolution.evolve_calls": calls(evolve),
        "evolution.steps": steps,
        "evolution.self_ms_per_step": _ratio(1e3 * total(evolve, own), steps),
        "steady.decay_experiment_s": total("steady.decay_experiment"),
        "steady.stationary_solve_s": total("steady.stationary_solve"),
        "steady.stationary_iters": attr("steady.stationary_solve", "iters"),
        "steady.poincare_s": total("steady.poincare_constant"),
        "models.plan_s": total("models.make_truncation_plan"),
        "models.certify_calls": calls("models.certify_truncation"),
        "lorentz.weak_norm_calls": calls("lorentz.weak_norm_of_values"),
        "lorentz.weak_norm_s": total("lorentz.weak_norm_of_values"),
    }
    for layer in LAYERS:
        self_s = sum(own[i] for i, s in enumerate(spans) if s[0].split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.self_share"] = _ratio(self_s, roots)

    table = sorted(
        (
            (name, len(idx), total(name), total(name, own), _ratio(total(name, own), roots))
            for name, idx in by_name.items()
        ),
        key=lambda row: -row[3],
    )
    return m, table
