"""Spans and counters recorded from outside the cauchys3 package.

A :class:`Tracer` replaces public entry points of the package with thin
wrappers.  Each wrapper counts its calls and, unless it is count-only,
records a span (name, start, end, parent).  Self time of a span is its
duration minus the part covered by its direct children, so a layer's
``*_s`` figure never double-counts the layers it calls.

Nothing under ``src/`` is changed: the wrappers are bound over the
module and class attributes for the life of the tracer and restored by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# (owner path, attribute, span name or None for count-only).  The owner
# path is a module, or a module plus a class name.  Entry points that a
# later version of the package removes are skipped, and their counts
# then read 0.
ENTRY_POINTS = (
    ("cauchys3.polynomial:Poly", "__call__", "polynomial.eval"),
    ("cauchys3.polynomial:Poly", "gradient", None),
    ("cauchys3.frame:ScalarField", "frame_derivative", "frame.derive"),
    ("cauchys3.frame:ScalarField", "__call__", "frame.derive"),
    ("cauchys3.frame", "flow", "frame.flow"),
    ("cauchys3.tensor", "d_nabla_A", "tensor.d_nabla"),
    ("cauchys3.tensor", "divergence_A", "tensor.d_nabla"),
    ("cauchys3.cauchy:SymEnd3Field", "matrix", None),
    ("cauchys3.cauchy:SymEnd3Field", "frame_derivative_matrix", None),
    ("cauchys3.cauchy", "flatness_residual_norms", "cauchy.flatness"),
    ("cauchys3.cauchy", "gauss_codazzi_residual", "cauchy.gauss_codazzi"),
    ("cauchys3.cauchy", "linearized_residual", "cauchy.linearized"),
    ("cauchys3.deformation", "deformation_report", "deformation.report"),
    ("cauchys3.classify", "hopf_reduction_residual", "classify.hopf_residual"),
    ("cauchys3.classify", "constant_frame_solutions_bruteforce", "classify.bruteforce"),
    ("cauchys3.classify", "s2_rigidity_residual", "classify.s2_rigidity"),
    ("cauchys3.classify", "codazzi_divfree_equiv", "classify.codazzi_equiv"),
    ("cauchys3.cylinder", "integrate", "cylinder.integrate"),
    ("cauchys3.cylinder", "reduced_rhs", None),
    ("cauchys3.cylinder", "trajectory_rows", "cylinder.export"),
    ("cauchys3.cylinder", "curvature_blowup_probe", "cylinder.probe"),
    ("cauchys3.cli", "canonical_json", "cli.serialize"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    __import__(module)
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


def _npoints(points) -> int:
    n = 1
    for d in getattr(points, "shape", (0,))[:-1]:
        n *= d
    return n


def _count_key(path: str, attr: str) -> str:
    return f"{path.split(':')[-1].rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Per-run collector of spans, self times and call counts."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (name, start, end, parent index)
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child s, span index, key]
        self._saved: list[tuple] = []
        self.enabled = True

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str, key=None):
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        if self.keep_spans:
            self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, index, key])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, index, _ = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if self.keep_spans:
            self.spans[index] = (name, start, end, self.spans[index][3])

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of code."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name, key):
        tracer = self
        poly_call = key == "Poly.__call__"
        field_call = key == "ScalarField.__call__"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counts[key] += 1
            span = name
            if poly_call:
                tracer.counts["Poly.monomial_evals"] += len(getattr(args[0], "terms", ())) * _npoints(args[1])
            elif field_call and not getattr(args[0], "_fd_depth", 0):
                span = None  # only finite-difference derivative fields are frame work
            # recursive calls (canonical_json) stay inside the outer span
            if span is None or tracer._stack and tracer._stack[-1][4] == key:
                return fn(*args, **kwargs)
            tracer._enter(span, key)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def install(self):
        """Bind wrappers over every entry point in ENTRY_POINTS."""
        for path, attr, name in ENTRY_POINTS:
            owner = _owner(path)
            orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name, _count_key(path, attr))
            self._bind(owner, attr, orig, wrapped)
            if not isinstance(owner, type):
                # names imported with `from .x import f` are bound elsewhere too
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("cauchys3") and mod is not owner:
                        for other, value in list(vars(mod).items()):
                            if value is orig:
                                self._bind(mod, other, orig, wrapped)
        return self

    def _bind(self, owner, attr, orig, wrapped):
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (correctness checks) are neither counted nor timed."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def merge(self, self_s: dict, counts: dict):
        """Add figures a traced child process reported."""
        self.self_s.update(self_s)
        self.counts.update(counts)

    # -- reading ----------------------------------------------------------
    def snapshot(self) -> tuple:
        return Counter(self.self_s), Counter(self.counts)

    def since(self, snap: tuple) -> tuple:
        """(self seconds, counts) accumulated after `snap` was taken."""
        s0, c0 = snap
        return self.self_s - s0, self.counts - c0
