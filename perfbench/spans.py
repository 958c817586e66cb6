"""Span recorder for the benchmark, installed from outside the library.

`Tracer.install` replaces every binding of a public mmpsim function in the
loaded ``mmpsim`` modules (the defining module, the package namespace and
every module that imported the name) by a wrapper that records a span:
id, name, start, end, parent id and a few attributes.  numpy's FFT entry
points are wrapped the same way; their spans carry the number of
scalar-3D-equivalent transforms and the bytes read and written, computed
from the array sizes.  Spans stay in memory until `dump`.

A target whose module or attribute no longer exists is listed in
`Tracer.absent` instead of raising, so a refactor that renames a public
function makes its layer read as absent rather than crash the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

FFT = "spectral.fft"
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn")

# (span name, module, attribute path).  The prefix of the span name is the
# layer: the mmpsim module the function belongs to.
TARGETS = (
    ("config.parse_config", "mmpsim.config", "parse_config"),
    ("fields.make_random_state", "mmpsim.fields", "make_random_state"),
    ("spectral.forward_transform", "mmpsim.spectral", "forward_transform"),
    ("spectral.inverse_transform", "mmpsim.spectral", "inverse_transform"),
    ("dynamics.rhs", "mmpsim.dynamics", "rhs"),
    ("dynamics.explicit_rhs_arrays", "mmpsim.dynamics", "explicit_rhs_arrays"),
    ("dynamics.stiff_symbols", "mmpsim.dynamics", "stiff_symbols"),
    ("dynamics.propagator", "mmpsim.dynamics", "StiffSymbols.propagator"),
    ("dynamics.propagator_apply", "mmpsim.dynamics", "StiffPropagator.apply"),
    ("dynamics.energy_flux_audit", "mmpsim.dynamics", "energy_flux_audit"),
    ("integrator.run", "mmpsim.integrator", "run"),
    ("integrator.step", "mmpsim.integrator", "step"),
    ("integrator.stable_dt", "mmpsim.integrator", "stable_dt"),
    ("norms.compute_record", "mmpsim.norms", "compute_record"),
    ("checkpoint.save_checkpoint", "mmpsim.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "mmpsim.checkpoint", "load_checkpoint"),
    ("diagio.write_diagnostics", "mmpsim.diagio", "write_diagnostics"),
    ("cli.cli_main", "mmpsim.cli", "cli_main"),
)

# The untraced run times steps only.
STEP_TARGETS = tuple(t for t in TARGETS if t[0] == "integrator.step")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(fn, name):
    """Return a function that picks argument ``name`` out of a call."""
    sig = inspect.signature(fn)

    def pick(args, kwargs):
        return sig.bind(*args, **kwargs).arguments.get(name)
    return pick


def _annotator(name, fn):
    """Attributes recorded on a span, computed after the call returns."""
    if name == "integrator.step":
        dt = _arg(fn, "dt")
        return lambda args, kwargs, result: {"dt": dt(args, kwargs)}
    if name == "fields.make_random_state":
        return lambda args, kwargs, result: {"state_bytes": sum(
            f.coeffs.nbytes for f in (result.u, result.omega, result.magnetic))}
    if name == "checkpoint.save_checkpoint":
        path = _arg(fn, "path")
        return lambda args, kwargs, result: {
            "bytes": os.path.getsize(path(args, kwargs))}
    if name == "diagio.write_diagnostics":
        records = _arg(fn, "records")
        return lambda args, kwargs, result: {
            "rows": len(records(args, kwargs))}
    return None


def _fft_annotator(fn):
    """Scalar-3D-equivalent transforms (the product of the untransformed
    axes) and bytes in plus bytes out."""
    sig = inspect.signature(fn)
    params = list(sig.parameters)
    s_pos, axes_pos = params.index("s"), params.index("axes")

    def annotate(args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        s = args[s_pos] if len(args) > s_pos else kwargs.get("s")
        axes = args[axes_pos] if len(args) > axes_pos else kwargs.get("axes")
        ndim = a.ndim
        if axes is None:
            axes = range(ndim - len(s), ndim) if s is not None else range(ndim)
        transformed = {ax % ndim for ax in axes}
        batch = 1
        for ax, size in enumerate(a.shape):
            if ax not in transformed:
                batch *= size
        return {"calls": batch, "bytes": a.nbytes + result.nbytes}
    return annotate


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the block.  Yields the span's attribute
        dict, which may be filled in after the block has ended."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, attrs))

    def _wrap(self, name, fn, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if annotate:
                attrs.update(annotate(args, kwargs, result))
            return result
        return wrapper

    def _rebind(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "mmpsim":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, targets=TARGETS, fft: bool = True) -> None:
        for name, module_name, path in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._rebind(owner, attr, original,
                         self._wrap(name, original, _annotator(name, original)))
        if fft:
            import numpy.fft
            for fname in FFT_FUNCS:
                original = getattr(numpy.fft, fname)
                self._rebind(numpy.fft, fname, original,
                             self._wrap(FFT, original, _fft_annotator(original)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
