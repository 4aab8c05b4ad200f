"""Span tracing of gmpflow's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds
the name in every loaded ``gmpflow.*`` module that holds it, because the
package imports by name (``cli``, ``flow`` and ``ks`` call the function
objects they imported, not attributes of the defining module).  Each
call records a span: name, start, end, parent span and job id, plus the
matrix order for the dense kernels and an argument digest for the
functions whose recomputation is measured.  Spans stay in memory until
``save``; ``layer_metrics`` derives the per-job numbers.

A span's self time is its duration minus the durations of its child
spans.  A digest is taken before the span opens, so its cost falls
in the caller's self time; the total cost of tracing is reported as
``trace.overhead_frac`` by the harness.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "cli.main"

TRACED = {
    "flow": ("flow_run", "jacobi_flow_step", "u_block", "extract_jacobi"),
    "gmp": (
        "build_block_B",
        "assemble_dense",
        "validate_gmp",
        "lambda_sharp",
        "lambda_k",
        "resolvent_column",
    ),
    "ks": (
        "delta_of_gmp",
        "telescoping_check",
        "functional_report",
        "ks_diagnostics",
        "h_term",
    ),
    "numkit": ("solve", "sym_eigen", "bisect_root"),
    "jacobi": ("kappa", "angle_plus", "lanczos_from_measure"),
    "construct": ("jacobi_to_gmp", "gmp_to_jacobi_measure"),
    "finitegap": ("delta_from_gaps",),
    "isospectral": ("solve_is_point", "is_residual"),
}
MODULES = ("cli",) + tuple(TRACED)

# Functions whose distinct-argument share is measured.
DIGESTED = frozenset({"flow.jacobi_flow_step", "ks.delta_of_gmp", "numkit.sym_eigen"})
# Dense kernels whose matrix order and operation count are recorded.
SIZED = frozenset({"numkit.solve", "numkit.sym_eigen"})


def _cost(name: str, args) -> tuple[int, float]:
    """Matrix order and floating-point operations computed from the sizes:
    LU with two triangular solves and the residual product per right-hand
    side (2n^3/3 + 4n^2 k) for ``solve``; the symmetric QR algorithm with
    eigenvectors (9n^3, Golub and Van Loan) for ``sym_eigen``."""
    shape = np.shape(args[0])
    n = int(shape[0]) if shape else 0
    if name == "numkit.solve":
        rhs = np.shape(args[1])
        k = int(rhs[1]) if len(rhs) == 2 else 1
        return n, 2.0 * n**3 / 3.0 + 4.0 * n**2 * k
    return n, 9.0 * n**3


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for field in dataclasses.fields(obj):
            _feed(h, getattr(obj, field.name))
    elif isinstance(obj, (tuple, list)):
        h.update(f"({len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    else:
        h.update(repr(obj).encode())


def digest(*objs) -> int:
    """64-bit content digest of arrays, dataclasses and plain values."""
    h = hashlib.blake2b(digest_size=8)
    _feed(h, objs)
    return int.from_bytes(h.digest(), "little", signed=True)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = [ROOT]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.failed = array("b")
        self.order = array("i")
        self.flop = array("d")
        self.digest = array("q")
        self._stack: list[int] = []
        self._job = -1
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------
    def _open(self, name_id: int, n: int = 0, flop: float = 0.0, dig: int = 0) -> int:
        i = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.failed.append(0)
        self.order.append(n)
        self.flop.append(flop)
        self.digest.append(dig)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int, failed: bool) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        if failed:
            self.failed[i] = 1

    @contextmanager
    def call(self, job_id: int):
        """Root span around one ``gmpflow.cli.main`` call of a job."""
        self._job = job_id
        i = self._open(0)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(i, failed)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        sized = name in SIZED
        digested = name in DIGESTED
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n, flop = _cost(name, args) if sized else (0, 0.0)
            dig = digest(args, kwargs) if digested else 0
            i = open_span(name_id, n, flop, dig)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                close_span(i, not ok)

        return wrapper

    # -- installation ------------------------------------------------
    def install(self) -> None:
        """Wrap the traced functions and rebind them in every gmpflow module."""
        if not self._wrappers:
            for mod_name, fnames in TRACED.items():
                module = importlib.import_module(f"gmpflow.{mod_name}")
                for fname in fnames:
                    orig = getattr(module, fname)
                    self._wrappers[id(orig)] = (orig, self._wrap(f"{mod_name}.{fname}", orig))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gmpflow" and not mod_name.startswith("gmpflow."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound = []

    # -- derivation --------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int32),
            "job": np.asarray(self.job, dtype=np.int32),
            "failed": np.asarray(self.failed, dtype=np.int8),
            "order": np.asarray(self.order, dtype=np.int32),
            "flop": np.asarray(self.flop, dtype=np.float64),
            "digest": np.asarray(self.digest, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.names, self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration minus the durations of the child spans, which nest
    strictly: spans open and close on one thread's stack."""
    duration = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.zeros_like(duration)
    np.add.at(covered, parent[child], duration[child])
    return duration - covered


def layer_metrics(names, spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-job layer metrics: ``<module>.<fn>.{calls,self_ms,unique_frac,
    n_mean,fail_frac}``, ``<module>.self_share``, ``cli.self_ms`` and
    ``numkit.gflop``."""
    name_id = spans["name_id"]
    own = self_times(spans["start_ns"], spans["end_ns"], spans["parent"])
    roots = name_id == 0
    n_jobs = max(1, np.unique(spans["job"][roots]).size)
    root_ns = float(np.sum(spans["end_ns"][roots] - spans["start_ns"][roots]))
    out: dict[str, float] = {"cli.self_ms": float(np.sum(own[roots])) / 1e6 / n_jobs}
    module_ns = dict.fromkeys(MODULES, 0.0)
    module_ns["cli"] = float(np.sum(own[roots]))
    for k, name in enumerate(names[1:], start=1):
        sel = name_id == k
        calls = int(np.sum(sel))
        self_ns = float(np.sum(own[sel]))
        module_ns[name.split(".")[0]] += self_ns
        out[f"{name}.calls"] = calls / n_jobs
        out[f"{name}.self_ms"] = self_ns / 1e6 / n_jobs
        out[f"{name}.fail_frac"] = float(np.sum(spans["failed"][sel])) / calls if calls else 0.0
        if name in SIZED:
            out[f"{name}.n_mean"] = float(np.mean(spans["order"][sel])) if calls else 0.0
        if name in DIGESTED:
            # distinct arguments within each job; no calls wastes nothing
            pairs = np.unique(np.stack([spans["job"][sel], spans["digest"][sel]]), axis=1)
            out[f"{name}.unique_frac"] = pairs.shape[1] / calls if calls else 1.0
    for module, ns in module_ns.items():
        out[f"{module}.self_share"] = ns / root_ns if root_ns else 0.0
    out["numkit.gflop"] = float(np.sum(spans["flop"])) / 1e9 / n_jobs
    return out
