"""Span recording around gaugeforge's public functions, installed from outside.

Nothing in ``src/`` changes: ``Tracer.install`` swaps module attributes for
wrappers and ``Tracer.uninstall`` puts the originals back, so traced and
untraced jobs can alternate in one process.  A function is replaced in its
home module and in every ``gaugeforge`` module that imported it by name.
A target that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("pauli", "codes", "extraction", "spectra", "opensys", "cli")

# (module, attribute, layer); the metric prefix is "<layer>.<attribute>"
FUNCTIONS = [
    ("gaugeforge.pauli", "express_in_basis", "pauli"),
    ("gaugeforge.pauli", "gf2_rank", "pauli"),
    ("gaugeforge.pauli", "gf2_nullspace", "pauli"),
    ("gaugeforge.pauli", "gf2_solve", "pauli"),
    ("gaugeforge.codes", "build_code", "codes"),
    ("gaugeforge.codes", "distance", "codes"),
    ("gaugeforge.codes", "encode_ising", "codes"),
    ("gaugeforge.extraction", "extract_reduced_basis", "extraction"),
    ("gaugeforge.extraction", "verify_reduced_basis", "extraction"),
    ("gaugeforge.spectra", "energy_separation", "spectra"),
    ("gaugeforge.spectra", "build_full_hamiltonian", "spectra"),
    ("gaugeforge.spectra", "full_ground_energy", "spectra"),
    ("gaugeforge.opensys", "simulate_code", "opensys"),
    ("gaugeforge.opensys", "simulate_two_blocks", "opensys"),
    ("gaugeforge.opensys", "davies_generator", "opensys"),
    ("gaugeforge.opensys", "lindblad_superoperator", "opensys"),
    ("gaugeforge.opensys", "evolve", "opensys"),
    ("gaugeforge.opensys", "encode_state", "opensys"),
    ("gaugeforge.opensys", "decode_logical", "opensys"),
    ("gaugeforge.opensys", "leakage", "opensys"),
    ("gaugeforge.opensys", "entanglement_of_formation", "opensys"),
    ("gaugeforge.opensys", "trace_distance", "opensys"),
    ("gaugeforge.opensys", "purity", "opensys"),
    ("gaugeforge.cli", "main", "cli"),
]

# Solver kernels, recorded only as children of a gaugeforge span; their time
# counts towards the layer of the span that called them.
KERNELS = [
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("numpy", "einsum"),
    ("scipy.sparse", "kron"),
    ("scipy.sparse.linalg", "eigsh"),
]

COUNTS = ["spectra.sectors", "spectra.sector_dim", "spectra.eigsh_matvecs",
          "opensys.jumps", "opensys.liouvillian_nnz", "opensys.samples",
          "cli.out_bytes"]


def function_names() -> list[str]:
    return ([f"{layer}.{attr}" for _, attr, layer in FUNCTIONS]
            + [f"{mod}.{attr}" for mod, attr in KERNELS])


def _import(modname):
    try:
        return importlib.import_module(modname)
    except ImportError:
        return None


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Records spans (id, parent id, name, start, end) per job in memory and
    folds them into per-function totals when the job ends."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[tuple] = []
        self._saved: list[tuple] = []
        self.layer_of: dict[str, str] = {}
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, kernel=False, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if kernel and parent is None:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._spans.append((sid, parent, name, t0, t1))
            if on_return is not None:
                try:
                    on_return(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the counter's source changed shape; keep the job running
                    tracer.uncounted.add(name)
            return result

        return wrapper

    # -- counters read from arguments and return values ------------------

    def _on_separation(self, args, kwargs, report):
        rb = kwargs["rb"] if "rb" in kwargs else args[1]
        self.counts["spectra.sectors"] += len(report.ground_energies)
        self.counts["spectra.sector_dim"] = max(self.counts["spectra.sector_dim"],
                                                1 << rb.num_aux)

    def _on_full_hamiltonian(self, args, kwargs, op):
        matvec = op._matvec

        def counted(v):
            self.counts["spectra.eigsh_matvecs"] += 1
            return matvec(v)

        op._matvec = counted

    def _on_davies(self, args, kwargs, g):
        self.counts["opensys.jumps"] += len(g.jumps)

    def _on_liouvillian(self, args, kwargs, L):
        self.counts["opensys.liouvillian_nnz"] += int(L.nnz)

    def _on_trajectory(self, args, kwargs, traj):
        self.counts["opensys.samples"] += len(traj.metrics)

    def _on_cli_main(self, args, kwargs, rc):
        argv = list(kwargs.get("argv") or (args[0] if args else None) or ())
        for flag in ("--out", "--sector-table"):
            if flag in argv[:-1] and os.path.exists(argv[argv.index(flag) + 1]):
                self.counts["cli.out_bytes"] += os.path.getsize(argv[argv.index(flag) + 1])

    # -- install / uninstall ---------------------------------------------

    def _patch(self, module, attr, replacement):
        original = getattr(module, attr)
        targets = [module] + [m for name, m in list(sys.modules.items())
                              if m is not None and m is not module
                              and (name == "gaugeforge" or name.startswith("gaugeforge."))
                              and getattr(m, attr, None) is original]
        for m in targets:
            self._saved.append((m, attr, original))
            setattr(m, attr, replacement)

    def install(self):
        hooks = {
            "energy_separation": self._on_separation,
            "build_full_hamiltonian": self._on_full_hamiltonian,
            "davies_generator": self._on_davies,
            "lindblad_superoperator": self._on_liouvillian,
            "simulate_code": self._on_trajectory,
            "simulate_two_blocks": self._on_trajectory,
            "main": self._on_cli_main,
        }
        absent = []
        for modname, attr, layer in FUNCTIONS:
            name = f"{layer}.{attr}"
            self.layer_of[name] = layer
            module = _import(modname)
            if not callable(getattr(module, attr, None)):
                absent.append(name)
                continue
            self._patch(module, attr,
                        self._wrap(name, getattr(module, attr), on_return=hooks.get(attr)))
        for modname, attr in KERNELS:
            name = f"{modname}.{attr}"
            module = _import(modname)
            if not callable(getattr(module, attr, None)):
                absent.append(name)
                continue
            self._patch(module, attr, self._wrap(name, getattr(module, attr), kernel=True))

        # worker threads inherit the submitting span as their parent
        pool = concurrent.futures.ThreadPoolExecutor
        submit = pool.submit
        tracer = self

        def traced_submit(executor, fn, /, *args, **kwargs):
            parent = tracer._stack()[-1] if tracer._stack() else None
            if parent is None:
                return submit(executor, fn, *args, **kwargs)

            def run(*a, **kw):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **kw)
                finally:
                    stack.pop()

            return submit(executor, run, *args, **kwargs)

        self._saved.append((pool, "submit", submit))
        pool.submit = traced_submit
        self.absent = absent

    def uninstall(self):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------

    def end_job(self, job_s: float):
        """Fold the spans of one traced job into the totals."""
        spans, self._spans = self._spans, []
        children = defaultdict(list)
        by_id = {}
        for sid, parent, name, t0, t1 in spans:
            by_id[sid] = (parent, name)
            children[parent].append((t0, t1))
        for sid, parent, name, t0, t1 in spans:
            own = (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += own
            # kernels count towards the nearest gaugeforge ancestor's layer
            owner = name
            while owner not in self.layer_of and parent is not None:
                parent, owner = by_id[parent]
            self.layer_s[self.layer_of.get(owner, "other")] += own
        self.layer_s["other"] += job_s - _union_length(
            [(t0, t1) for _, parent, _, t0, t1 in spans if parent is None],
            float("-inf"), float("inf"))

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass costs: every pass runs the same jobs, so totals divided by
        the number of traced passes compare across runs of any length."""
        out = {}
        for name in function_names():
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.total_s"] = (self.total_s[name] / passes, "s")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        for name in COUNTS:
            per_pass = name != "spectra.sector_dim"  # a maximum, not a sum
            out[name] = (self.counts[name] / passes if per_pass else self.counts[name], "count")
        busy = sum(self.layer_s.values()) or 1.0
        for layer in LAYERS + ("other",):
            out[f"share.{layer}"] = (self.layer_s[layer] / busy, "frac")
        return out
