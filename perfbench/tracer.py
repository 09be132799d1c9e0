"""Per-layer tracing from outside the package.

``Tracer`` wraps every public function of the layer modules at each module
attribute that refers to it: its home module and every ``from .x import y``
site in the package (``matclass.inverse_kernel``, ``cores.forward_transform``
and so on).  Spans are kept in memory as per-function call counts and self
time (a span's duration minus the time of the wrapped calls it made), plus a
few work counts measured at the same boundaries.  Leaving the ``with`` block
restores every patched name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["LAYERS", "Tracer"]

LAYERS = ("band_ops", "duals", "matclass", "cores", "generators", "verdicts", "io")
PACKAGE = "seqcore"
_HOOKED = ("band_ops.inverse_kernel", "matclass.e_matrix", "duals.subset_sup")


class Tracer:
    """Collects per-function spans of the package while installed."""

    def __init__(self):
        self.targets = {}  # original function -> "layer.name"
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    self.targets[obj] = f"{layer}.{name}"
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)  # extra counts: entries, bytes, distinct keys
        self.ops = 0
        self.op_wall = 0.0
        self.covered = 0.0
        self._stack: list[float] = []
        self._op_keys = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._signatures: dict = {}
        self._spec_type = importlib.import_module(f"{PACKAGE}.generators").GeneratorSpec

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.targets.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def op(self):
        """Span of one whole operation; wrapped calls inside it are its children."""
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self.op_wall += perf_counter() - start
            self.covered += self._stack.pop()
            self.ops += 1
            for name, keys in self._op_keys.items():
                self.work[name + ".distinct"] += len(keys)
            self._op_keys.clear()

    # -- wrappers ----------------------------------------------------------

    def _matrix_key(self, A):
        """Identity of a matrix argument: generator specs by value, arrays by object."""
        if isinstance(A, self._spec_type):
            return ("spec", A.name, repr(sorted(A.params.items())))
        return ("array", id(A))

    def _classify(self, name, fn, args, kwargs) -> str:
        """Work counts of the calls whose cost depends on their arguments.

        Returns the stats key: subset suprema are split by ``mode``.
        """
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if name == "band_ops.inverse_kernel":
            n = int(a["n"])
            self.work[name + ".entries"] += n * (n + 1) / 2
            self._op_keys[name].add((id(a["sys"]), n, a["method"]))
            return name
        if name == "matclass.e_matrix":
            self._op_keys[name].add((self._matrix_key(a["A"]), id(a["sys"]), int(a["n"])))
            return name
        matrix = getattr(a["matrix"], "entries", a["matrix"])
        columns = matrix.shape[1] if a["axis"] == "columns" else matrix.shape[0]
        key = f"{name}.{a['mode']}"
        self.work[key + ".max_columns"] = max(self.work[key + ".max_columns"], columns)
        return key

    def _wrap(self, fn, name):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hooked = name in _HOOKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = self._classify(name, fn, args, kwargs) if hooked else name
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - child
            if name == "io.canonical_dumps":
                self.work["io.canonical_dumps.bytes"] += len(result)
            return result

        return wrapper
