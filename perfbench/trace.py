"""Spans around the calls into each advshare layer, recorded from outside.

:func:`Tracer.install` replaces each traced public function by a timing
wrapper in every ``advshare.*`` module namespace that binds it, because
``cli``, ``sim`` and ``advance`` import names directly; :func:`Tracer.disable`
puts the originals back and :func:`Tracer.enable` the wrappers again.  A generator function (``gfp.iter_span``) gets one
span per ``next()``, so its span time is the time spent producing vectors.

Spans are kept in memory as parallel arrays (name, start, end, parent, op)
and written out once, at the end of the run.  A span's self time is its
duration minus the durations of its children; since one thread makes every
call, children nest inside their parent and do not overlap.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

#: (module, attribute) of every traced function; ``Class.method`` names a
#: method.  These are the layers' public entry points named by the metrics.
TARGETS = (
    ("gfp", "rref"),
    ("gfp", "kernel"),
    ("gfp", "solve"),
    ("gfp", "iter_span"),
    ("symplectic", "symplectic_dual"),
    ("symplectic", "shorten"),
    ("symplectic", "min_symplectic_weight"),
    ("pauli", "validate_stabilizer"),
    ("pauli", "code_distance"),
    ("codefile", "parse_code_file"),
    ("advance", "is_advance_shareable"),
    ("advance", "dual_min_weight"),
    ("advance", "enumerate_advance_shareable"),
    ("advance", "construct_eaqecc"),
    ("clifford", "synthesize"),
    ("clifford", "conjugate_pauli"),
    ("clifford", "apply_circuit_tensor"),
    ("clifford", "CliffordCircuit.inverse"),
    ("sim", "classify_access"),
    ("sim", "correctable_erasure"),
    ("sim", "mutual_information_table"),
    ("sim", "entropy"),
    ("sim", "reduced_density"),
    ("sim", "simulate_protocol"),
    ("sim", "encode_advance"),
    ("sim", "erase_and_decode"),
    ("sim", "measure_pauli"),
    ("cli", "run"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_at = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_at = array("i")
        self.op = -1
        self._stack: list[int] = []
        #: work counts observed at the same boundaries as the spans
        self.counts: dict[str, int] = {}
        #: (owner, attribute, original, wrapper) per binding
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_at.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_at.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn, observe):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def produce(args, kwargs, it):
                while True:
                    idx = tracer._open(name_id)
                    try:
                        block = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    observe(args, kwargs, block)
                    yield block

            def wrapper(*args, **kwargs):
                tracer.count(name + ".calls", 1)
                return produce(args, kwargs, fn(*args, **kwargs))

        else:

            def wrapper(*args, **kwargs):
                tracer.count(name + ".calls", 1)
                idx = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                observe(args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Build the wrappers and switch them on."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if (name == "advshare" or name.startswith("advshare.")) and mod is not None
        ]
        for module_name, attr in TARGETS:
            home = sys.modules["advshare." + module_name]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                wrapper = self._wrap(name, original, self._observer(name))
                self._patches.append((owner, meth, original, wrapper))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, self._observer(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        self.enable()

    def enable(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def disable(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _observer(self, name: str):
        """Counts read off a traced call's arguments and result."""
        count = self.count
        if name == "gfp.iter_span":
            return lambda a, kw, block: count("gfp.span_vectors", len(block))
        if name == "advance.is_advance_shareable":
            return lambda a, kw, ok: count("advance.shareable_found", int(bool(ok)))
        if name == "sim.classify_access":
            return lambda a, kw, label: count(
                "sim.qualified_found", int(label.value == "qualified")
            )
        if name == "clifford.apply_circuit_tensor":
            return lambda a, kw, out: count(
                "clifford.gates_applied", len(kw["circuit"] if "circuit" in kw else a[1])
            )
        if name == "clifford.CliffordCircuit.inverse":
            return lambda a, kw, circuit: count("clifford.inverse_gates", len(circuit))
        return lambda a, kw, result: None

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies: a live buffer view would stop the arrays from growing.
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name": np.array(self.name_at, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op_at, dtype=np.int32),
            "self": dur - child,
        }

    def self_times(self, ops=None) -> dict[str, float]:
        """Self time per traced function, over all ops or the given ones."""
        a = self.arrays()
        keep = np.ones(a["op"].shape, dtype=bool) if ops is None else np.isin(a["op"], list(ops))
        totals = np.bincount(a["name"][keep], weights=a["self"][keep], minlength=len(self.names))
        return {name: float(t) for name, t in zip(self.names, totals)}

    def write(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)
