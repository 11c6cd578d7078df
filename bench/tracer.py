"""Outside-in tracing of the amdp_lab layers.

Every public function of every module (and every public method of a public
class) is wrapped, and the wrapper is bound in every amdp_lab namespace that
held the original, because modules import each other's functions with
``from .x import f``.  A call records a span (name, start, end, parent, op id)
in memory; spans are written out when the run ends.  Private helpers are not
wrapped, so their time stays in their callers' self time.

Counters are taken at the same boundaries:

* ``chains.policies_enumerated``: sum of A^S over ``all_deterministic_policies``
* ``generative.samples_drawn``: next-state draws by ``sample_batch``
* ``reduction.certificates_evaluated`` / ``_failed``: certificates the CLI
  writes through ``write_certificates_csv``, and how many of them failed
* ``<fn>.repeat_frac`` for the functions in REPEAT_TRACKED: the share of
  calls whose instance and arguments repeat an earlier call in the same op
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("mdp", "chains", "solvers", "generative", "reduction",
           "hard_instances", "corpus", "cli")

REPEAT_TRACKED = (
    "solvers.dmdp_value_iteration",
    "solvers.amdp_optimal",
    "solvers.amdp_gain_bias",
    "solvers.dmdp_policy_value",
    "solvers.relative_value_iteration",
    "chains.min_expected_hitting_times",
)


def _fingerprint(obj, h) -> None:
    """Feed a canonical encoding of an argument value into hash ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.compare:
                _fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _fingerprint(item, h)
    elif isinstance(obj, (int, float, str, bool, type(None), np.generic)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"no fingerprint for {type(obj).__name__}")


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counters: dict[str, int] = defaultdict(int)
        self.repeats: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        # counters and the repeat set are updated from experiment worker threads
        self._lock = threading.Lock()
        self._op = None
        self._root_stack: list[int] | None = None
        self._seen: set[bytes] = set()
        self._restore: list[tuple[object, str, object]] = []
        self.names: set[str] = set()

    # -- op scope ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._seen = set()

    def end_op(self) -> None:
        self._op = None

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in REPEAT_TRACKED else None
        on_return = _ON_RETURN.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span hangs off the span that is
                # waiting for it in the thread that opened the op
                root_stack = self._root_stack
                parent = root_stack[-1] if root_stack else 0
                if root_stack is None:
                    self._root_stack = stack
            span_id = next(self._ids)
            if signature is not None:
                self._note_repeat(name, signature, args, kwargs)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if not stack and self._root_stack is stack:
                    self._root_stack = None
                self.spans.append((span_id, name, start, end, parent, self._op))
            if on_return is not None:
                with self._lock:
                    on_return(self.counters, args, kwargs, result)
            return result

        return traced

    def _note_repeat(self, name, signature, args, kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        h = hashlib.blake2b(name.encode(), digest_size=16)
        for key, value in bound.arguments.items():
            h.update(key.encode())
            _fingerprint(value, h)
        digest = h.digest()
        with self._lock:
            if digest in self._seen:
                self.repeats[name] += 1
            else:
                self._seen.add(digest)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method (their span names go to
        ``names``)."""
        package = importlib.import_module("amdp_lab")
        modules = {name: importlib.import_module(f"amdp_lab.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(
                                f"{short}.{attr}.{meth}", fn))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- counters taken on return ---------------------------------------------


def _count_policies(counters, args, kwargs, result) -> None:
    counters["chains.policies_enumerated"] += len(result)


def _count_samples(counters, args, kwargs, result) -> None:
    counters["generative.samples_drawn"] += len(result)


def _count_certificates(counters, args, kwargs, result) -> None:
    certs = args[0] if args else kwargs["certs"]
    counters["reduction.certificates_evaluated"] += len(certs)
    counters["reduction.certificates_failed"] += sum(not c.passed for c in certs)


_ON_RETURN = {
    "chains.all_deterministic_policies": _count_policies,
    "generative.GenerativeModel.sample_batch": _count_samples,
    "reduction.write_certificates_csv": _count_certificates,
}


# -- analysis ---------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of it that its
    child spans cover (children in worker threads may overlap each other)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())]
        out[span_id] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out
