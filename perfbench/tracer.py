"""In-process spans and call counters around bibliorank's public functions.

A Tracer replaces each named function with a wrapper in every ``bibliorank``
module namespace that holds it (``from .x import y`` copies the name), or on
its class for ``module.Class.method`` names, and puts the originals back on
exit. Names that no longer exist are listed in ``absent`` instead of failing.

Span wrappers record calls, total time and self time (total minus the time of
nested spans). Count wrappers only count: they are for hot leaves, whose span
bookkeeping would distort the self times of their callers.
"""
from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "bibliorank"


def _resolve(name):
    """(owner, attribute, original) for 'module.func' or 'module.Class.method'."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(f"{PACKAGE}.{'.'.join(parts[:cut])}")
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        original = getattr(owner, parts[-1], None)
        return None if original is None else (owner, parts[-1], original)
    return None


class Tracer:
    def __init__(self, spans=(), counts=(), keyed=()):
        """`keyed` names also record their distinct argument tuples (without
        the corpus and baselines arguments) until `end_op` folds them."""
        self.spans = tuple(spans)
        self.counts_only = tuple(counts)
        self.keyed = set(keyed)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.distinct = defaultdict(int)
        self.absent = []
        self._keys = defaultdict(set)
        self._stack = []
        self._patches = []

    def _span(self, name, fn):
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            start = perf_counter()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - child
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _keyed(self, name, fn):
        sig = inspect.signature(fn)
        keys = self._keys[name]

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            keys.add(tuple(v for k, v in bound.arguments.items()
                           if k not in ("corpus", "baselines")))
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for name in self.spans + self.counts_only:
            found = _resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            inner = self._keyed(name, original) if name in self.keyed else original
            wrapped = (self._span if name in self.spans else self._count)(name, inner)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        return self

    def _patch(self, owner, attr, wrapped):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def end_op(self):
        """Fold the distinct keys seen during one CLI command into `distinct`."""
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()
