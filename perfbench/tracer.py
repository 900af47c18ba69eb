"""Span tracing of ghrlab's public functions, installed from outside the package.

`Tracer.install()` replaces every public function and method of ghrlab, in
every ghrlab module whose namespace holds it, with a wrapper that records one
span per call: (span id, parent span id, op id, name, start, end, amount).
Callers find the wrapper because they look the name up in their own module's
globals (`protocol.delta_table`, `cli.estimate_success`) or on the class
(`DeltaTable.aleph`, `OutcomeDistribution.sample`).  A span is named after
the function's defining module and qualified name, so `protocol.delta_table`
and `relation.delta_table` both record as `relation.delta_table`.
`uninstall()` puts the originals back.

Spans stay in memory until `collect()` derives each span's self time (its
duration minus the durations of its direct children) and folds them into
per-name totals.

Single-threaded use only: spans nest through one stack, so the workload
process runs with GHRLAB_THREADS=1.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import time

# util.map_trials runs its caller's per-trial closure.  A span around it
# would take that closure's own work (the answer check inside
# estimate_success, for one) away from the caller, so it is only counted.
COUNT_ONLY = frozenset({"util.map_trials"})


def _points(args, kwargs, result):
    return len(result.points)


# Work done per call, beyond the call itself: table cells built, CSV bytes
# written, bound grid points compared.
AMOUNTS = {
    "relation.delta_table": lambda args, kwargs, result: result.n * result.n,
    "cli.write_csv": lambda args, kwargs, result: os.path.getsize(args[2]),
    "bounds.hoeffding_dominance_report": _points,
    "bounds.chernoff_dominance_report": _points,
    "bounds.window_lower_dominance_report": _points,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def ghrlab_modules(package):
    """The package itself and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self._wrappers: dict = {}
        self._saved: list = []

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = span_name(fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if name in COUNT_ONLY:

            def wrapper(*args, **kwargs):
                spans.append((-1, -1, self.op, name, 0.0, 0.0, 0))
                return fn(*args, **kwargs)

        else:
            measure = AMOUNTS.get(name)

            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                ok = False
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    amount = measure(args, kwargs, result) if measure and ok else 0
                    spans[sid] = (sid, parent, self.op, name, start, end, amount)

        wrapper.__wrapped__ = fn
        self._wrappers[fn] = wrapper
        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        for module in ghrlab_modules(self.package):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    self._replace(module, attr, self._wrap(obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(obj)

    def _install_methods(self, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(member.__func__)))
            elif isinstance(member, staticmethod):
                self._replace(cls, attr, staticmethod(self._wrap(member.__func__)))
            elif inspect.isfunction(member):
                self._replace(cls, attr, self._wrap(member))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def collect(self) -> dict[str, list]:
        """Fold the recorded spans into {name: [calls, self_s, total_s, amount]}
        and forget them."""
        child = [0.0] * len(self.spans)
        for sid, parent, _op, _name, start, end, _amount in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for sid, _parent, _op, name, start, end, amount in self.spans:
            entry = totals.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += 1
            if sid >= 0:
                entry[1] += end - start - child[sid]
                entry[2] += end - start
            entry[3] += amount
        self.spans.clear()
        return totals
