"""Spans around the calls that cross valcalc's layer boundaries.

The tracer wraps public functions of the layer modules and rebinds every
reference to them in the *other* valcalc modules, so a call that crosses from
one layer into another records a span, while calls inside one layer do not.
A few methods of ``InvariantForm`` are wrapped on the class, because the
exact layers above ``exterior`` reach it through operators and ``wedge``;
those wrappers look at the caller's module and record nothing when the call
comes from ``exterior`` itself. Nothing in the library is edited; the
rebinding lives only in this process.

Each span is ``[name, start, end, parent, op, tag]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the op id or a phase name
(``"setup"``), and ``tag`` an optional label a classifier attached (cold or
hit for ``rumin``, the body type for ``evaluate``). Spans stay in memory and
are written out when the run ends. Start and end are read from ``clock``:
run.py passes the main thread's CPU clock less the speed probe's own time.
Span times are not normalized for the machine's speed.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading

LAYERS = ("su2", "contact", "exterior", "valuation", "bodies", "kinematic", "linalg")

# methods whose callers sit in other layers but reach them through the class
CLASS_METHODS = {
    "exterior": {"InvariantForm": ("__init__", "__add__", "__sub__", "__neg__",
                                   "__mul__", "wedge")},
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.op = "setup"
        self.active = True
        self._thread = threading.get_ident()
        self._classifiers = {}

    def classify(self, name, probe, tag):
        """Label spans of ``name``: ``probe()`` runs before the call,
        ``tag(args, probed)`` after it."""
        self._classifiers[name] = (probe, tag)

    def wrap(self, name, fn, home=None):
        """Record a span per call of ``fn``, except calls from module ``home``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # worker threads (the threads=2 rerun), untimed checks and calls
            # from inside the layer pass through
            if (not tracer.active or threading.get_ident() != tracer._thread
                    or (home and sys._getframe(1).f_globals.get("__name__") == home)):
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.op, None]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            cls = tracer._classifiers.get(name)
            probed = cls[0]() if cls else None
            rec[1] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = tracer.clock()
                tracer._stack.pop()
                if cls:
                    rec[5] = cls[1](args, probed)

        return traced

    def install(self):
        """Wrap the layer boundaries; return {"module.function": wrapper}.

        The harness calls the layers through the returned wrappers, so its own
        calls record spans too.
        """
        modules = _modules()
        api = {}
        for short, attr, fn in _layer_functions(modules):
            wrapper = self.wrap(f"{short}.{attr}", fn)
            api[f"{short}.{attr}"] = wrapper
            for other_name, other in modules.items():
                if other_name == short:
                    continue
                for ref, val in list(vars(other).items()):
                    if val is fn:
                        setattr(other, ref, wrapper)
        for short, methods in CLASS_METHODS.items():
            for cls_name, names in methods.items():
                cls = getattr(modules[short], cls_name)
                for meth in names:
                    wrapper = self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth],
                                        home=modules[short].__name__)
                    setattr(cls, meth, wrapper)
        return api

    # -- reading the spans back ------------------------------------------------

    def durations(self, name, tag=None, ops_only=True):
        out = []
        for rec in self.spans:
            if rec[0] != name or (tag is not None and rec[5] != tag):
                continue
            if ops_only and not isinstance(rec[4], int):
                continue
            out.append(rec[2] - rec[1])
        return out

    def self_seconds(self):
        """Self time per layer: span time minus time covered by child spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {m: 0.0 for m in LAYERS}
        for i, rec in enumerate(self.spans):
            layer = rec[0].split(".", 1)[0]
            out[layer] += rec[2] - rec[1] - child[i]
        return out

    def child_index(self):
        kids = [[] for _ in self.spans]
        for i, rec in enumerate(self.spans):
            if rec[3] >= 0:
                kids[rec[3]].append(i)
        return kids

    def dump(self, path):
        payload = {"fields": ["name", "start", "end", "parent", "op", "tag"],
                   "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _modules():
    mods = {m: importlib.import_module(f"valcalc.{m}") for m in LAYERS}
    mods["cli"] = importlib.import_module("valcalc.cli")
    return mods


def _layer_functions(modules):
    """(layer, name, function) for each public function a layer defines."""
    for short in LAYERS:
        mod = modules[short]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                yield short, attr, obj


def plain_api():
    """The same {"module.function": function} map as ``install``, untraced."""
    return {f"{short}.{attr}": fn for short, attr, fn in _layer_functions(_modules())}


def median_or_zero(values, scale=1.0):
    """Median times ``scale``; 0.0 when the workload never made the call."""
    return statistics.median(values) * scale if values else 0.0
