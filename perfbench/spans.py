"""Span tracing of ons_lab from outside the library.

``install()`` wraps every public function defined in the traced modules,
plus the ``KernelContext`` constructor and its ``g_values`` and
``prefix_table`` methods.  A function imported with ``from .x import name``
is bound in several module namespaces, so each namespace that holds the
original object gets the wrapper; otherwise calls made from the importing
module would go untraced.

Each wrapped call is a span with a name, a start, an end and a parent (the
span below it on the stack).  Spans are folded into totals as they close
rather than stored: per name, calls and inclusive seconds (outermost call of
that name only) plus work counts read from arguments and results; per
layer, self seconds, the time during which that layer's span was innermost.
That equals each span's duration minus the part covered by child spans of
other layers.  The library runs single-threaded unless ``ONS_LAB_THREADS``
is set, which the benchmark never does, so one stack suffices.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "analysis", "kernels", "fourier", "quadrature", "systems")

#: Attribute set on every wrapper, so a process can prove none is installed.
MARKER = "_perfbench_span"


def _entries(args, kwargs, result, before):
    return {"entries": result.size}


def _rule_breakpoints(args, kwargs, result, before):
    return {"breakpoints": len(result.breakpoints)}


def _kernel_nodes(args, kwargs, result, before):
    u = args[1] if len(args) > 1 else kwargs["u"]
    return {"nodes": int(getattr(u, "size", 1))}


def _integrate_work(args, kwargs, result, before):
    # integrate samples a coarse pass (panels_used / 2 panels) and a fine
    # pass (panels_used panels) of rule.order nodes each; an empty interval
    # returns panels_used == 1 without sampling.
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    used = result.panels_used
    nodes = 0 if used == 1 else (used + used // 2) * rule.order
    return {"nodes": nodes, "max_est_error": result.est_error}


def _prefix_cached(args):
    # the context's private cache slot, read before the call
    return args[0]._prefix_table is not None


def _prefix_hits(args, kwargs, result, before):
    return {"hits": int(before)}


#: Per span name: pre-call probe, work counter, and the keys it reports.
#: Counts add up over calls, except that a ``max_`` key keeps the largest.
COUNTERS = {
    "systems.eval_matrix": (None, _entries, ("entries",)),
    "systems.recommended_rule": (None, _rule_breakpoints, ("breakpoints",)),
    "kernels.g_values": (None, _entries, ("entries",)),
    "kernels.antiderivative_kernel": (None, _kernel_nodes, ("nodes",)),
    "kernels.prefix_table": (_prefix_cached, _prefix_hits, ("hits",)),
    "quadrature.integrate": (None, _integrate_work,
                             ("nodes", "max_est_error")),
}


class Tracer:
    """Span stack plus running totals; see the module docstring."""

    def __init__(self):
        self.stack = []                 # layer of each open span
        self.last = 0.0                 # time of the last stack change
        self.depth = defaultdict(int)   # open spans per name
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.self_s = dict.fromkeys(LAYERS, 0.0)

    def _advance(self, now: float) -> None:
        if self.stack:
            self.self_s[self.stack[-1]] += now - self.last
        self.last = now

    def wrap(self, layer: str, name: str, fn):
        before, count, keys = COUNTERS.get(name, (None, None, ()))
        stack, depth = self.stack, self.depth
        self.calls[name] = 0
        self.seconds[name] = 0.0
        for key in keys:
            self.counts[f"{name}.{key}"] = 0.0

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            now = time.perf_counter()
            self._advance(now)
            stack.append(layer)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._advance(end)
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                if depth[name] == 0:
                    self.seconds[name] += end - now
            if count is not None:
                for key, value in count(args, kwargs, result, state).items():
                    total = self.counts[f"{name}.{key}"]
                    self.counts[f"{name}.{key}"] = (
                        max(total, value) if key.startswith("max_")
                        else total + value)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARKER, name)
        return wrapper

    def report(self) -> dict:
        """Flat ``{metric: value}`` of every span total and layer self time."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]
        out.update(self.counts)
        out.update({f"{layer}.self_s": v for layer, v in self.self_s.items()})
        return out


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ons_lab" or name.startswith("ons_lab."))]


def install() -> Tracer:
    """Wrap the public functions of every traced layer; return the tracer."""
    tracer = Tracer()
    wrapped = {}                        # id(original) -> wrapper
    for layer in LAYERS:
        module = sys.modules[f"ons_lab.{layer}"]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                wrapped[id(value)] = tracer.wrap(layer, f"{layer}.{attr}", value)
    for module in _library_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])

    ctx = sys.modules["ons_lab.kernels"].KernelContext
    for attr, name in (("__init__", "kernels.KernelContext"),
                       ("g_values", "kernels.g_values"),
                       ("prefix_table", "kernels.prefix_table")):
        setattr(ctx, attr, tracer.wrap("kernels", name, vars(ctx)[attr]))
    return tracer


def installed_wrappers() -> int:
    """Number of wrappers found in library namespaces and KernelContext."""
    found = 0
    for module in _library_modules():
        found += sum(hasattr(v, MARKER) for v in vars(module).values()
                     if callable(v))
    ctx = getattr(sys.modules.get("ons_lab.kernels"), "KernelContext", None)
    if ctx is not None:
        found += sum(hasattr(v, MARKER) for v in vars(ctx).values())
    return found
