"""Per-layer tracing of the sinelaw package, installed from outside it.

Every public function of each layer module, and the class methods in
METHODS, is replaced by a timing wrapper. A
function imported with ``from .x import f`` is bound once per importing
module, so the wrapper is written into every ``sinelaw`` module whose
namespace holds the original object; ``sinelaw.transforms.j0_array`` and
``sinelaw.limitlaw.j0_array`` then both report as ``bessel.j0_array``.

Per layer the tracer keeps call counts, total time, and self time (the
span's duration minus the time covered by traced calls it made), plus a
few work counters read from arguments and results. Spans of the coarse
layers are kept in memory with their parent span and written out once,
at the end of a run; the hot leaf layers (J0, panels, table lookups)
are aggregated only, because they run hundreds of thousands of times.
"""

import functools
import itertools
import sys
import time
import types
from collections import Counter

# the package's modules in call order
LAYERS = ("kernels", "bessel", "quadrature", "transforms", "limitlaw",
          "inverse", "sampler", "verify", "cli")

# Class methods traced as layers of their own. Accessors such as
# eval_array, TabulatedMonotone.eval or KPsi.ensure are left to count as
# self time of their callers: they run once per integrand evaluation or
# bisection sweep, so wrapping them costs more than it shows.
METHODS = {"inverse": ("KPsi.k", "TabulatedMonotone.invert_array")}

# layers aggregated without per-call span records
_HOT = ("kernels.", "bessel.", "quadrature.", "inverse.KPsi.")


def _size(x):
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_j0_points(tracer, args, kwargs, out):
    n = _size(_arg(args, kwargs, 0, "x"))
    tracer.counts["kernels.j0_array.points"] += n
    tracer.j0_batch_sizes[n] += 1


def _count_panels(tracer, args, kwargs, out):
    value, err, panels = out
    tracer.counts["quadrature.integrate.panels"] += panels
    target = max(_arg(args, kwargs, 3, "abs_tol"),
                 _arg(args, kwargs, 4, "rel_tol", 1e-12) * abs(value))
    if err > target:
        # only reachable with raise_on_failure=False: a degraded accept
        tracer.counts["quadrature.integrate.unconverged"] += 1


def _count_terms(tracer, args, kwargs, out):
    tracer.counts["quadrature.euler_alternating.terms"] += out[2]


def _count_invert_points(tracer, args, kwargs, out):
    tracer.counts["inverse.TabulatedMonotone.invert_array.points"] += _size(
        _arg(args, kwargs, 1, "y"))


def _count_draws(tracer, args, kwargs, out):
    tracer.counts["sampler.sample_vn.draws"] += out.count
    tracer.counts["sampler.sample_vn.resamples"] += out.resamples


_COUNTERS = {
    "kernels.j0_array": _count_j0_points,
    "quadrature.integrate": _count_panels,
    "quadrature.euler_alternating": _count_terms,
    "inverse.TabulatedMonotone.invert_array": _count_invert_points,
    "sampler.sample_vn": _count_draws,
}

# counters that exist on every workload, so each reads 0 when unused
COUNTERS = ("kernels.j0_array.points", "quadrature.integrate.panels",
            "quadrature.integrate.unconverged",
            "quadrature.euler_alternating.terms",
            "inverse.TabulatedMonotone.invert_array.points",
            "sampler.sample_vn.draws", "sampler.sample_vn.resamples")


class Tracer:
    """Layer statistics and spans for one traced run."""

    def __init__(self):
        self.stats = {}      # layer name -> [calls, raised, total_s, self_s]
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.j0_batch_sizes = Counter()
        self.spans = []      # (id, parent id, name, start, end)
        self._child = [0.0]  # traced time spent in children, per open span
        self._open = [0]     # ids of the open recorded spans; 0 is the root
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        counter = _COUNTERS.get(name)
        keep_spans = not name.startswith(_HOT)
        child = self._child
        opened = self._open
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_spans:
                parent = opened[-1]
                span_id = next(self._ids)
                opened.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stats[1] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                stats[0] += 1
                stats[2] += dt
                stats[3] += dt - inner
                if keep_spans:
                    opened.pop()
                    spans.append((span_id, parent, name,
                                  t0 - self._origin, t1 - self._origin))
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return traced

    def layer(self, name):
        calls, raised, total, self_s = self.stats.get(name, (0, 0, 0.0, 0.0))
        return {"calls": calls, "raised": raised, "total_s": total,
                "self_s": self_s}

    def span_dump(self):
        return {"fields": ["id", "parent", "name", "start_s", "end_s"],
                "spans": list(self.spans)}


def _owner(obj):
    """Layer that defines obj, or None for objects outside the package."""
    mod = getattr(obj, "__module__", None) or ""
    if not mod.startswith("sinelaw."):
        return None
    layer = mod.split(".")[1]
    return layer if layer in LAYERS else None


def _is_function(obj):
    return isinstance(obj, (types.FunctionType, types.BuiltinFunctionType))


def install(tracer):
    """Wrap every public function of the layers and the METHODS.

    Must run after the package is imported and before the traced work
    starts; there is no uninstall, a traced process stays traced.
    """
    modules = {layer: sys.modules["sinelaw." + layer] for layer in LAYERS}
    replace = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or _owner(obj) != layer:
                continue
            if _is_function(obj):
                replace.setdefault(id(obj), (obj, tracer.wrap(
                    f"{layer}.{attr}", obj)))
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(f"{layer}.{path}",
                                           vars(cls)[meth]))
    # rebind the name in every module that imported the original
    for name, mod in list(sys.modules.items()):
        if name != "sinelaw" and not name.startswith("sinelaw."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
