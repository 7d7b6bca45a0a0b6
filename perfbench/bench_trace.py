"""Per-layer tracing installed on limitcone from outside the library.

A `Tracer` replaces every public function of the layer modules, and every
public method of their public classes, with a wrapper that counts calls and
accumulates self time (span time minus the time of nested wrapped spans) on
the clock it is given.  A name that a sibling module imported
(``compound_matrix`` in ``limits`` and ``schottky``, say) is replaced there
too, so calls are seen whichever module makes them.  Nothing under ``src/``
is edited; `uninstall` puts the original objects back.

Spans are aggregated per callable as they close rather than stored, because
the point-dedup workload makes about two million ``proj_distance`` calls.
"""

import inspect
import sys
from collections import defaultdict

LAYERS = ("cli", "limits", "projgeom", "projections", "cones", "proximality", "schottky")


def word_count(letters: int, kind: str, max_length: int) -> int:
    """Reduced words of length 1..max_length over `letters` generators."""
    if kind == "group":
        a, step = 2 * letters, 2 * letters - 1
    else:
        a, step = letters, letters
    total, run = 0, a
    for _ in range(max_length):
        total += run
        run *= step
    return total


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Extra counts taken where the work happens: (fn, args, kwargs, result, failed)
# -> {metric suffix: increment}.  `result` is None when the call raised.
def _enumerate_words(fn, args, kwargs, result, failed):
    return {} if failed else {"words": len(result)}


def _estimate_cone(fn, args, kwargs, result, failed):
    if failed:
        return {}
    # one candidate direction per processed word; `directions` holds the kept ones
    return {
        "directions_in": len(result.per_word_mu_lambda_gap),
        "directions_kept": len(result.directions),
    }


def _estimate_limit_set(fn, args, kwargs, result, failed):
    if failed:
        return {}
    words = _arg(fn, args, kwargs, "words")
    sampler = _arg(fn, args, kwargs, "sampler")
    if words is not None:
        count = len(words)
    elif sampler.strategy == "random":
        count = sampler.count
    else:
        count = word_count(len(sampler.generators), sampler.kind, sampler.max_length)
    # one candidate point per processed word and exterior degree
    return {
        "points_in": count * len(result.points),
        "points_kept": sum(len(c) for c in result.points),
    }


def _certify_matrix(fn, args, kwargs, result, failed):
    mode = _arg(fn, args, kwargs, "mode")
    return {f"{mode}.calls": 1, f"{mode}.errors": int(failed)}


def _sampled_check(fn, args, kwargs, result, failed):
    return {"samples": _arg(fn, args, kwargs, "sample_count")}


OBSERVERS = {
    "limits.enumerate_words": _enumerate_words,
    "limits.estimate_cone": _estimate_cone,
    "limits.estimate_limit_set": _estimate_limit_set,
    "proximality.certify_matrix_eps_proximal": _certify_matrix,
    "proximality.sampled_contraction_check": _sampled_check,
}


class Tracer:
    """Counts and self times per wrapped callable, keyed ``<layer>.<qualname>``."""

    def __init__(self, clock):
        self.clock = clock  # returns seconds; the benchmark passes reference seconds
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # one [child seconds] cell per open span
        self._patches = []  # (owner, attribute, original object)

    def _wrap(self, key, fn):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        observe = OBSERVERS.get(key)
        clock = self.clock

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            result, failed = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - cell[0]
                if observe is not None:
                    for suffix, inc in observe(fn, args, kwargs, result, failed).items():
                        counts[f"{key}.{suffix}"] += inc

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the public callables of every layer module, wherever they are bound."""
        package = [m for name, m in sys.modules.items() if name == "limitcone" or name.startswith("limitcone.")]
        for layer in LAYERS:
            mod = sys.modules[f"limitcone.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for m in package:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_methods(f"{layer}.{name}", obj)

    def _install_methods(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(key, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(key, raw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_self_s(self, layer) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
