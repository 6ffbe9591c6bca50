"""Spans and counters recorded from outside the besselmap package.

The tracer replaces public functions of the package modules with wrappers
that record one span per call: (name, start, end, parent).  Spans are kept
in memory for the operation in progress; ``end_op`` folds them into
per-name totals (calls, total time, self time) and keeps the raw spans of
the first few operations so they can be written out when the run ends.
Self time is a span's duration minus the time its child spans cover.

Wrapping is done by name in every package module that holds the same
function object, so names that one module re-binds from another on import
(``identities`` imports most of ``specfun``) are traced too.  ``restore``
puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from besselmap import logseries, sonine

_perf = time.perf_counter

# Functions wrapped with a span, by defining module; the span is named
# "<layer>.<attribute>", the layer being the last module-name component.
SPANNED = {
    "besselmap.specfun": (
        "bessel_j",
        "neumann",
        "hankel",
        "k_bessel",
        "log_reduced_j",
        "neumann_scaled_table",
        "lambda_taylor_target",
        "reduced_j_series",
        "bessel_t_series",
        "neumann_t_series",
        "hankel_t_series",
    ),
    "besselmap.sigmaop": ("apply_sigma", "lambda_coefficients", "apply_exp_sigma"),
    "besselmap.sonine": ("z_function", "a_function", "bilinear_check"),
    "besselmap.identities": (
        "check_eq11",
        "check_eq9_real",
        "check_eq3prime_order",
        "check_eq15_order",
        "check_eq18_order",
        "check_integer_shift",
        "check_eq2_roundtrip",
        "check_eq3_closure",
        "check_eq14_kernel",
        "run_suite",
    ),
    "besselmap.cli": ("main",),
}
SPANNED_METHODS = ("derivative", "antiderivative", "add", "evaluate")

KEEP_OPS = 1  # operations whose raw spans are kept and written out

# Functions whose EvalResult.effort is summed per name.
_EFFORT = {
    "specfun.bessel_j",
    "specfun.neumann",
    "specfun.k_bessel",
    "sonine.z_function",
    "sonine.a_function",
}


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index] of the current op
        self.kept: list[dict] = []  # raw spans of the first KEEP_OPS operations
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._open: list[int] = []  # indices of the spans still running
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "besselmap" or n.startswith("besselmap.")]
        for mod_name, attrs in SPANNED.items():
            home = sys.modules[mod_name]
            layer = mod_name.rsplit(".", 1)[1]
            for attr in attrs:
                original = getattr(home, attr)
                wrapped = self._spanned(f"{layer}.{attr}", original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)
        cls = logseries.LogPowerSeries
        for attr in SPANNED_METHODS:
            self._patch(cls, attr, self._spanned(f"logseries.{attr}", getattr(cls, attr)))
        self._patch(cls, "__post_init__", self._counted("logseries.constructed", cls.__post_init__))
        pair_factory = sonine.bessel_pair
        wrapped_factory = self._counting_pairs(pair_factory)
        for mod in modules:
            if getattr(mod, "bessel_pair", None) is pair_factory:
                self._patch(mod, "bessel_pair", wrapped_factory)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- wrappers ----------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans = self.spans
        opened = self._open
        counts = self.counts
        want_effort = name in _EFFORT
        is_sigma = name == "sigmaop.apply_sigma"
        is_neumann = name == "specfun.neumann"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, opened[-1] if opened else -1]
            spans.append(span)
            opened.append(idx)
            span[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _perf()
                opened.pop()
            if want_effort:
                counts[name + ".effort"] += result.effort
            if is_sigma and result.K_trunc >= 0:
                counts["sigmaop.useful"] += 1
            if is_neumann and float(args[0] if args else kwargs["nu"]).is_integer():
                counts["specfun.neumann.integer"] += 1
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_pairs(self, factory):
        counts = self.counts

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            pair = factory(*args, **kwargs)
            omega = pair.omega

            def counted_omega(tau):
                counts["sonine.omega_calls"] += 1
                return omega(tau)

            # GeneratingPair is frozen; swap the callable without re-validating.
            object.__setattr__(pair, "omega", counted_omega)
            return pair

        return wrapper

    # -- folding -------------------------------------------------------------------

    def end_op(self) -> None:
        """Fold the spans of the finished operation into the per-name totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child[i]
        if self.ops < KEEP_OPS:
            self.kept.append({"op": self.ops, "spans": [list(s) for s in spans]})
        self.ops += 1
        spans.clear()
