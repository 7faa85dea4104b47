"""Per-layer tracing of polydisc from outside the package.

Each traced public function is replaced, at every name that binds it, by a
wrapper that opens a span whose parent is the innermost open span. A span's
self time is its duration minus the durations of its child spans. Spans are
folded into per-function totals and per-(parent, child) call counts as they
close: the hot functions run millions of times per operation, too many to
keep one record per span.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Layer (module) -> traced functions; methods are named through their class.
TRACED = {
    "poly": ("parse_poly_input", "Polynomial.evaluate", "Polynomial.evaluate_mod"),
    "discriminator": ("compute", "scan", "is_discriminating", "trivial_upper_bound"),
    "ntheory": ("is_prime", "factorize", "euler_phi", "next_prime_satisfying"),
    "closedform": (
        "lemma1_bound",
        "sun_power_formula",
        "bsw_discriminator",
        "sun_prime_discriminator",
        "check_theorem4",
    ),
    "analysis": ("check_theorem3", "classify_value", "run_length_table", "emit_csv", "emit_latex"),
    "cli": ("main",),
}

# Counters fed from return values: traced name -> (counter, value of a result).
RESULT_COUNTERS = {
    "discriminator.compute": ("candidates", lambda result: result.candidates_tested),
    "discriminator.scan": ("candidates", lambda results: sum(r.candidates_tested for r in results)),
    "discriminator.is_discriminating": ("accepted", bool),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in report order."""
    units = {}
    for layer, functions in TRACED.items():
        for qualname in functions:
            base = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
            units[f"{base}.calls"] = "count"
            units[f"{base}.self_s"] = "s"
    units["discriminator.candidates"] = "count"
    units["discriminator.accept_ratio"] = "ratio"
    units["discriminator.residues_per_check"] = "residues/check"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Wraps polydisc's public functions while installed and totals their spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.counters = {"candidates": 0, "accepted": 0}
        # open spans, innermost last: [time covered by closed children, name]
        self._stack: list[list] = [[0.0, "<root>"]]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, calls, self_s, edges, counters = (
            self._stack, self.calls, self.self_s, self.edges, self.counters,
        )
        clock = time.perf_counter
        counter, measure = RESULT_COUNTERS.get(name, (None, None))
        calls[name] = 0
        self_s[name] = 0.0

        def traced(*args, **kwargs):
            span = [0.0, name]
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                self_s[name] += elapsed - span[0]
                calls[name] += 1
                edge = (parent[1], name)
                edges[edge] = edges.get(edge, 0) + 1
            if counter is not None:
                counters[counter] += measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of each traced function in the loaded polydisc modules."""
        modules = [m for key, m in sys.modules.items() if key == "polydisc" or key.startswith("polydisc.")]
        try:
            for layer, functions in TRACED.items():
                home = sys.modules[f"polydisc.{layer}"]
                for qualname in functions:
                    owner_name, _, attr = qualname.rpartition(".")
                    owner = getattr(home, owner_name) if owner_name else home
                    original = getattr(owner, attr)
                    wrapper = self._wrap(f"{layer}.{attr}", original)
                    for namespace in [owner] if owner_name else modules:
                        for key, value in list(vars(namespace).items()):
                            if value is original:
                                self._patches.append((namespace, key, original))
                                setattr(namespace, key, wrapper)
            yield self
        finally:
            while self._patches:
                namespace, key, original = self._patches.pop()
                setattr(namespace, key, original)

    def counts(self) -> dict[str, int]:
        """The exact counts of one traced operation; they must repeat run to run."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"discriminator.{key}": n for key, n in self.counters.items()})
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced operation (without the overhead ratio)."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        checks = self.calls["discriminator.is_discriminating"]
        out["discriminator.candidates"] = self.counters["candidates"]
        out["discriminator.accept_ratio"] = self.counters["accepted"] / checks if checks else 0.0
        out["discriminator.residues_per_check"] = (
            self.calls["poly.evaluate_mod"] / checks if checks else 0.0
        )
        return out
