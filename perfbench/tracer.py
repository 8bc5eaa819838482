"""Span tracer that wraps sgflow's layer-boundary functions from outside.

Each wrapped call records one span: its wall time, and the part of it that
child spans covered, so a span's self time is its duration minus its
children's.  Spans nest through the call chain because the wrapper replaces
the function under every name that any sgflow module bound it to.  Only the
functions in SPANS are wrapped: an unlisted helper counts toward the self
time of the listed function that called it.  Spans are summed per name in
memory, and counters read effort off the wrapped functions' return values.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = ("core", "groups", "structures", "oracle", "reduce", "duality",
           "decompose", "flows", "generators", "cli")

# layer (sgflow module) -> functions whose spans the benchmark reports
SPANS = {
    "core": ("is_k_unbalanced", "edge_connectivity"),
    "reduce": ("cubicize", "choose_uncontraction_half"),
    "structures": ("all_cycles", "k_closure"),
    "decompose": ("decompose_tree_2base", "decompose_base_sun",
                  "check_working_partition"),
    "flows": ("connect", "connect_composite", "connect_prime", "sun_flow",
              "z2_to_3flow", "connect_projective", "verify_avoidance"),
    "oracle": ("satisfy_boundary", "has_nz_k_flow", "is_A_connected"),
    "groups": ("is_flow",),
    "duality": ("match_dual",),
    "generators": ("random_cubic_3connected",),
}


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _connect_counts(args, kwargs, out):
    group = args[1] if len(args) > 1 else kwargs["A"]
    hinted = (args[3] if len(args) > 3 else kwargs.get("embedding")) is not None
    yield f"flows.strategy.{out.strategy}", 1
    if not hinted and group.order >= 11 and _is_prime(group.order):
        yield "flows.prime_attempts", 1
        yield "flows.prime_certificates", int(out.strategy == "prime")


# span name -> (args, kwargs, return value) -> (counter, increment) pairs
COUNTERS = {
    "reduce.cubicize":
        lambda a, kw, out: [("reduce.uncontractions", len(out.history))],
    "structures.all_cycles":
        lambda a, kw, out: [("structures.cycles_enumerated", len(out))],
    "structures.k_closure":
        lambda a, kw, out: [("structures.closure_steps", len(out.steps))],
    "oracle.is_A_connected":
        lambda a, kw, out: [("oracle.boundaries_checked", out.checked)],
    "flows.connect": _connect_counts,
}


class Tracer:
    """Per-name span totals: total and self seconds, call counts and effort
    counters."""

    def __init__(self):
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.total_s[name] += dt
                self.self_s[name] += dt - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += dt
            if counter is not None:
                for key, inc in counter(args, kwargs, out):
                    self.counts[key] += inc
            return out

        return span

    def install(self) -> None:
        mods = [importlib.import_module(f"sgflow.{m}") for m in MODULES]
        for layer, names in SPANS.items():
            home = importlib.import_module(f"sgflow.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr in [a for a, v in vars(mod).items() if v is orig]:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        self.total_s.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"total_s": dict(self.total_s), "self_s": dict(self.self_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def merge(self, snap: dict) -> None:
        for key, val in snap["total_s"].items():
            self.total_s[key] += val
        for key, val in snap["self_s"].items():
            self.self_s[key] += val
        self.calls.update(snap["calls"])
        self.counts.update(snap["counts"])
