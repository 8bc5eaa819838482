"""Finite abelian groups, edge/vertex maps, flows and boundaries.

Groups are direct sums of cyclic groups Z_{n1} x ... x Z_{nr}; elements are
plain tuples of residues (mixed radix), for a cyclic group too.  A cyclic
group computes on the one coordinate of its elements, a product coordinate
by coordinate.  Elements are ordered lexicographically, which fixes every
"least valid value" choice made by the flow constructors.

Boundaries are read in the default orientation, the one every layer uses:
reversing an edge only negates its value, so no question needs another.
A boundary is computed per coordinate: each coordinate is summed as an
integer map by integer_boundary and reduced once per vertex.

The avoidance certificate (AvoidanceCertificate, its text format and
verify_avoidance) lives here, beside is_flow and the map format, so that
re-checking a certificate loads no construction; flows re-exports it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .core import Frozen, SignedGraph, _setattr

Elem = Tuple[int, ...]


class AbelianGroup(Frozen):
    """Z_{n_1} x ... x Z_{n_k}, its elements plain tuples.  An immutable
    value, hashed by the oracle's memos.

    A cyclic group (k = 1) computes on the one coordinate of its elements;
    a product computes coordinate by coordinate.  Both give the same
    tuples."""

    def __init__(self, factors: tuple[int, ...]):
        if not factors or any(n < 2 for n in factors):
            raise ValueError("factors must all be >= 2")
        _setattr(self, "factors", factors)
        _setattr(self, "zero", (0,) * len(factors))
        # the order of a cyclic group, 0 for a product
        _setattr(self, "_cyclic", factors[0] if len(factors) == 1 else 0)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash((self.factors,))

    @property
    def order(self) -> int:
        out = 1
        for n in self.factors:
            out *= n
        return out

    def elements(self) -> Iterator[Elem]:
        """All elements in lexicographic order."""
        return itertools.product(*(range(n) for n in self.factors))

    def add(self, a: Elem, b: Elem) -> Elem:
        if c := self._cyclic:
            return ((a[0] + b[0]) % c,)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: Elem) -> Elem:
        if c := self._cyclic:
            return (-a[0] % c,)
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def sub(self, a: Elem, b: Elem) -> Elem:
        if c := self._cyclic:
            return ((a[0] - b[0]) % c,)
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def smul(self, k: int, a: Elem) -> Elem:
        if c := self._cyclic:
            return (k * a[0] % c,)
        return tuple((k * x) % n for x, n in zip(a, self.factors))

    def contains(self, a: Elem) -> bool:
        if c := self._cyclic:
            return len(a) == 1 and 0 <= a[0] < c
        return len(a) == len(self.factors) and all(0 <= x < n for x, n in zip(a, self.factors))

    def sum(self, items: Iterable[Elem]) -> Elem:
        out = self.zero
        for a in items:
            out = self.add(out, a)
        return out

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.factors)


def parse_group(spec: str) -> AbelianGroup:
    """Parse specs like ``Z6``, ``Z2xZ2``, ``Z2xZ4``."""
    parts = spec.strip().split("x")
    factors = []
    for p in parts:
        p = p.strip()
        if not p or p[0] not in "Zz" or not p[1:].isdigit():
            raise ValueError(f"bad group spec {spec!r}")
        factors.append(int(p[1:]))
    return AbelianGroup(tuple(factors))


# -- subgroup / quotient machinery -------------------------------------------

def _smallest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factor(n) == n


class MinimalSubgroup:
    """A subgroup N of prime order p = smallest prime dividing |A|, together
    with quotient access A -> A/N.

    N is generated inside the first cyclic factor whose order p divides:
    N = <(0,...,n_i/p,...,0)>.  The quotient replaces that factor's order
    n_i by n_i/p (dropping it when n_i = p), so quotient elements are again
    plain tuples, and the coset representative map embeds a quotient tuple
    back with the reduced coordinate unchanged.  That representative is the
    lexicographically least element of its coset.
    """

    def __init__(self, group: AbelianGroup, p: int, factor_index: int):
        self.group = group
        self.p = p
        self.factor_index = factor_index

    @property
    def elements(self) -> tuple[Elem, ...]:
        A = self.group
        i = self.factor_index
        step = A.factors[i] // self.p
        out = []
        for k in range(self.p):
            e = [0] * len(A.factors)
            e[i] = k * step
            out.append(tuple(e))
        return tuple(out)

    @property
    def quotient(self) -> AbelianGroup:
        A = self.group
        i = self.factor_index
        reduced = A.factors[i] // self.p
        if reduced == 1:
            facs = A.factors[:i] + A.factors[i + 1:]
            if not facs:
                raise ValueError("quotient is trivial")
            return AbelianGroup(facs)
        return AbelianGroup(A.factors[:i] + (reduced,) + A.factors[i + 1:])

    def project(self, a: Elem) -> Elem:
        i = self.factor_index
        reduced = self.group.factors[i] // self.p
        if reduced == 1:
            return a[:i] + a[i + 1:]
        return a[:i] + (a[i] % reduced,) + a[i + 1:]

    def represent(self, q: Elem) -> Elem:
        """Lexicographically least a in A with project(a) = q."""
        i = self.factor_index
        reduced = self.group.factors[i] // self.p
        if reduced == 1:
            return q[:i] + (0,) + q[i:]
        return q

    def same_coset(self, a: Elem, b: Elem) -> bool:
        return self.project(a) == self.project(b)


def minimal_subgroup(A: AbelianGroup) -> MinimalSubgroup:
    """Subgroup of smallest prime order p | |A|; requires |A| composite."""
    if is_prime(A.order):
        raise ValueError(f"|A| = {A.order} is prime; no proper nontrivial subgroup")
    p = _smallest_prime_factor(A.order)
    for i, n in enumerate(A.factors):
        if n % p == 0:
            return MinimalSubgroup(A, p, i)
    raise AssertionError("p divides |A| but no factor order")


# -- flows and boundaries ------------------------------------------------------

def boundary(g: SignedGraph, f: Sequence[Elem], A: AbelianGroup) -> list[Elem]:
    """Boundary of an edge map in the default orientation: each edge adds
    f(e) at its first end and -sigma(e) f(e) at its second, so a negative
    loop adds 2 f(e) at its vertex and a positive loop adds nothing.  Each
    coordinate goes through integer_boundary and is reduced at the end.
    """
    if len(f) != g.m:
        raise ValueError("edge map not total")
    sums = [integer_boundary(g, [x[i] for x in f])
            for i in range(len(A.factors))]
    return [tuple(s % n for s, n in zip(b, A.factors)) for b in zip(*sums)]


def is_flow(g: SignedGraph, f: Sequence[Elem], A: AbelianGroup) -> bool:
    return all(b == A.zero for b in boundary(g, f, A))


def integer_boundary(g: SignedGraph, f: Sequence[int]) -> list[int]:
    """`boundary` of an integer edge map."""
    out = [0] * g.n
    for (u, v, sign), x in zip(g.edges, f, strict=True):
        out[u] += x
        out[v] -= sign * x
    return out


# -- map IO ---------------------------------------------------------------------

def parse_map(text: str, A: AbelianGroup, size: int) -> list[Elem]:
    """Edge/vertex map format: one line per entry, ``<index> <c,c,...>``
    with 0-based indices; missing indices default to zero."""
    vals: list[Elem] = [A.zero] * size
    seen = set()
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<index> <coords>'")
        try:
            idx = int(parts[0])
            coords = tuple(int(c) for c in parts[1].split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not (0 <= idx < size):
            raise ValueError(f"line {lineno}: index {idx} out of range")
        if not A.contains(coords):
            raise ValueError(f"line {lineno}: {coords} not in {A}")
        if idx in seen:
            raise ValueError(f"line {lineno}: duplicate index {idx}")
        seen.add(idx)
        vals[idx] = coords
    return vals


def format_elem(v: Elem) -> str:
    """An element as its comma-separated coordinates, as maps and
    certificates write it."""
    return ",".join(map(str, v))


def format_map(vals: Sequence[Elem]) -> str:
    return "\n".join(f"{i} {format_elem(v)}" for i, v in enumerate(vals)) + "\n"


# -- avoidance certificates -----------------------------------------------------

class AvoidanceCertificate:
    """A replayable record of one avoidance run.

    flow is None when the fallback search proved no avoiding flow exists;
    artifacts holds strategy-specific intermediates as text for replay.
    Certificates compare by value, so a parsed one equals the one written.
    """

    def __init__(self, strategy: str, group: AbelianGroup,
                 flow: Optional[list[Elem]], fbar: list[Elem],
                 e_prime: Optional[int] = None,
                 artifacts: Optional[dict[str, str]] = None):
        self.strategy = strategy  # "composite", "prime", "projective" or "oracle"
        self.group = group
        self.flow = flow
        self.fbar = fbar
        self.e_prime = e_prime
        self.artifacts = {} if artifacts is None else artifacts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.strategy, self.group, self.flow, self.fbar,
                 self.e_prime, self.artifacts)
                == (other.strategy, other.group, other.flow, other.fbar,
                    other.e_prime, other.artifacts))


def verify_avoidance(g: SignedGraph, cert: AvoidanceCertificate) -> bool:
    """Independent check: boundary zero and f(e) != fbar(e) everywhere; for an
    unsat certificate, re-run the exhaustive search and confirm emptiness."""
    A = cert.group
    if len(cert.fbar) != g.m:
        raise ValueError("certificate forbidden map size mismatch")
    if not all(map(A.contains, cert.fbar + (cert.flow or []))):
        raise ValueError(f"certificate holds a value outside {A}")
    if cert.flow is None:
        from .oracle import satisfy_boundary  # oracle imports this module

        sol = satisfy_boundary(g, A, [A.zero] * g.n, fbar=cert.fbar,
                               allow_zero=True)
        return sol is None
    if len(cert.flow) != g.m:
        raise ValueError("certificate flow size mismatch")
    if not is_flow(g, cert.flow, A):
        return False
    return all(cert.flow[e] != cert.fbar[e] for e in range(g.m))


def format_avoidance(cert: AvoidanceCertificate) -> str:
    lines = [f"cert {cert.strategy}", f"group {cert.group}"]
    lines.append(f"eprime {cert.e_prime + 1 if cert.e_prime is not None else '-'}")
    for e, v in enumerate(cert.fbar):
        lines.append(f"fbar {e + 1} {format_elem(v)}")
    if cert.flow is None:
        lines.append("unsat")
    else:
        for e, v in enumerate(cert.flow):
            lines.append(f"f {e + 1} {format_elem(v)}")
    for k in sorted(cert.artifacts):
        lines.append(f"aux {k} {cert.artifacts[k]}")
    return "\n".join(lines) + "\n"


def parse_avoidance(text: str) -> AvoidanceCertificate:
    """Read format_avoidance output.  The fbar lines must give edges 1..m
    once each, and unless the certificate says unsat the f lines must give
    the same edges once each, all with elements of the group; eprime must
    be '-' or an edge 1..m.  The cert, group, eprime and unsat lines, and
    the aux line of each key, come at most once, and an unsat certificate
    has no f lines.  Anything else raises ValueError naming a line."""
    strategy: Optional[str] = None
    group: Optional[AbelianGroup] = None
    e_prime: Optional[int] = None
    # keyword -> edge -> (line number, value)
    values: dict[str, dict[int, tuple[int, Elem]]] = {"fbar": {}, "f": {}}
    once: dict[str, int] = {}  # cert, group, eprime, unsat -> line number
    artifacts: dict[str, str] = {}
    aux_line: dict[str, int] = {}  # aux key -> line number
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        key = parts[0]
        try:
            if key in once:
                raise ValueError(f"{key} already given on line {once[key]}")
            if key == "cert":
                strategy = parts[1]
            elif key == "group":
                group = parse_group(parts[1])
            elif key == "eprime":
                e_prime = None if parts[1] == "-" else int(parts[1]) - 1
            elif key in values:
                e = int(parts[1]) - 1
                v = tuple(map(int, parts[2].split(",")))
                if e < 0:
                    raise ValueError(f"edge index {e + 1} is below 1")
                if e in values[key]:
                    raise ValueError(f"edge {e + 1} already has its {key} on"
                                     f" line {values[key][e][0]}")
                values[key][e] = (ln, v)
            elif key == "aux":
                if parts[1] in aux_line:
                    raise ValueError(f"aux {parts[1]} already given on line"
                                     f" {aux_line[parts[1]]}")
                aux_line[parts[1]] = ln
                artifacts[parts[1]] = parts[2] if len(parts) > 2 else ""
            elif key != "unsat":
                raise ValueError(f"unknown keyword {key!r}")
            if key in ("cert", "group", "eprime", "unsat"):
                once[key] = ln
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {ln}: bad certificate line {raw!r}: {exc}") from exc
    if strategy is None or group is None:
        raise ValueError("certificate is missing its cert/group header")
    fbar, fvals = values["fbar"], values["f"]
    for key, entries in values.items():
        for e, (ln, v) in entries.items():
            if not group.contains(v):
                raise ValueError(f"line {ln}: {key} of edge {e + 1} is not an"
                                 f" element of {group}")
    m = max(fbar, default=-1) + 1
    for e in range(m):
        if e not in fbar:
            raise ValueError(f"line {fbar[m - 1][0]}: fbar of edge {m} given,"
                             f" but edge {e + 1} has no fbar line")
    for e, (ln, _) in sorted(fvals.items()):
        if e >= m:
            raise ValueError(f"line {ln}: f of edge {e + 1} is past the last"
                             f" fbar edge {m}")
    if e_prime is not None and not 0 <= e_prime < m:
        raise ValueError(f"line {once['eprime']}: eprime {e_prime + 1} is"
                         f" outside the edges 1..{m}")
    if "unsat" in once and fvals:
        ln = min(ln for ln, _ in fvals.values())
        raise ValueError(f"line {ln}: f line in a certificate that says unsat"
                         f" on line {once['unsat']}")
    flow: Optional[list[Elem]] = None
    if "unsat" not in once:
        for e in range(m):
            if e not in fvals:
                raise ValueError(f"line {fbar[e][0]}: edge {e + 1} has an fbar"
                                 f" line but no f line")
        flow = [fvals[e][1] for e in range(m)]
    return AvoidanceCertificate(strategy, group, flow,
                                [fbar[e][1] for e in range(m)], e_prime,
                                artifacts)
