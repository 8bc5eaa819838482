"""The benchmark's workloads: seeded pools of user-level requests.

A pool is the fixed list of requests (ops) that one pass of a workload
sends, one after another.  Every op carries its inputs as text, so the
inputs of a run can be digested, and an independent check of its output
(check.py).  README.md gives the reason for each workload.

The random graphs form a fixed ladder, drawn from the seed LADDER_SEED on
every run; the run's own seed draws the forbidden maps and sampled
boundaries.  Graph structure, not forbidden values, sets what an op costs:
connect on one 16-vertex graph varies by about 12 % between relabelings
and several-fold between graphs, so a seed that redrew the graphs would
measure the draw rather than the code.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from sgflow import (core, decompose, duality, flows, generators, groups, oracle,
                    reduce)

import check
from check import WrongResult
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

COMPOSITE = ("Z6", "Z8", "Z2xZ2xZ2", "Z9")
PRIME = ("Z11", "Z13")

# (vertices, composite-group ops, prime-group ops) per size class and pass
CUBIC_MIX = ((10, 4, 1), (12, 2, 1), (14, 2, 0), (16, 1, 0))
# (vertices before contracting two edges, composite ops, prime ops)
NONCUBIC_MIX = ((12, 7, 3), (14, 3, 0))
SAMPLES = 100  # (boundary, forbidden map) pairs per sampled connectivity op
LADDER_SEED = "ladder"

# Seconds one pass over each pool takes on the machine the pools were sized
# on (2 vCPUs of an Intel Xeon, Python 3.11) at a quiet moment of that shared
# host; at run.py's reference speed a pass takes up to 1.5 times as long.
# A run of S seconds sends round(S / NOMINAL_PASS_S) passes, so every run of
# a workload, on any commit, sends the same requests the same number of times.
NOMINAL_PASS_S = {"connect-cubic": 3.6, "connect-noncubic": 2.8,
                  "oracle-exact": 5.0, "cli-roundtrip": 2.2}


@dataclass
class Op:
    label: str
    inputs: str  # every input of the op as text, for the run's digest
    run: Callable[[], object]
    check: Callable[[object], None]
    warm: bool = False  # set-up runs this op once, untimed


@dataclass
class Context:
    """Run-wide state shared by ops: the scratch directory the command-line
    ops read and write, and the tracer that traced command-line ops feed."""

    workdir: Path
    tracer: Optional[Tracer] = None
    traced: bool = False
    expected: dict = field(default_factory=check.load_expected)


# -- input text -------------------------------------------------------------------

def sg_text(g) -> str:
    lines = [f"sg {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1} {'+' if s > 0 else '-'}" for u, v, s in g.edges]
    return "\n".join(lines) + "\n"


def map_text(vals) -> str:
    return "".join(f"{i} {','.join(map(str, v))}\n" for i, v in enumerate(vals))


def random_map(rng: random.Random, A, m: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(q) for q in A.factors) for _ in range(m)]


def interleave(classes: list[list[Op]]) -> list[Op]:
    """Spread every class evenly over the pass, so any stretch of a run
    holds the classes in about the same proportions as the whole pass."""
    keyed = [((i + 0.5) / len(ops), c, i) for c, ops in enumerate(classes)
             for i in range(len(ops))]
    return [classes[c][i] for _, c, i in sorted(keyed)]


def mark_warm(ops: list[Op]) -> None:
    for op in ops:
        op.warm = True


# -- in-process ops ----------------------------------------------------------------

def connect_op(ctx: Context, label: str, g, spec: str, fbar, key: str,
               hint=None) -> Op:
    """flows.connect, then a certificate text round trip and re-verification."""
    A = groups.parse_group(spec)
    edges = list(g.edges)

    def run():
        cert = flows.connect(g, A, fbar, embedding=hint)
        back = flows.parse_avoidance(flows.format_avoidance(cert))
        return cert, back, flows.verify_avoidance(g, back)

    def check_out(out):
        cert, back, verified = out
        if not verified:
            raise WrongResult(f"{label}: verify_avoidance rejected the certificate")
        if back.flow != cert.flow or back.fbar != list(fbar):
            raise WrongResult(f"{label}: certificate changed in a text round trip")
        check.expect(ctx.expected, key, "unsat" if cert.flow is None else "flow")
        if cert.flow is not None:
            check.check_avoiding_flow(g.n, edges, A.factors, fbar, cert.flow)

    inputs = f"connect {spec} hint={'k6' if hint else '-'}\n{sg_text(g)}{map_text(fbar)}"
    return Op(f"{label} {spec}", inputs, run, check_out)


def random_connect_op(ctx: Context, rng: random.Random, label: str, g,
                      spec: str, hint=None) -> Op:
    A = groups.parse_group(spec)
    key = ("connect projective" if hint is not None else
           "connect prime" if spec in PRIME else "connect composite")
    return connect_op(ctx, label, g, spec, random_map(rng, A, g.m), key, hint)


def prime_route_applies(g) -> bool:
    """The prime construction's hypotheses on a cubic graph: two
    vertex-disjoint negative cycles and no balanced side of a 3- or 4-edge
    cut.  A graph that misses them makes connect fall back to exhaustive
    search, whose time over Z11 ranges from milliseconds to tens of seconds."""
    return (decompose.has_two_disjoint_cycles(g, want_negative=True) is not None
            and decompose.violating_balanced_cut(g) is None)


def draw_cubic(rng: random.Random, n: int, prime: bool):
    """Random cubic 3-connected 2-unbalanced graph; for a prime-group op, one
    that meets the prime route's hypotheses."""
    while True:
        g = generators.random_cubic_3connected(n, rng)
        if not core.is_k_unbalanced(g, 2):
            continue
        if prime and not prime_route_applies(g):
            continue
        return g


def draw_noncubic(rng: random.Random, n: int, prime: bool):
    """Contract two random edges of a random cubic 3-connected graph on n
    vertices; keep the result if it is 3-edge-connected and 2-unbalanced
    and, for a prime-group op, if its cubic reduction meets the prime
    route's hypotheses."""
    while True:
        g = generators.random_cubic_3connected(n, rng)
        h = core.contract_set(g, rng.sample(range(g.m), 2)).graph
        if core.edge_connectivity(h) < 3 or not core.is_k_unbalanced(h, 2):
            continue
        if prime and not prime_route_applies(reduce.cubicize(h).graph):
            continue
        return h


def sized_classes(ctx: Context, rng: random.Random, workload: str, mix, draw,
                  label: str) -> list[list[Op]]:
    """One class of connect ops per ladder size; groups go round in turn."""
    ladder = random.Random(f"{workload}:{LADDER_SEED}")
    classes = []
    for n, n_comp, n_prime in mix:
        ops = []
        for i in range(n_comp + n_prime):
            prime = i >= n_comp
            g = draw(ladder, n, prime)
            spec = PRIME[(i - n_comp) % 2] if prime else COMPOSITE[i % 4]
            ops.append(random_connect_op(ctx, rng, f"{label} n={g.n}", g, spec))
        classes.append(ops)
    return classes


def connect_cubic(ctx: Context, rng: random.Random) -> list[Op]:
    pet, pet2 = generators.petersen(), generators.petersen_2neg()
    emb = duality.k6_projective_embedding()
    named = [random_connect_op(ctx, rng, "petersen", pet, s) for s in COMPOSITE]
    named += [random_connect_op(ctx, rng, "petersen-2neg", pet2, s) for s in PRIME]
    named += [random_connect_op(ctx, rng, "petersen+k6-hint", pet, s, hint=emb)
              for s in ("Z6", "Z8")]
    mark_warm([named[0], named[4], named[6]])
    return interleave([named] + sized_classes(ctx, rng, "connect-cubic",
                                              CUBIC_MIX, draw_cubic, "cubic"))


def connect_noncubic(ctx: Context, rng: random.Random) -> list[Op]:
    classes = sized_classes(ctx, rng, "connect-noncubic", NONCUBIC_MIX,
                            draw_noncubic, "noncubic")
    mark_warm([classes[0][0], classes[0][-1]])
    return interleave(classes)


def a_connected_op(ctx: Context, name: str, g, spec: str) -> Op:
    A = groups.parse_group(spec)
    key = f"a-connected {name} {spec}"

    def check_out(v):
        check.expect(ctx.expected, key, v.status)
        if v.status == "yes" and v.checked != check.count_A_boundaries(g.n, A.factors):
            raise WrongResult(f"{key}: checked {v.checked} boundaries")

    return Op(key, f"{key}\n{sg_text(g)}",
              lambda: oracle.is_A_connected(g, A), check_out)


def sampled_op(ctx: Context, name: str, g, spec: str, sample_seed: int) -> Op:
    A = groups.parse_group(spec)
    key = f"sampled-a-connected {name} {spec}"

    def check_out(v):
        check.expect(ctx.expected, key, v.status)
        if v.checked != SAMPLES:
            raise WrongResult(f"{key}: checked {v.checked} of {SAMPLES} samples")

    return Op(f"{key} seed={sample_seed}",
              f"{key} samples={SAMPLES} seed={sample_seed}\n{sg_text(g)}",
              lambda: oracle.is_A_connected(g, A, samples=SAMPLES, seed=sample_seed),
              check_out)


def nz_flow_op(ctx: Context, name: str, g, spec: str) -> Op:
    A = groups.parse_group(spec)
    key = f"nz-flow {name} {spec}"

    def check_out(f):
        check.expect(ctx.expected, key, "no" if f is None else "yes")
        if f is not None:
            check.check_nowhere_zero_flow(g.n, list(g.edges), A.factors, f)

    return Op(key, f"{key}\n{sg_text(g)}", lambda: oracle.has_nz_A_flow(g, A),
              check_out)


def k_flow_op(ctx: Context, name: str, g, k: int) -> Op:
    key = f"k-flow {name} {k}"

    def check_out(f):
        check.expect(ctx.expected, key, "no" if f is None else "yes")
        if f is not None:
            check.check_integer_k_flow(g.n, list(g.edges), k, f)

    return Op(key, f"{key}\n{sg_text(g)}", lambda: oracle.has_nz_k_flow(g, k),
              check_out)


def oracle_exact(ctx: Context, rng: random.Random) -> list[Op]:
    pet, k4 = generators.petersen(), generators.k4_negative_triangle()
    heavy = [a_connected_op(ctx, "k4-negtri", k4, s)
             for s in ("Z6", "Z7", "Z8", "Z2xZ4")]
    flows_ = [nz_flow_op(ctx, "petersen", pet, s)
              for s in ("Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z6")]
    flows_ += [k_flow_op(ctx, "petersen", pet, k) for k in range(2, 7)]
    unsat = []
    for spec in ("Z4", "Z5"):
        A = groups.parse_group(spec)
        unsat.append(connect_op(ctx, "petersen forbid-zero", pet, spec,
                                [A.zero] * pet.m, f"connect-zero petersen {spec}"))
    sampled = [sampled_op(ctx, "petersen", pet, s, rng.randrange(1 << 30))
               for s in COMPOSITE]
    mark_warm([flows_[0], flows_[6], unsat[0], sampled[2]])
    return interleave([flows_ + sampled, unsat, heavy])


# -- command-line ops --------------------------------------------------------------

def sg_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_sg(ctx: Context, args: list[str]) -> tuple[int, str]:
    """One `sg` process; traced, it runs under sg_traced.py and its spans are
    added to the run's tracer."""
    if ctx.traced:
        spans = ctx.workdir / "spans.json"
        spans.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "sg_traced.py"), str(spans), *args]
    else:
        cmd = [sys.executable, "-m", "sgflow.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=sg_env(),
                          cwd=ctx.workdir, timeout=120)
    if ctx.traced:
        ctx.tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
    return proc.returncode, proc.stdout


def cli_roundtrip(ctx: Context, rng: random.Random) -> list[Op]:
    wd = ctx.workdir
    graphs = {"petersen": generators.petersen(),
              "k4-negtri": generators.k4_negative_triangle(),
              "cubic10": draw_cubic(random.Random(f"cli-roundtrip:{LADDER_SEED}"),
                                    10, False)}
    for name, g in graphs.items():
        (wd / f"{name}.sg").write_text(sg_text(g), encoding="utf-8")

    def sg(args, check_out) -> Op:
        return Op(" ".join(args), "sg " + " ".join(args),
                  lambda: run_sg(ctx, args), check_out)

    def gen_check(n, m, cycle_len):
        def check_out(out):
            code, text = out
            if code != 0:
                raise WrongResult(f"sg gen exited {code}")
            check.check_negative_cycle_graph(text, n, m, cycle_len)
        return check_out

    ops = [sg(["gen", "petersen-ps"], gen_check(10, 15, 5)),
           sg(["gen", "k4-negtri"], gen_check(4, 6, 3))]
    for (name, g), spec in zip(graphs.items(), ("Z6", "Z8", "Z9")):
        A = groups.parse_group(spec)
        fbar = random_map(rng, A, g.m)
        (wd / f"{name}.fbar").write_text(map_text(fbar), encoding="utf-8")
        cert = wd / f"{name}.cert"

        def run_connect(name=name, spec=spec, cert=cert):
            code, out = run_sg(ctx, ["connect", "--group", spec, "--forbidden",
                                     f"{name}.fbar", f"{name}.sg"])
            cert.write_text(out, encoding="utf-8")
            return code, out

        def connect_check(out, g=g, fbar=fbar, factors=A.factors):
            code, text = out
            if code != 0:
                raise WrongResult(f"sg connect exited {code}")
            got_factors, got_fbar, flow = check.parse_cert_text(text)
            if got_factors != factors or got_fbar != fbar:
                raise WrongResult("certificate names another group or map")
            check.check_avoiding_flow(g.n, list(g.edges), factors, fbar, flow)

        def verify_check(out):
            if out != (0, "OK\n"):
                raise WrongResult(f"sg verify answered {out}")

        label = f"connect --group {spec} {name}"
        ops.append(Op(label, f"sg {label}\n{sg_text(g)}{map_text(fbar)}",
                      run_connect, connect_check))
        ops.append(sg(["verify", f"{name}.cert", f"{name}.sg"], verify_check))

    pet, k4 = graphs["petersen"], graphs["k4-negtri"]

    def a_conn_check(out):
        code, text = out
        words = text.split()
        check.expect(ctx.expected, "a-connected k4-negtri Z6",
                     words[1] if code in (0, 1) and len(words) > 3 else f"exit {code}")
        if int(words[3]) != check.count_A_boundaries(k4.n, (6,)):
            raise WrongResult(f"sg oracle checked {words[3]} boundaries")

    def k_flow_check(out):
        code, text = out
        check.expect(ctx.expected, "k-flow petersen 4",
                     {(1, "UNSAT\n"): "no"}.get(out, f"exit {code}"))

    def nz_flow_check(out):
        code, text = out
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != "flow":
            check.expect(ctx.expected, "nz-flow petersen Z6", f"exit {code}")
        flow = [tuple(int(x) for x in ln.split()[1].split(",")) for ln in lines[1:]]
        check.check_nowhere_zero_flow(pet.n, list(pet.edges), (6,), flow)

    ops += [sg(["oracle", "a-connected", "--group", "Z6", "k4-negtri.sg"], a_conn_check),
            sg(["oracle", "k-flow", "--k", "4", "petersen.sg"], k_flow_check),
            sg(["oracle", "nz-flow", "--group", "Z6", "petersen.sg"], nz_flow_check)]
    mark_warm(ops[:1])
    return ops


WORKLOADS = {
    "connect-cubic": connect_cubic,
    "connect-noncubic": connect_noncubic,
    "oracle-exact": oracle_exact,
    "cli-roundtrip": cli_roundtrip,
}


def build(workload: str, seed: int, ctx: Context) -> list[Op]:
    return WORKLOADS[workload](ctx, random.Random(f"{workload}:{seed}"))
