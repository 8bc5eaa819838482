"""Write the golden avoidance certificates that test_golden.py replays.

Each case is a pair of files in this directory: ``NAME.sg`` holds the input
graph and ``NAME.cert`` holds ``format_avoidance`` of what ``flows.connect``
returned for it.  The certificate carries the group and the forbidden map,
so it is also the rest of the input.  Cases whose name starts with
``k6hint-`` pass the K6 projective embedding as the hint.

``oracle_witnesses.json`` pins the exact searches the same way: each record
names an oracle call (``has_nz_A_flow``, ``has_nz_k_flow``,
``satisfy_boundary``, ``z2_to_3flow`` or ``is_A_connected``) with its
inputs, and holds the witness it returned (null for none); for
``is_A_connected`` it is the verdict's status, witness boundary and count
of boundaries checked.

Run from the repository root to rewrite the corpus:

    PYTHONPATH=src python tests/golden/make_golden.py

Rewrite it only when a change to the certificates is intended; a refactor
must leave every file byte for byte as it is.  With ``--check`` the corpus
is written to a temporary directory instead and compared with this one:
the script lists every file that changed, is missing here or is here
without being written, and exits 1 if there is any:

    PYTHONPATH=src python tests/golden/make_golden.py --check
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import time
from pathlib import Path

from sgflow import oracle
from sgflow.core import (MINUS, contract_set, edge_connectivity, format_sg,
                         is_balanced, is_k_unbalanced)
from sgflow.duality import k6_projective_embedding
from sgflow.flows import connect, format_avoidance, z2_to_3flow
from sgflow.generators import (k4, k4_negative_triangle, petersen,
                               petersen_2neg, random_cubic_3connected)
from sgflow.groups import parse_group
from sgflow.structures import all_cycles

HERE = Path(__file__).resolve().parent
WITNESSES = HERE / "oracle_witnesses.json"
COMPOSITE = ("Z6", "Z8", "Z2xZ2xZ2", "Z9")
# groups the exact A-connectivity verdicts of K4 are pinned over
A_CONNECTED = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z2xZ2",
               "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3")
# petersen_2neg over Z11 with these seeded maps leaves collisions on B
# (aux b1 is not "-"), so the prime route runs z2_to_3flow
PRIME_B1 = (0, 1, 9, 14)
# cubic(16, 0) meets the prime route's hypotheses, and this seeded map
# leaves four collisions on B
PRIME16_B1 = 15


def random_fbar(name: str, A, m: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"golden:{name}")
    return [tuple(rng.randrange(q) for q in A.factors) for _ in range(m)]


def cubic(n: int, index: int):
    """The index-th cubic 3-connected 2-unbalanced graph drawn from a
    seed fixed by n."""
    rng = random.Random(f"golden-cubic:{n}")
    found = 0
    while True:
        g = random_cubic_3connected(n, rng)
        if not is_k_unbalanced(g, 2):  # also skips the balanced draws
            continue
        if found == index:
            return g
        found += 1


def noncubic(n: int, index: int, k: int):
    """Contract k random edges of a cubic graph from cubic(n, index); keep
    the first result that is 3-edge-connected and 2-unbalanced."""
    g = cubic(n, index)
    rng = random.Random(f"golden-contract:{n}:{index}:{k}")
    while True:
        h = contract_set(g, rng.sample(range(g.m), k)).graph
        if edge_connectivity(h) >= 3 and is_k_unbalanced(h, 2):
            return h


def cases():
    """(name, graph, group spec); the forbidden map is all-zero for names
    ending in ``-zero`` and seeded by the name otherwise."""
    pet, pet2 = petersen(), petersen_2neg()
    for spec in COMPOSITE:
        yield f"petersen-{spec}", pet, spec
        yield f"k6hint-petersen-{spec}", pet, spec
    yield "petersen-2neg-Z11", pet2, "Z11"
    yield "petersen-2neg-Z9", pet2, "Z9"
    # all-zero maps give the sun flow a zero boundary on the sun's cycle:
    # an odd sun (zero-odd) here, an even one (zero-even) on cubic(12, 10)
    yield "petersen-2neg-Z11-zero", pet2, "Z11"
    yield "cubic12-10-Z11-zero", cubic(12, 10), "Z11"
    specs = COMPOSITE + ("Z11",)
    i = 0
    for n in (8, 10, 12):
        for index in range(3):
            spec = specs[i % len(specs)]
            i += 1
            yield f"cubic{n}-{index}-{spec}", cubic(n, index), spec
    # sizes where the order in which improving paths are listed matters
    for n in (16, 20):
        for index in range(2):
            for spec in ("Z6", "Z9"):
                yield f"cubic{n}-{index}-{spec}", cubic(n, index), spec
    yield f"prime-b1-cubic16-0-Z11-{PRIME16_B1}", cubic(16, 0), "Z11"
    for n, index, k in ((10, 0, 1), (10, 1, 2), (12, 0, 1), (12, 1, 2)):
        for spec in ("Z6", "Z9"):
            yield f"contract{n}-{index}-{k}-{spec}", noncubic(n, index, k), spec
    # the oracle route: small prime groups, and an unsat certificate
    yield "oracle-petersen-Z5", pet, "Z5"
    yield "oracle-petersen-Z7", pet, "Z7"
    yield "oracle-petersen-Z4-zero", pet, "Z4"
    for i in PRIME_B1:
        yield f"prime-b1-petersen-2neg-Z11-{i}", pet2, "Z11"


# -- pinned oracle witnesses ----------------------------------------------------

GRAPHS = {
    "petersen": petersen,
    "petersen-positive": lambda: petersen(all_positive=True),
    "petersen-2neg": petersen_2neg,
    "k4": k4,
    "k4-negtri": k4_negative_triangle,
}


def oracle_call(rec: dict):
    """Run the oracle call a witness record names on its inputs."""
    g = GRAPHS[rec["graph"]]()
    call = rec["call"]
    if call == "has_nz_k_flow":
        return oracle.has_nz_k_flow(g, rec["k"])
    if call == "z2_to_3flow":
        return z2_to_3flow(g, rec["support"], rec["carrier"])
    A = parse_group(rec["group"])
    if call == "is_A_connected":
        v = oracle.is_A_connected(g, A)
        return {"status": v.status, "witness_beta": v.witness_beta,
                "checked": v.checked}
    fbar = None if rec.get("fbar") is None else [tuple(x) for x in rec["fbar"]]
    if call == "has_nz_A_flow":
        return oracle.has_nz_A_flow(g, A, fbar=fbar)
    beta = [tuple(x) for x in rec["beta"]]
    return oracle.satisfy_boundary(g, A, beta, fbar=fbar,
                                   allow_zero=rec["allow_zero"])


def as_json(x):
    """Witnesses with group elements as lists, as JSON stores them."""
    if isinstance(x, dict):
        return {k: as_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [as_json(y) for y in x]
    return x


def witness_records():
    """The oracle calls to pin, without their results."""
    rng = random.Random("golden-witnesses")

    def draw(A, count: int) -> list[tuple[int, ...]]:
        return [tuple(rng.randrange(q) for q in A.factors)
                for _ in range(count)]

    for name, make in GRAPHS.items():
        g = make()
        # every graph here is connected: a boundary sums into 2A, or, on a
        # balanced graph, to zero once switched by s
        switched = is_balanced(g).switching_set
        for spec in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2"):
            A = parse_group(spec)
            yield {"call": "has_nz_A_flow", "graph": name, "group": spec}
            yield {"call": "has_nz_A_flow", "graph": name, "group": spec,
                   "fbar": draw(A, g.m)}
            for allow_zero in (False, True):
                head = draw(A, g.n - 1)
                (a,) = draw(A, 1)  # drawn on a balanced graph too
                if switched is None:
                    last = A.sub(A.add(a, a), A.sum(head))
                else:
                    last = A.neg(A.sum(
                        A.neg(b) if v in switched else b
                        for v, b in enumerate(head)))
                    last = A.neg(last) if g.n - 1 in switched else last
                yield {"call": "satisfy_boundary", "graph": name,
                       "group": spec, "beta": head + [last],
                       "fbar": draw(A, g.m), "allow_zero": allow_zero}
        for k in (2, 3, 4, 5):
            yield {"call": "has_nz_k_flow", "graph": name, "k": k}
        cycles = all_cycles(g)
        made = 0
        while made < 4:
            sup: set[int] = set()
            for c in cycles:
                if rng.random() < 0.5:
                    sup ^= set(c.edges)
            if not sup or sum(g.sigma(e) == MINUS for e in sup) % 2:
                continue
            carrier = sup | {e for e in range(g.m) if rng.random() < 0.5}
            yield {"call": "z2_to_3flow", "graph": name,
                   "support": sorted(sup), "carrier": sorted(carrier)}
            made += 1
    for name in ("k4", "k4-negtri"):
        for spec in A_CONNECTED:
            yield {"call": "is_A_connected", "graph": name, "group": spec}


def write_corpus(out: Path) -> None:
    """Write every case and the pinned witnesses into the directory out."""
    emb = k6_projective_embedding()
    for name, g, spec in cases():
        A = parse_group(spec)
        if name.endswith("-zero"):
            fbar = [A.zero] * g.m
        else:
            fbar = random_fbar(name, A, g.m)
        t0 = time.perf_counter()
        cert = connect(g, A, fbar,
                       embedding=emb if name.startswith("k6hint-") else None)
        dt = time.perf_counter() - t0
        (out / f"{name}.sg").write_text(format_sg(g))
        (out / f"{name}.cert").write_text(format_avoidance(cert))
        print(f"{name}: {cert.strategy} n={g.n} m={g.m} {dt:.3f}s",
              file=sys.stderr)
    records = []
    for rec in witness_records():
        rec = as_json(rec)
        rec["result"] = as_json(oracle_call(rec))
        records.append(rec)
    (out / WITNESSES.name).write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"{WITNESSES.name}: {len(records)} records", file=sys.stderr)


def corpus_files(directory: Path) -> set[str]:
    """Names of the corpus files in directory: all but this script."""
    return {p.name for p in directory.iterdir()
            if p.is_file() and p.name != Path(__file__).name}


def check(corpus: Path = HERE) -> int:
    """Write the corpus to a temporary directory and compare it with the
    one in corpus; 1 if any file differs, is missing or is extra."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        write_corpus(fresh)
        written, kept = corpus_files(fresh), corpus_files(corpus)
        changed = sorted(name for name in written & kept
                         if (fresh / name).read_bytes()
                         != (corpus / name).read_bytes())
    missing, extra = sorted(written - kept), sorted(kept - written)
    for label, names in (("changed", changed), ("missing", missing),
                         ("extra", extra)):
        for name in names:
            print(f"{label}: {name}")
    if changed or missing or extra:
        return 1
    print(f"golden corpus unchanged: {len(written)} files")
    return 0


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: make_golden.py [--check]", file=sys.stderr)
        return 2
    write_corpus(HERE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
