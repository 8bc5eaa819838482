"""Write the golden avoidance certificates that test_golden.py replays.

Each case is a pair of files in this directory: ``NAME.sg`` holds the input
graph and ``NAME.cert`` holds ``format_avoidance`` of what ``flows.connect``
returned for it.  The certificate carries the group and the forbidden map,
so it is also the rest of the input.  Cases whose name starts with
``k6hint-`` pass the K6 projective embedding as the hint.

Run from the repository root to rewrite the corpus:

    PYTHONPATH=src python tests/golden/make_golden.py

Rewrite it only when a change to the certificates is intended; a refactor
must leave every file byte for byte as it is.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from sgflow.core import contract_set, edge_connectivity, format_sg, is_k_unbalanced
from sgflow.duality import k6_projective_embedding
from sgflow.flows import connect, format_avoidance
from sgflow.generators import petersen, petersen_2neg, random_cubic_3connected
from sgflow.groups import parse_group

HERE = Path(__file__).resolve().parent
COMPOSITE = ("Z6", "Z8", "Z2xZ2xZ2", "Z9")


def random_fbar(name: str, A, m: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"golden:{name}")
    return [tuple(rng.randrange(q) for q in A.factors) for _ in range(m)]


def cubic(n: int, index: int):
    """The index-th cubic 3-connected 2-unbalanced graph drawn from a
    seed fixed by n."""
    rng = random.Random(f"golden-cubic:{n}")
    found = 0
    while True:
        g = random_cubic_3connected(n, rng, ensure_unbalanced=True)
        if not is_k_unbalanced(g, 2):
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
    """(name, graph, group spec, forbidden map or None for all-zero)."""
    pet, pet2 = petersen(), petersen_2neg()
    for spec in COMPOSITE:
        yield f"petersen-{spec}", pet, spec
        yield f"k6hint-petersen-{spec}", pet, spec
    yield "petersen-2neg-Z11", pet2, "Z11"
    yield "petersen-2neg-Z9", pet2, "Z9"
    specs = COMPOSITE + ("Z11",)
    i = 0
    for n in (8, 10, 12):
        for index in range(3):
            spec = specs[i % len(specs)]
            i += 1
            yield f"cubic{n}-{index}-{spec}", cubic(n, index), spec
    for n, index, k in ((10, 0, 1), (10, 1, 2), (12, 0, 1), (12, 1, 2)):
        for spec in ("Z6", "Z9"):
            yield f"contract{n}-{index}-{k}-{spec}", noncubic(n, index, k), spec


def main() -> int:
    emb = k6_projective_embedding()
    for name, g, spec in cases():
        A = parse_group(spec)
        fbar = random_fbar(name, A, g.m)
        t0 = time.perf_counter()
        cert = connect(g, A, fbar,
                       embedding=emb if name.startswith("k6hint-") else None)
        dt = time.perf_counter() - t0
        (HERE / f"{name}.sg").write_text(format_sg(g))
        (HERE / f"{name}.cert").write_text(format_avoidance(cert))
        print(f"{name}: {cert.strategy} n={g.n} m={g.m} {dt:.3f}s",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
