"""Command-line surface for the library: ``sg <command> ...``.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 for success or
an affirmative verdict, 1 for a negative verdict, 2 for input errors
(including an input outside the theorem's hypotheses), 3 when a
desk-scale limit refuses the instance or memory runs out, and 4 for an
internal error (a broken invariant, which is a bug).  Graph files use the
``sg`` text format; ``-`` (the default) reads from stdin so commands pipe.

Each command imports only the modules it runs, at the top of its handler:
every ``sg`` process starts cold, and compiling the construction stack
(flows, decompose, structures, duality, reduce) costs more than a small
command.  Module level holds only core and generators, whose GENERATORS
the parser lists, so ``sg gen`` and ``sg check`` load nothing else; groups
loads with ``connect``, ``oracle`` and ``verify`` of an avoidance
certificate, which lives there.  The library's records are plain classes
with hand-written methods, so no command imports the standard library's
record decorator, nor the inspect, ast and dis that it pulls in.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core import (DeskScaleError, SignedGraph, edge_connectivity, format_sg,
                   is_balanced, is_cyclically_k_edge_connected,
                   min_negative_edges, parse_sg)
from .generators import GENERATORS, negsun

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> SignedGraph:
    return parse_sg(_read_text(path))


# -- subcommands -------------------------------------------------------------

def _cmd_check(args) -> int:
    g = _load_graph(args.file)
    if args.kind == "balance":
        res = is_balanced(g)
        if res.balanced:
            print("balanced")
            return EXIT_OK
        cyc = " ".join(str(e + 1) for e in sorted(res.negative_cycle))
        print(f"unbalanced negative-cycle {cyc}")
        return EXIT_NO
    if args.kind == "unbalanced":
        mne = min_negative_edges(g, budget=2)
        label = ">2" if mne is None else str(mne)
        two = mne not in (0, 1)
        print(f"min-negative-edges {label}")
        print(f"2-unbalanced {'yes' if two else 'no'}")
        return EXIT_OK if two else EXIT_NO
    if args.kind == "connectivity":
        k = edge_connectivity(g)  # exact up to 4
        print(f"edge-connectivity {'>4' if k > 4 else k}")
        return EXIT_OK if k >= 3 else EXIT_NO
    ok = is_cyclically_k_edge_connected(g, 4)  # cyclic-connectivity
    print(f"cyclically-4-edge-connected {'yes' if ok else 'no'}")
    return EXIT_OK if ok else EXIT_NO


def _cmd_gen(args) -> int:
    name = args.name
    if name == "negsun":
        if args.n is None:
            raise ValueError("negsun needs a size argument, e.g. 'sg gen negsun 4'")
        sys.stdout.write(format_sg(negsun(args.n)))
    elif name == "k6-projective":
        from .duality import format_emb, k6_projective_embedding

        sys.stdout.write(format_emb(k6_projective_embedding()))
    else:
        sys.stdout.write(format_sg(GENERATORS[name]()))
    return EXIT_OK


def _parse_edge_list(text: str, m: int) -> set[int]:
    """The 0-based edges of --seed-edges' 1-based indices; a bad one is
    named with its place in the list."""
    out = set()
    for i, tok in enumerate(text.replace(",", " ").split(), start=1):
        try:
            e = int(tok) - 1
        except ValueError:
            raise ValueError(f"--seed-edges entry {i}: {tok!r} is not an"
                             " integer") from None
        if not (0 <= e < m):
            raise ValueError(f"--seed-edges entry {i}: edge {tok} out of range"
                             f" 1..{m}")
        out.add(e)
    return out


def _cmd_closure(args) -> int:
    from .structures import k_closure

    g = _load_graph(args.file)
    seed = _parse_edge_list(args.seed_edges, g.m)
    res = k_closure(g, seed, args.k)
    print(f"closure {len(res.closure)} of {g.m}")
    print("edges: " + " ".join(str(e + 1) for e in sorted(res.closure)))
    for i, (cyc, w) in enumerate(res.steps, start=1):
        ce = " ".join(str(e + 1) for e in cyc.edges)
        we = " ".join(str(e + 1) for e in sorted(w))
        print(f"step {i}: cycle {ce} absorbed {we}")
    return EXIT_OK if res.closure == frozenset(range(g.m)) else EXIT_NO


def _cmd_decompose(args) -> int:
    from . import decompose

    g = _load_graph(args.file)
    if args.mode == "tree-2base":
        cert = decompose.decompose_tree_2base(g)
    elif args.mode == "base-sun":
        cert = decompose.decompose_base_sun(g)
    else:
        cert = decompose.decompose_general(g)
    sys.stdout.write(decompose.format_certificate(cert))
    return EXIT_OK


def _cmd_connect(args) -> int:
    from . import flows
    from .groups import parse_group, parse_map

    g = _load_graph(args.file)
    A = parse_group(args.group)
    if args.forbidden is not None:
        fbar = parse_map(_read_text(args.forbidden), A, g.m)
    else:
        fbar = [A.zero] * g.m
    embedding = None
    if args.hint is not None:
        kind, _, path = args.hint.partition(":")
        if kind != "projective" or not path:
            raise ValueError("hint must look like projective:EMBFILE")
        from .duality import parse_emb

        embedding = parse_emb(_read_text(path))
    cert = flows.connect(g, A, fbar, embedding=embedding)
    sys.stdout.write(flows.format_avoidance(cert))
    return EXIT_OK if cert.flow is not None else EXIT_NO


# The options each oracle query reads; it refuses the others, which it
# would ignore.
_ORACLE_READS = {"a-connected": ("group", "samples", "seed"),
                 "nz-flow": ("group",), "k-flow": ("k",)}


def _cmd_oracle(args) -> int:
    from . import oracle
    from .groups import format_elem, format_map, parse_group

    for flag in ("group", "k", "samples", "seed"):
        if getattr(args, flag) is not None \
                and flag not in _ORACLE_READS[args.kind]:
            raise ValueError(f"{args.kind} does not read --{flag}")
    if args.seed is not None and args.samples is None:
        raise ValueError("--seed needs --samples: exact mode draws nothing")
    g = _load_graph(args.file)
    if args.kind == "a-connected":
        if args.group is None:
            raise ValueError("a-connected needs --group")
        A = parse_group(args.group)
        verdict = oracle.is_A_connected(
            g, A, samples=args.samples,
            seed=0 if args.seed is None else args.seed)
        print(f"a-connected {verdict.status} checked {verdict.checked}")
        if verdict.status == "no":
            beta = " ".join(map(format_elem, verdict.witness_beta))
            print(f"witness-boundary {beta}")
            if verdict.witness_fbar is not None:
                fb = " ".join(map(format_elem, verdict.witness_fbar))
                print(f"witness-forbidden {fb}")
        return EXIT_OK if verdict.status in ("yes", "sampled-yes") else EXIT_NO
    if args.kind == "nz-flow":
        if args.group is None:
            raise ValueError("nz-flow needs --group")
        A = parse_group(args.group)
        sol = oracle.has_nz_A_flow(g, A)
        if sol is None:
            print("UNSAT")
            return EXIT_NO
        print("flow")
        sys.stdout.write(format_map(sol))
        return EXIT_OK
    if args.k is None:  # k-flow
        raise ValueError("k-flow needs --k")
    sol = oracle.has_nz_k_flow(g, args.k)
    if sol is None:
        print("UNSAT")
        return EXIT_NO
    print("flow")
    for e, v in enumerate(sol):
        print(f"{e} {v}")
    return EXIT_OK


def _cmd_dual(args) -> int:
    from .duality import oriented_dual, parse_emb

    eg = parse_emb(_read_text(args.embfile))
    res = oriented_dual(eg)
    sys.stdout.write(format_sg(res.graph))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cert_text = _read_text(args.certfile)
    g = _load_graph(args.graphfile)
    # the format is named by the first word that starts no comment
    head = next((w[0] for w in map(str.split, cert_text.splitlines())
                 if w and not w[0].startswith("#")), None)
    if head is None:
        raise ValueError("empty certificate file")
    if head == "part":
        from . import decompose

        cert = decompose.parse_certificate(cert_text)
        ok, why = decompose.verify_partition(g, cert)
        print("OK" if ok else f"FAIL {why}")
        return EXIT_OK if ok else EXIT_NO
    if head == "cert":
        from .groups import parse_avoidance, verify_avoidance

        ok = verify_avoidance(g, parse_avoidance(cert_text))
        print("OK" if ok else "FAIL")
        return EXIT_OK if ok else EXIT_NO
    raise ValueError(f"unrecognized certificate header {head!r}")


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sg",
        description="signed-graph flows, decompositions and connectivity")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural predicates")
    p.add_argument("kind", choices=["balance", "unbalanced", "connectivity",
                                    "cyclic-connectivity"])
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="write a named example graph")
    p.add_argument("name", choices=[*GENERATORS, "negsun", "k6-projective"])
    p.add_argument("n", nargs="?", type=int, default=None,
                   help="size parameter (negsun only)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("closure", help="k-closure of a seed edge set")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed-edges", required=True,
                   help="1-based edge indices, comma or space separated")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("decompose", help="edge-partition certificates")
    p.add_argument("mode", choices=["tree-2base", "base-sun", "general"])
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("connect", help="build an avoidance flow certificate")
    p.add_argument("--group", required=True, help="e.g. Z6 or Z2xZ2xZ2")
    p.add_argument("--forbidden", default=None, metavar="MAPFILE",
                   help="edge map of forbidden values (default all-zero)")
    p.add_argument("--hint", default=None, metavar="projective:EMBFILE",
                   help="route through an embedded primal's oriented dual")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("oracle", help="exhaustive ground-truth queries")
    p.add_argument("kind", choices=list(_ORACLE_READS))
    p.add_argument("--group", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="sampling mode: number of (boundary, map) samples,"
                   " at least 1")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling mode's seed (default 0)")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("dual", help="oriented dual of an embedding")
    p.add_argument("embfile")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="re-check a certificate against a graph")
    p.add_argument("certfile")
    p.add_argument("graphfile", nargs="?", default="-")
    p.set_defaults(func=_cmd_verify)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # argparse cannot match a trailing FILE once an earlier positional and
    # options split the positionals into two runs (e.g. 'oracle k-flow
    # --k 5 FILE'); absorb a single leftover argument as the file.
    args, extra = parser.parse_known_args(argv)
    if extra:
        if (len(extra) == 1
                and (extra[0] == "-" or not extra[0].startswith("-"))
                and getattr(args, "file", None) == "-"):
            args.file = extra[0]
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except DeskScaleError as exc:
        print(f"desk-scale limit: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except MemoryError:
        print("desk-scale limit: out of memory", file=sys.stderr)
        return EXIT_SCALE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
