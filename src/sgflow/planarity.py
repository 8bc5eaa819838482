"""Planarity of a multigraph by path embedding (Demoucron, Malgrange and
Pertuiset, 1964).

Loops and parallel edges never decide planarity, and a graph is planar
exactly when each of its blocks is, so is_planar tests the blocks of the
underlying simple graph one by one, as core._blocks, the one lowpoint
search, lists them.  A block of at most 8 edges is plane (K5 has 10 and
K3,3 has 9), and a block of more than 3n - 6 is not (Euler).  Any other
block is read as a small SignedGraph and embedded one path at a time with
core's searches, the drawing held as a set of its edge indices.  It
starts from a cycle, edge 0 and core.shortest_path back between its ends,
whose two faces are its two sides.  Each step takes a fragment (an edge
off the drawing with both ends on it, or a component off the drawing,
a tree of core.spanning_forest read by core._tree_order, with its
attaching edges), lists the faces that hold all its attachments, and
draws a path of it across such a face, core.shortest_path from one
attachment to the others over the fragment's edges, which splits the
face in two.  A fragment with no such face proves the block nonplanar; a
fragment with one face must go there, and when every fragment has two or
more, any choice keeps a plane block embeddable.  Faces are the cyclic
vertex sequences of their boundary cycles.
"""

from __future__ import annotations

from typing import Iterable

from .core import (PLUS, SignedGraph, _blocks, _tree_order, shortest_path,
                   spanning_forest)


def is_planar(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Has the multigraph on vertices 0..n-1 a plane embedding?"""
    return all(_block_is_planar(block) for block in _blocks(n, edges))


def _block_is_planar(adj: dict[int, set[int]]) -> bool:
    """Path embedding of a 2-connected simple graph on three or more
    vertices, given as adjacency sets."""
    index = {x: i for i, x in enumerate(adj)}
    g = SignedGraph(len(adj), tuple((index[x], index[y], PLUS)
                                    for x in adj for y in adj[x] if x < y))
    if g.m <= 8:
        return True
    if g.m > 3 * g.n - 6:
        return False
    u, v, _ = g.edges[0]
    _, back, _ = shortest_path(g, range(1, g.m), (v,), (u,))
    cycle = _walk(g, v, back)
    on = set(cycle)
    drawn = {0, *back}
    faces = [cycle, cycle[::-1]]
    while len(drawn) < g.m:
        chosen = None
        for attach, edges in _fragments(g, on, drawn):
            fits = [k for k, face in enumerate(faces)
                    if attach.issubset(face)]
            if not fits:
                return False
            if chosen is None or len(fits) == 1:
                chosen = fits[0], attach, edges
                if len(fits) == 1:
                    break
        k, attach, edges = chosen
        a = min(attach)
        _, path, _ = shortest_path(g, edges, (a,), attach - {a})
        walk = _walk(g, a, path)
        face = faces.pop(k)
        i, j = face.index(walk[0]), face.index(walk[-1])
        inner = walk[1:-1]
        if i < j:
            faces.append(face[i:j + 1] + inner[::-1])
            faces.append(face[j:] + face[:i + 1] + inner)
        else:
            faces.append(face[i:] + face[:j + 1] + inner[::-1])
            faces.append(face[j:i + 1] + inner)
        on.update(inner)
        drawn.update(path)
    return True


def _walk(g: SignedGraph, x: int, path: list[int]) -> list[int]:
    """The vertices of a path of g's edges from x, in order."""
    walk = [x]
    for e in path:
        walk.append(g.other_end(e, walk[-1]))
    return walk


def _fragments(g: SignedGraph, on: set[int], drawn: set[int]):
    """Each fragment of the drawing, as its attachments and its edges: an
    undrawn edge between two drawn vertices, then each component off the
    drawing with its edges and the edges that attach it, the component
    found as a tree of a spanning forest of the undrawn edges off the
    drawing."""
    rest = [e for e in range(g.m) if e not in drawn]
    forest = spanning_forest(g, [e for e in rest if on.isdisjoint(g.ends(e))])
    order, up = _tree_order(g, forest, [x for x in range(g.n) if x not in on])
    root: dict[int, int] = {}
    for x in order:  # a parent comes before its children
        root[x] = x if up[x] < 0 else root[g.other_end(up[x], x)]
    parts: dict[int, tuple[set[int], list[int]]] = {}
    for e in rest:
        u, v, _ = g.edges[e]
        if u in on and v in on:
            yield {u, v}, [e]
        else:
            attach, edges = parts.setdefault(root[v if u in on else u],
                                             (set(), []))
            attach.update(on.intersection((u, v)))
            edges.append(e)
    yield from parts.values()
