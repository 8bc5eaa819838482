"""Planarity of a multigraph by path embedding (Demoucron, Malgrange and
Pertuiset, 1964).

Loops and parallel edges never decide planarity, and a graph is planar
exactly when each of its blocks is, so is_planar tests the blocks of the
underlying simple graph one by one, as core._blocks, the one lowpoint
search, lists them.  A block of at most 8 edges is plane (K5 has 10 and
K3,3 has 9), and a block of more than 3n - 6 is not (Euler).  Any other
block is embedded one path at a time: from a cycle, whose two faces are
its two sides, each step takes a fragment (an edge off the embedding
with both ends on it, or a component off the embedding with its
attaching edges), lists the faces that hold all its attachments, and
draws one of its paths between two attachments across such a face,
which splits it in two.  A fragment with no such face proves the block
nonplanar; a fragment with one face must go there, and when every
fragment has two or more, any choice keeps a plane block embeddable.
Faces are the cyclic vertex sequences of their boundary cycles.
"""

from __future__ import annotations

from typing import Iterable

from .core import _blocks


def is_planar(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Has the multigraph on vertices 0..n-1 a plane embedding?"""
    return all(_block_is_planar(block) for block in _blocks(n, edges))


def _block_is_planar(adj: dict[int, set[int]]) -> bool:
    """Path embedding of a 2-connected simple graph on three or more
    vertices, given as adjacency sets."""
    n = len(adj)
    m = sum(map(len, adj.values())) // 2
    if m <= 8:
        return True
    if m > 3 * n - 6:
        return False
    # the first cycle: an edge u-v and a shortest path from v back to u
    u = next(iter(adj))
    v = next(iter(adj[u]))
    prev = {v: v}
    queue = [v]
    for x in queue:
        for y in adj[x]:
            if y not in prev and (x, y) != (v, u):
                prev[y] = x
                queue.append(y)
    cycle = [u]
    while cycle[-1] != v:
        cycle.append(prev[cycle[-1]])
    on = set(cycle)
    drawn = {frozenset(pair) for pair in zip(cycle, cycle[1:] + cycle[:1])}
    faces = [cycle, cycle[::-1]]
    while len(drawn) < m:
        chosen = None
        for attach, comp in _fragments(adj, on, drawn):
            fits = [k for k, face in enumerate(faces)
                    if attach.issubset(face)]
            if not fits:
                return False
            if chosen is None or len(fits) == 1:
                chosen = fits[0], attach, comp
                if len(fits) == 1:
                    break
        k, attach, comp = chosen
        path = _path_through(adj, on, comp) if comp else list(attach)
        face = faces.pop(k)
        i, j = face.index(path[0]), face.index(path[-1])
        inner = path[1:-1]
        if i < j:
            faces.append(face[i:j + 1] + inner[::-1])
            faces.append(face[j:] + face[:i + 1] + inner)
        else:
            faces.append(face[i:] + face[:j + 1] + inner[::-1])
            faces.append(face[j:i + 1] + inner)
        on.update(inner)
        drawn.update(frozenset(pair) for pair in zip(path, path[1:]))
    return True


def _fragments(adj: dict[int, set[int]], on: set[int], drawn: set):
    """Each fragment of the embedded subgraph, as its attachments and its
    vertices off the drawing: an undrawn edge between two drawn vertices
    (no vertices off it), then each component off the drawing with the
    drawn vertices it touches."""
    for x in on:
        for y in adj[x]:
            if y in on and x < y and frozenset((x, y)) not in drawn:
                yield {x, y}, []
    done: set[int] = set()
    for start in adj:
        if start in on or start in done:
            continue
        comp = [start]
        done.add(start)
        attach: set[int] = set()
        for x in comp:
            for y in adj[x]:
                if y in on:
                    attach.add(y)
                elif y not in done:
                    done.add(y)
                    comp.append(y)
        yield attach, comp


def _path_through(adj: dict[int, set[int]], on: set[int], comp: list[int]
                  ) -> list[int]:
    """A path from a drawn vertex a through the component (which touches
    two or more drawn vertices, the graph being 2-connected) to another
    drawn vertex b: breadth-first from the component's first vertex that
    touches a drawn vertex, until a vertex touching one other than a."""
    inside = set(comp)
    first = next(x for x in comp if not adj[x].isdisjoint(on))
    a = next(y for y in adj[first] if y in on)
    prev = {first: a}
    queue = [first]
    for x in queue:
        b = next((y for y in adj[x] if y in on and y != a), None)
        if b is not None:
            path = [b, x]
            while path[-1] != a:
                path.append(prev[path[-1]])
            return path[::-1]
        for y in adj[x]:
            if y in inside and y not in prev:
                prev[y] = x
                queue.append(y)
    raise AssertionError("a fragment of a 2-connected graph touches the"
                         " drawing once")
