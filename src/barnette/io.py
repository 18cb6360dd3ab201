"""Graph serialization: the bgf/1 text format and the graph6 codec.

bgf/1 layout::

    n m
    <colour string: n characters from {A, B, ?}>
    u v            (m lines, 0-based endpoints; line order = edge id)
    rot v: e1 e2 e3      (optional, one line per vertex, edge ids)
    cut label: e1 e2 e3  (optional, labelled cut triples; generator output)

Multiple records in one file are separated by single blank lines.  The
serializer is deterministic, so serialize(parse(text)) == text for files it
produced itself.  Every bipartite graph carries its colouring, so the
all-``?`` colour line is written only for a graph with an odd cycle, and a
``?`` record of a bipartite graph is read back coloured.

graph6 follows the published byte-level definition: N(n) followed by the
upper-triangle adjacency bits in column order, 6 bits per byte, each byte
offset by 63.  The packer takes those bits 8 to a byte, zero-padded, and
cuts every 3 bytes into four 6-bit groups.
"""

from __future__ import annotations

import re
from math import isqrt
from typing import Optional, Sequence

from .graphs import BipartiteGraph, GraphError


# ----- graph6 -----


def _n_encode(n: int) -> bytes:
    if n < 0:
        raise GraphError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    raise GraphError("graph too large for this graph6 writer")


def graph6_from_bitstring(n: int, packed: bytes) -> str:
    """graph6 string from n and upper-triangle bits packed MSB-first in bytes.

    Bit b of the column-order triangle sequence is bit (7 - b % 8) of
    packed[b // 8]; the caller supplies the n(n-1)/2 bits and zero-pads the
    last byte.
    """
    out = bytearray()
    for k in range(0, len(packed), 3):
        word = int.from_bytes(packed[k : k + 3].ljust(3, b"\0"), "big")
        out += bytes((word >> s & 63) + 63 for s in (18, 12, 6, 0))
    return (_n_encode(n) + out[: (n * (n - 1) // 2 + 5) // 6]).decode("ascii")


def adjacency_bits(g: BipartiteGraph, perm: Sequence[int]) -> bytes:
    """Upper-triangle adjacency bits of g under labelling perm, packed as
    ``graph6_from_bitstring`` reads them.

    perm[new_label] = old vertex.
    """
    pos = [0] * g.n
    for new, old in enumerate(perm):
        pos[old] = new
    buf = bytearray((g.n * (g.n - 1) // 2 + 7) // 8)
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        if i > j:
            i, j = j, i
        b = j * (j - 1) // 2 + i
        buf[b >> 3] |= 0x80 >> (b & 7)
    return bytes(buf)


def to_graph6(g: BipartiteGraph) -> str:
    return graph6_from_bitstring(g.n, adjacency_bits(g, range(g.n)))


def from_graph6(line: str) -> BipartiteGraph:
    """Decode one graph6 line; the graph gets its colouring when it is built.

    Edge ids follow the column order of the bits; only the non-zero 6-bit
    groups are visited, so the cost follows the edges rather than n(n-1)/2.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        raw = s.encode("ascii")
    except UnicodeEncodeError:
        raise GraphError("invalid graph6 bytes") from None
    if not raw:
        raise GraphError("empty graph6 line")
    if min(raw) < 63 or max(raw) > 126:
        raise GraphError("invalid graph6 bytes")
    if raw[0] == 126:
        if len(raw) < 4:
            raise GraphError("truncated graph6 size")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError("graph6 length does not match vertex count")
    edges = []
    for group in re.finditer(rb"[^?]", body):  # "?" is an all-zero group
        pos = group.start()
        bits = body[pos] - 63
        for k in range(6):
            b = 6 * pos + k
            if (bits >> (5 - k)) & 1 and b < nbits:
                j = (1 + isqrt(8 * b + 1)) // 2  # b = j(j-1)/2 + i, 0 <= i < j
                edges.append((b - j * (j - 1) // 2, j))
    return BipartiteGraph(n, tuple(edges))


# ----- bgf/1 -----


def to_bgf(
    g: BipartiteGraph,
    rotation: Optional[Sequence[Sequence[int]]] = None,
    cuts: Optional[Sequence[tuple[int, Sequence[int]]]] = None,
) -> str:
    """Serialize one bgf/1 record (without trailing blank line)."""
    lines = [f"{g.n} {g.edge_count}"]
    if g.colour is None:
        lines.append("?" * g.n)
    else:
        lines.append("".join(g.colour))
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    if rotation is not None:
        for v in range(g.n):
            ids = " ".join(str(e) for e in rotation[v])
            lines.append(f"rot {v}: {ids}")
    if cuts is not None:
        for label, edge_ids in cuts:
            ids = " ".join(str(e) for e in sorted(edge_ids))
            lines.append(f"cut {label}: {ids}")
    return "\n".join(lines) + "\n"


def from_bgf(
    text: str,
) -> tuple[BipartiteGraph, Optional[tuple[tuple[int, ...], ...]], list[tuple[int, tuple[int, ...]]]]:
    """Parse one bgf/1 record; returns (graph, rotation or None, cut triples)."""
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) < 2:
        raise GraphError("truncated bgf record")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError("bgf header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    colour_s = lines[1].strip()
    if len(colour_s) != n or any(c not in "AB?" for c in colour_s):
        raise GraphError("bad colour string")
    colour: Optional[tuple[str, ...]]
    if "?" in colour_s:
        if colour_s != "?" * n:
            raise GraphError("colour string mixes '?' with colours")
        colour = None
    else:
        colour = tuple(colour_s)
    if len(lines) < 2 + m:
        raise GraphError("bgf record missing edge lines")
    edges = []
    for ln in lines[2 : 2 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    g = BipartiteGraph(n, tuple(edges), colour)
    rot: dict[int, tuple[int, ...]] = {}
    cuts: list[tuple[int, tuple[int, ...]]] = []
    for ln in lines[2 + m :]:
        parts = ln.split()
        if parts[0] not in ("rot", "cut"):
            raise GraphError(f"unrecognized bgf line: {ln!r}")
        if len(parts) < 2:
            raise GraphError(f"bgf line has no label: {ln!r}")
        label = int(parts[1].rstrip(":"))
        ids = tuple(int(x) for x in parts[2:])
        if parts[0] == "rot":
            rot[label] = ids
        else:
            cuts.append((label, ids))
    rotation: Optional[tuple[tuple[int, ...], ...]] = None
    if rot:
        if sorted(rot) != list(range(n)):
            raise GraphError("rot lines must cover every vertex exactly once")
        rotation = tuple(rot[v] for v in range(n))
    return g, rotation, cuts


def split_records(text: str) -> list[str]:
    """Split a multi-record bgf file on blank lines."""
    blocks = []
    current: list[str] = []
    for ln in text.splitlines():
        if ln.strip() == "":
            if current:
                blocks.append("\n".join(current) + "\n")
                current = []
        else:
            current.append(ln)
    if current:
        blocks.append("\n".join(current) + "\n")
    return blocks


def detect_format(text: str) -> str:
    """'bgf' if the first non-blank line looks like an 'n m' header, else 'graph6'."""
    for ln in text.splitlines():
        if ln.strip():
            parts = ln.split()
            if len(parts) == 2 and all(p.isdigit() for p in parts):
                return "bgf"
            return "graph6"
    raise GraphError("empty input")
