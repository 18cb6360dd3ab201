import random

import pytest
from hypothesis import given, strategies as st

from barnette.graphs import BipartiteGraph, GraphError
from barnette.io import (
    adjacency_bits,
    detect_format,
    from_bgf,
    from_graph6,
    split_records,
    to_bgf,
    to_graph6,
)


def test_graph6_known_values(cube, k33):
    # reference strings produced by networkx's encoder on the same labellings
    assert to_graph6(k33) == "EFz_"
    assert to_graph6(cube) == "Gl`HGs"
    # decode fixes its own edge-id order (column order), so compare as sets
    assert set(from_graph6("EFz_").edges) == set(k33.edges)
    assert set(from_graph6(to_graph6(cube)).edges) == set(cube.edges)


def test_graph6_header_prefix_accepted(k33):
    assert set(from_graph6(">>graph6<<EFz_").edges) == set(k33.edges)


def test_graph6_rejects_garbage():
    with pytest.raises(GraphError):
        from_graph6("E\x1fo_")
    with pytest.raises(GraphError):
        from_graph6("Ebo")  # body one byte short
    with pytest.raises(GraphError):
        from_graph6("")


@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.sets(
    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    .map(lambda p: (min(p), max(p)))
    .filter(lambda p: p[0] != p[1])))))
def test_graph6_round_trip(data):
    n, edges = data
    g = BipartiteGraph(n, tuple(sorted(edges)))
    back = from_graph6(to_graph6(g))
    assert back.n == g.n
    assert set(back.edges) == set(g.edges)


def _reference_graph6_edges(line: str) -> list[tuple[int, int]]:
    """Edges of a graph6 line by walking every triangle bit in column order.

    The straightforward decoder that from_graph6 replaced; edge ids are
    this order, so the fast decoder must reproduce it exactly.
    """
    data = [ord(c) - 63 for c in line]
    if data[0] == 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n, body = data[0], data[1:]
    edges = []
    b = 0
    for j in range(1, n):
        for i in range(j):
            if (body[b // 6] >> (5 - b % 6)) & 1:
                edges.append((i, j))
            b += 1
    return edges


def test_graph6_decoder_matches_reference_order():
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 12, 62, 63, 64, 90):
        for density in (0.0, 0.05, 0.5, 1.0):
            pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
            rng.shuffle(pairs)  # encoding must not depend on the input edge order
            line = to_graph6(BipartiteGraph(n, tuple(pairs)))
            got = from_graph6(line)
            assert got.n == n
            assert list(got.edges) == _reference_graph6_edges(line)
    # padding bits past n(n-1)/2 are ignored: "~" sets all six, n = 3 uses three
    assert list(from_graph6("B~").edges) == _reference_graph6_edges("B~") == [(0, 1), (0, 2), (1, 2)]


def _reference_graph6_packer(n: int, packed: bytes) -> str:
    """The bit-by-bit encoder the 3-byte packer replaced."""
    nbits = n * (n - 1) // 2
    head = [n + 63] if n <= 62 else [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    out = bytearray(head)
    for start in range(0, nbits, 6):
        group = 0
        for b in range(start, start + 6):
            bit = packed[b >> 3] >> (7 - (b & 7)) & 1 if b < nbits else 0
            group = group << 1 | bit
        out.append(group + 63)
    return out.decode("ascii")


def test_graph6_packer_matches_the_bit_by_bit_encoder():
    # n <= 62 takes the 1-byte size form, n >= 63 the 4-byte one; n < 48
    # gives n(n-1)/2 every residue it takes mod 24, the packer's word size
    rng = random.Random(33)
    for n in [*range(48), 62, 63, 64, 65, 90, 130]:
        for density in (0.0, 0.3, 1.0):
            pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
            g = BipartiteGraph(n, tuple(pairs))
            assert to_graph6(g) == _reference_graph6_packer(n, adjacency_bits(g, range(n)))
    assert to_graph6(BipartiteGraph(63, ()))[:4] == "~??~"


def test_bgf_round_trip_plain(heawood):
    text = to_bgf(heawood)
    g, rot, cuts = from_bgf(text)
    assert g.edges == heawood.edges
    assert g.colour == heawood.colour
    assert rot is None
    assert cuts == []
    assert to_bgf(g) == text  # byte-identical re-serialization


def test_bgf_round_trip_with_rotation_and_cuts(cube, cube_rotation):
    cuts = [(0, (0, 5, 9)), (1, (2, 3, 11))]
    text = to_bgf(cube, rotation=cube_rotation.rotation, cuts=cuts)
    g, rot, parsed = from_bgf(text)
    assert g.edges == cube.edges
    assert rot == cube_rotation.rotation
    assert parsed == [(0, (0, 5, 9)), (1, (2, 3, 11))]
    assert to_bgf(g, rotation=rot, cuts=parsed) == text


def test_bgf_uncoloured_uses_question_marks():
    triangle = BipartiteGraph(3, ((0, 1), (1, 2), (0, 2)))
    text = to_bgf(triangle)
    assert text.splitlines()[1] == "???"
    assert from_bgf(text)[0].colour is None
    path = "3 2\n???\n0 1\n1 2\n"
    parsed, _, _ = from_bgf(path)
    assert parsed.colour == ("A", "B", "A")


def test_bgf_rejects_partial_rotation(cube, cube_rotation):
    text = to_bgf(cube, rotation=cube_rotation.rotation)
    clipped = "\n".join(text.splitlines()[:-1]) + "\n"  # drop rot line for vertex 7
    with pytest.raises(GraphError):
        from_bgf(clipped)


def test_bgf_rejects_mixed_colour_string():
    with pytest.raises(GraphError):
        from_bgf("2 1\nA?\n0 1\n")


def test_split_records(cube, k33):
    blob = to_bgf(cube) + "\n" + to_bgf(k33) + "\n"
    parts = split_records(blob)
    assert len(parts) == 2
    assert from_bgf(parts[0])[0].edges == cube.edges
    assert from_bgf(parts[1])[0].edges == k33.edges


def test_detect_format(cube):
    assert detect_format(to_bgf(cube)) == "bgf"
    assert detect_format(to_graph6(cube) + "\n") == "graph6"
    with pytest.raises(GraphError):
        detect_format("\n\n")
