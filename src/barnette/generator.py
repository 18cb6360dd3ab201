"""Exhaustive generation of the class from the cube, with families attached.

Breadth-first by vertex count: every graph is expanded at one vertex of
each automorphism orbit (the cube gadget) and at one facial edge pair of
each orbit (the quadrilateral), and each record carries the laminar family
of tight cuts maintained incrementally through the surgeries.  An empty
family marks a brace, which is the only case whose Hamiltonicity ever needs
checking downstream.

Duplicates are rejected by the planar code of the rotation system each
candidate carries (``embedding.planar_code_and_automorphisms``), which
decides isomorphism because both surgeries keep the graph 3-connected
(``expansion`` says why); buckets are keyed and ordered by it.  A candidate
with a new code gets its family and its name, the graph6 string under the
code's BFS order: a canonical form on the class, independent of ``canon``.

The same scan gives each graph its automorphisms, held until it is
expanded.  Both surgeries commute with automorphisms and mirrors, so the
candidate at a vertex, or at a pair of edges (two edges of a 3-connected
plane graph share at most one face), has the planar code of the candidate
at its orbit's first member and would be rejected: skipping it is exact.
Sites keep their order and only the first of each orbit is expanded, so
every record is the one that expanding every site gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .catalog import catalog
from .embedding import (
    RotationEmbedding,
    euler_check,
    facial_c4_expansion_sites,
    planar_code_and_automorphisms,
)
from .expansion import (
    ExpansionSite,
    TightCutFamily,
    c4_expand,
    cube_expand,
    update_family_c4,
    update_family_cube,
)
from .graphs import BipartiteGraph, GraphError
from .hamiltonicity import HamiltonicityEngine, is_pk_hamiltonian, has_h_plus_minus
from .io import adjacency_bits, graph6_from_bitstring
from .matching import is_brace
from .tightcut import (
    cubic_three_connected,
    family_is_laminar,
    find_tight_cuts_cubic,
    is_tight,
)


@dataclass(frozen=True)
class GenerationRecord:
    """A class member; ``canonical`` names it, and ``parent_canonical`` the
    record expanded at ``site``, by graph6 under the planar code's order."""

    graph: BipartiteGraph
    embedding: RotationEmbedding
    family: TightCutFamily
    canonical: str
    parent_canonical: Optional[str] = None
    site: Optional[ExpansionSite] = None

    @property
    def is_brace(self) -> bool:
        return not self.family

    @property
    def n(self) -> int:
        return self.graph.n


def _family_bound_ok(fam: TightCutFamily, n: int) -> bool:
    return 6 * len(fam) <= n - 8


def generate(n_max: int, braces_only: bool = False) -> Iterator[GenerationRecord]:
    """One record per isomorphism class with at most n_max vertices."""
    if n_max < 8 or n_max % 2 != 0:
        raise GraphError("generation bound must be an even number, at least 8")
    seed = catalog("cube")
    code, order, group = planar_code_and_automorphisms(seed.graph, seed.rotation)
    root = GenerationRecord(
        graph=seed.graph,
        embedding=seed.rotation,
        family=(),
        canonical=graph6_from_bitstring(8, adjacency_bits(seed.graph, order)),
    )
    buckets: dict[int, dict[tuple[int, ...], GenerationRecord]] = {8: {code: root}}
    # automorphisms of the records still to be expanded, dropped on expansion
    groups = {code: group}

    def admit(parent, site, g2, emb2, update_family, *args) -> None:
        """Keep a candidate whose planar code is new, with its updated family."""
        code, order, group = planar_code_and_automorphisms(g2, emb2)
        level = buckets.setdefault(g2.n, {})
        if code in level:
            return
        if g2.n + 4 <= n_max:
            groups[code] = group
        level[code] = GenerationRecord(
            graph=g2,
            embedding=emb2,
            family=update_family(parent.family, g2, *args),
            canonical=graph6_from_bitstring(g2.n, adjacency_bits(g2, order)),
            parent_canonical=parent.canonical,
            site=site,
        )

    for n in range(8, n_max + 1, 2):
        bucket = buckets.pop(n, None)  # complete: admit only fills n + 4 and n + 6
        if not bucket:
            continue
        for code in sorted(bucket):
            rec = bucket[code]
            if not braces_only or rec.is_brace:
                yield rec
            if n + 4 > n_max:
                continue
            g, emb = rec.graph, rec.embedding
            group = groups.pop(code)
            if n + 6 <= n_max:
                for v in _first_of_each_orbit(range(n), lambda v: (v,), group):
                    g2, emb2, cut = cube_expand(g, emb, v)
                    site = ExpansionSite(kind="cube", vertex=v)
                    admit(rec, site, g2, emb2, update_family_cube, v, cut)
            edge_maps = [
                [g.edge_id(gamma[a], gamma[b]) for a, b in g.edges] for gamma in group
            ]
            sites = facial_c4_expansion_sites(g, emb)
            for s in _first_of_each_orbit(sites, lambda s: (s.eid_uv, s.eid_xy), edge_maps):
                g2, emb2 = c4_expand(g, emb, s)
                site = ExpansionSite(kind="c4", c4=s)
                admit(rec, site, g2, emb2, update_family_c4, s)


def _first_of_each_orbit(items, key, group):
    """The items in order, less each one whose key lies in an earlier orbit;
    key(item) is a tuple of vertices or edge ids, which group's maps move."""
    done = set()
    for item in items:
        k = frozenset(key(item))
        if k not in done:
            done.update(frozenset(gamma[i] for i in k) for gamma in group)
            yield item


def class_counts(n_max: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for rec in generate(n_max):
        counts[rec.n] = counts.get(rec.n, 0) + 1
    return counts


def verify_record(rec: GenerationRecord) -> dict:
    """Re-derive everything the record claims; the report lists each check.

    The name is not re-checked: ``generate`` takes it from the planar code
    and ``barnette verify`` from ``canonical_form``, each on this same frozen
    graph.  A graph
    that is not cubic and 3-connected fails ``three_connected`` and
    ``family_complete`` rather than raising, and one that is not bipartite
    fails every check that needs the colouring.
    """
    g = rec.graph
    checks: dict[str, bool] = {}
    checks["cubic"] = g.is_regular(3)
    checks["bipartite"] = bipartite = g.colour is not None
    checks["three_connected"] = checks["cubic"] and cubic_three_connected(g)
    checks["planar"] = euler_check(g, rec.embedding)
    checks["family_tight"] = bipartite and all(
        not c.is_trivial and is_tight(g, c) for c in rec.family
    )
    checks["family_laminar"] = family_is_laminar(rec.family)
    checks["family_bound"] = _family_bound_ok(rec.family, g.n)

    # the 3-cut scan needs both; its cuts never cross, so the family is all of them
    checks["family_complete"] = bipartite and checks["three_connected"] and {
        c.edge_ids for c in find_tight_cuts_cubic(g)
    } == {c.edge_ids for c in rec.family}
    checks["brace_flag"] = bipartite and rec.is_brace == is_brace(g)
    checks["ok"] = all(checks.values())
    return checks


def survey(
    n_max: int, with_p2: bool = False, with_h_plus_minus: bool = False
) -> list[dict]:
    """Per-order summary rows: counts, braces, and Hamiltonicity confirmations."""
    rows: dict[int, dict] = {}
    for rec in generate(n_max):
        row = rows.setdefault(
            rec.n,
            {
                "n": rec.n,
                "graphs": 0,
                "braces": 0,
                "hamiltonian": 0,
            },
        )
        row["graphs"] += 1
        row["braces"] += rec.is_brace
        engine = HamiltonicityEngine(rec.graph)
        row["hamiltonian"] += engine.cycle_with() is not None
        if with_p2:
            row["p2"] = row.get("p2", 0) + bool(
                is_pk_hamiltonian(rec.graph, 2, engine=engine)
            )
        if with_h_plus_minus:
            row["h_plus_minus"] = row.get("h_plus_minus", 0) + bool(
                has_h_plus_minus(rec.graph, engine=engine)
            )
    return [rows[n] for n in sorted(rows)]
