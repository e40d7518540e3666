"""networkx interop: incidence graphs, join forests, cross-checks.

The query hypergraph's *incidence graph* (attributes ∪ edges as nodes,
membership as arcs) is the object Berge-acyclicity is defined on
(Section 1.3).  This module materializes it as a
:class:`networkx.Graph` so users can visualize queries, compute graph
metrics, or feed them to other tooling — and so tests can cross-check
our union-find acyclicity test against ``networkx.is_forest``.

Also derives the *join forest* (edges as nodes, one arc per ear
attachment) from the elimination order — the tree Yannakakis-style
processing walks.

networkx is not a runtime dependency: it comes with the ``test``
extra (``pip install -e ".[test]"``).  Nothing else in the package
imports this module.
"""

from __future__ import annotations

import networkx as nx

from repro.query.hypergraph import JoinQuery
from repro.query.reduce import elimination_order


def incidence_graph(query: JoinQuery) -> "nx.Graph":
    """The bipartite attribute–edge incidence graph.

    Nodes carry a ``kind`` attribute (``"relation"`` or
    ``"attribute"``); names are prefixed (``"E:"``/``"A:"``) so a
    relation and an attribute may share a name without colliding.
    """
    g = nx.Graph()
    for e in query.edge_names:
        g.add_node(f"E:{e}", kind="relation", name=e)
    for a in sorted(query.attributes):
        g.add_node(f"A:{a}", kind="attribute", name=a)
    for e in query.edge_names:
        for a in sorted(query.edges[e]):
            g.add_edge(f"E:{e}", f"A:{a}")
    return g


def is_berge_acyclic_nx(query: JoinQuery) -> bool:
    """Berge-acyclicity via networkx (reference implementation).

    A graph is a forest iff every connected component has
    ``#edges == #nodes - 1``; :func:`networkx.is_forest` checks exactly
    that.  Used in tests to cross-validate
    :func:`repro.query.hypergraph.is_berge_acyclic`.
    """
    g = incidence_graph(query)
    if g.number_of_nodes() == 0:
        return True
    return nx.is_forest(g)


def join_forest(query: JoinQuery) -> "nx.DiGraph":
    """The ear-attachment forest over relations.

    One node per relation; an arc ``child → parent`` for every
    elimination step with a parent, labelled by the shared attribute.
    Roots (last relation of each component, and islands) have no
    outgoing arc.
    """
    g = nx.DiGraph()
    for e in query.edge_names:
        g.add_node(e)
    for step in elimination_order(query):
        if step.parent is not None:
            g.add_edge(step.edge, step.parent, attribute=step.shared_attr)
    return g


def hypergraph_stats(query: JoinQuery) -> dict[str, int | float]:
    """Summary metrics of the query's incidence structure."""
    g = incidence_graph(query)
    degrees = [d for _, d in g.degree()]
    return {
        "relations": len(query.edges),
        "attributes": len(query.attributes),
        "incidences": g.number_of_edges(),
        "components": nx.number_connected_components(g)
        if g.number_of_nodes() else 0,
        "max_degree": max(degrees, default=0),
        "diameter_upper": max(
            (max(nx.eccentricity(g.subgraph(c)).values())
             for c in nx.connected_components(g)), default=0)
        if g.number_of_nodes() else 0,
    }
