"""Whole-binary call graph.

Direct call edges come from resolved call sites; indirect call sites
are kept aside for DTaint's data-structure-similarity resolution, which
adds edges later via :meth:`CallGraph.add_indirect_edge`.
"""

import networkx as nx

from repro.ir.irsb import JumpKind


class CallGraph:
    """A directed call graph over function names.

    ``graph`` holds names and per-edge ``callsites``/``similarity``
    data.  Every read goes through methods that do not materialise
    networkx's cached views (``graph.edges``, ``graph.nodes``,
    ``graph.adj``, ``graph.degree``): a cached view refers back to its
    graph, and that reference cycle would keep the call sites -- and
    through them the image's CFG/IR -- alive until a full cyclic
    collection.
    """

    def __init__(self):
        self.graph = nx.DiGraph()
        self.indirect_sites = []  # (caller_name, CallSite)

    def add_function(self, function):
        self.graph.add_node(function.name)

    def add_edge(self, caller, callee, callsite=None):
        self.graph.add_edge(caller, callee)
        sites = self.graph.get_edge_data(caller, callee).setdefault(
            "callsites", []
        )
        if callsite is not None:
            sites.append(callsite)

    def add_indirect_edge(self, caller, callee, callsite, similarity):
        """Record an indirect-call edge resolved by layout similarity."""
        self.add_edge(caller, callee, callsite)
        self.graph.get_edge_data(caller, callee)["similarity"] = similarity
        callsite.target_name = callee

    def callees(self, name):
        return list(self.graph.successors(name))

    def callers(self, name):
        return list(self.graph.predecessors(name))

    def edges(self, names=None):
        """``(caller, callee)`` pairs in insertion order, optionally
        restricted to edges with both ends in ``names``."""
        graph = self.graph
        for caller in graph:
            if names is not None and caller not in names:
                continue
            for callee in graph.successors(caller):
                if names is None or callee in names:
                    yield caller, callee

    @property
    def edge_count(self):
        return sum(1 for _edge in self.edges())

    def bottom_up_order(self, names=None):
        """Functions in callees-before-callers order (paper §III-E).

        Cycles (recursion) are collapsed into SCCs whose members are
        emitted together in an arbitrary internal order.
        """
        # Condense a throwaway copy of the (sub)graph: networkx caches
        # views on both graphs, and each view refers back to its graph.
        # Clearing the two copies afterwards leaves those cycles empty.
        if names is not None:
            names = set(names)
        graph = nx.DiGraph()
        graph.add_nodes_from(
            n for n in self.graph if names is None or n in names
        )
        graph.add_edges_from(self.edges(names))
        condensed = nx.condensation(graph)
        order = []
        for scc_id in nx.topological_sort(condensed):
            members = condensed.nodes[scc_id]["members"]
            order.extend(sorted(members))
        graph.clear()
        condensed.clear()
        # Topological order of the condensation is callers-first; we
        # want callees first.
        return list(reversed(order))


def build_call_graph(functions):
    """Build the call graph from recovered functions.

    ``functions`` maps name to :class:`~repro.cfg.model.Function`
    (imports included).  Returns a :class:`CallGraph`.
    """
    by_addr = {f.addr: f for f in functions.values()}
    call_graph = CallGraph()
    for function in functions.values():
        call_graph.add_function(function)
    for function in functions.values():
        for callsite in function.call_sites:
            if callsite.is_indirect:
                call_graph.indirect_sites.append((function.name, callsite))
                continue
            callee = by_addr.get(callsite.target_addr)
            if callee is None:
                continue
            callsite.target_name = callee.name
            call_graph.add_edge(function.name, callee.name, callsite)
    return call_graph
