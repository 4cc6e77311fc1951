"""cgramap: CGRA mapping toolkit.

Place dataflow-graph operations onto the function units of a modulo routing
resource graph and route every dataflow edge along vertex-compatible paths:
a neighbourhood-restricted placement search, then a search over cached
routes for each placement. A per-node baseline ILP formulation, solved by
a built-in deterministic branch-and-bound engine, cross-checks them.
"""

__version__ = "0.1.0"
