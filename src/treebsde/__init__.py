"""Tree-based numerics for time-inconsistent control of multidimensional BSDEs.

Modules:
  lattice     +/-sqrt(dt) scenario trees with exact conditional expectations of
              per-level node arrays and the ancestor histories of a level's nodes
  bsde        controlled BSDE solving, policy enumeration (whole tree or one
              node's subtree), reachable sets, the scalar envelope
  duality     dual control value W, HJB finite differences, nodal sets, geometric DPP
  dynutil     dynamic utilities, comparison checks, the linear switching construction
  master      forward value, path-derivative probes, master-equation residuals
  benchmarks  four closed-form benchmark problems with analytic references
  problems    the problem catalogue shared by experiments, acceptance tests and scripts
  artifacts   the CSV and JSON artifact format every run and exporter writes
  experiments / cli   reproducible experiment runners and the command line
"""

from treebsde.lattice import (
    TimeGrid, ScenarioTree,
    build_tree, conditional_expectation,
    TreeSizeError, ModeError,
)

__all__ = [
    "TimeGrid", "ScenarioTree",
    "build_tree", "conditional_expectation",
    "TreeSizeError", "ModeError",
]

__version__ = "0.1.0"
