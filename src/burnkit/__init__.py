"""burnkit: certified burning schedules for trees without degree-2 vertices,
an exact burning-number solver, and spanning-tree bounds for general graphs.
"""

from .burning import (
    BurnMap,
    BurningSchedule,
    burning_number_exact,
    closed_form_rounds,
    is_complete,
    schedule_from_json_dict,
    simulate,
    simulate_modified,
)
from .errors import BurnkitError
from .graph import (
    BridgeSide,
    Graph,
    Tree,
    bridge_component,
    build_graph,
    build_tree,
    distance,
    format_edge_list,
    internal_vertex_count,
    is_hit,
    parse_edge_list,
    smooth,
)
from .hit import (
    Anchor,
    CertifiedPlan,
    augment_degree2,
    find_anchor,
    hit_schedule,
    lift_schedule,
    sqrt_ceil,
    tree_schedule_via_augmentation,
)
from .spanning import (
    HistResult,
    burning_number_via_spanning_trees,
    enumerate_spanning_trees,
    find_hist,
    hist_bound,
    matrix_tree_count,
)

__all__ = [
    "Anchor",
    "BridgeSide",
    "BurnMap",
    "BurningSchedule",
    "BurnkitError",
    "CertifiedPlan",
    "Graph",
    "HistResult",
    "Tree",
    "augment_degree2",
    "bridge_component",
    "build_graph",
    "build_tree",
    "burning_number_exact",
    "burning_number_via_spanning_trees",
    "closed_form_rounds",
    "distance",
    "enumerate_spanning_trees",
    "find_anchor",
    "find_hist",
    "format_edge_list",
    "hist_bound",
    "hit_schedule",
    "internal_vertex_count",
    "is_complete",
    "is_hit",
    "lift_schedule",
    "matrix_tree_count",
    "parse_edge_list",
    "schedule_from_json_dict",
    "simulate",
    "simulate_modified",
    "smooth",
    "sqrt_ceil",
    "tree_schedule_via_augmentation",
]

__version__ = "0.1.0"
