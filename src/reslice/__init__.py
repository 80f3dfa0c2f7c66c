"""reslice: export compiler for channel-pruned computation graphs.

Takes a graph model plus arbitrary per-consumer channel masks and rewrites
it into a physically pruned model. Producer output channels and consumer
input channels are reordered so that, wherever possible, each consumer
reads a contiguous slice of its input tensor instead of gathering
scattered channels into a copy.

Pipeline stages (one module each):

- :mod:`reslice.graph`         graph IR, weights, masks, file formats
- :mod:`reslice.segments`      segment extraction, one walk per segment
- :mod:`reslice.reorder_graph` per-segment retained-slot sets, and the
                               reorder graph of output mode
- :mod:`reslice.path_search`   maximum-reward acyclic path solver (exact and
                               greedy searches over one bitmask view), which
                               orders output-mode segments
- :mod:`reslice.ordering`      channel order (the kept slots, as a tuple in
                               their new order): an exact copy-free layout
                               by consecutive ones, else the layout of the
                               largest subset of consumers that can all
                               slice (input mode) or the order of a path
                               decomposition (output mode)
- :mod:`reslice.planner`       orderings -> slices/gathers/weight rewrites
- :mod:`reslice.interp`        reference interpreter + equivalence checks
- :mod:`reslice.masks`         magnitude-based mask generation
- :mod:`reslice.pipeline`      whole-model export orchestration
- :mod:`reslice.cli`           command line front end
"""

from reslice.graph import (
    ChannelMask,
    Layer,
    LayerKind,
    ModelGraph,
    ModelFormatError,
    ValidationError,
    WeightStore,
    load_masks,
    load_model,
    save_masks,
    save_model,
)
from reslice.segments import Segment, find_segments
from reslice.reorder_graph import (
    ProducerEquivalence,
    ReorderGraph,
    RGNode,
    UnsupportedTopologyError,
    build_reorder_graph,
    reduce_producers,
    reorder_graph_from_sets,
)
from reslice.path_search import Path, decompose_paths, solve_mrap
from reslice.ordering import find_zero_copy_order, largest_c1p_order, order_channels
from reslice.planner import (
    ConsumerAccess,
    CopyStats,
    SegmentPlan,
    apply_plan,
    copy_report,
    load_plans,
    plan_baseline,
    plan_constrained,
    plan_export,
    plan_export_output,
    save_plans,
)
from reslice.interp import EquivalenceReport, check_equivalence, run
from reslice.masks import make_masks, score_channels
from reslice.pipeline import ExportResult, export_model, plan_model

__version__ = "0.1.0"

__all__ = [
    "ChannelMask",
    "ConsumerAccess",
    "CopyStats",
    "EquivalenceReport",
    "ExportResult",
    "Layer",
    "LayerKind",
    "ModelFormatError",
    "ModelGraph",
    "Path",
    "ProducerEquivalence",
    "ReorderGraph",
    "RGNode",
    "Segment",
    "SegmentPlan",
    "UnsupportedTopologyError",
    "ValidationError",
    "WeightStore",
    "apply_plan",
    "build_reorder_graph",
    "check_equivalence",
    "copy_report",
    "decompose_paths",
    "export_model",
    "find_segments",
    "find_zero_copy_order",
    "largest_c1p_order",
    "load_masks",
    "load_model",
    "load_plans",
    "make_masks",
    "order_channels",
    "plan_baseline",
    "plan_constrained",
    "plan_export",
    "plan_export_output",
    "plan_model",
    "reduce_producers",
    "reorder_graph_from_sets",
    "run",
    "save_masks",
    "save_model",
    "save_plans",
    "score_channels",
    "solve_mrap",
]
