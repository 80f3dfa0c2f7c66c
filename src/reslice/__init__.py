"""reslice: export compiler for channel-pruned computation graphs.

Takes a graph model plus arbitrary per-consumer channel masks and rewrites
it into a physically pruned model. Producer output channels and consumer
input channels are reordered so that, wherever possible, each consumer
reads a contiguous slice of its input tensor instead of gathering
scattered channels into a copy.

Pipeline stages (one module each):

- :mod:`reslice.graph`       graph IR, weights, masks, file formats
- :mod:`reslice.segments`    segment extraction, one walk per segment, the
                             lock reasons of both modes, and each mode's
                             reading of a segment's masks (``resolve_masks``)
- :mod:`reslice.ordering`    channel order (the kept slots, as a tuple in
                             their new order), in both modes: an exact
                             copy-free layout by consecutive ones, else the
                             layout of the largest subset of layers that
                             can all slice
- :mod:`reslice.planner`     an order -> producer rows -> slices, gathers
                             and weight rewrites, by one shared interior walk
- :mod:`reslice.interp`      reference interpreter + equivalence checks
- :mod:`reslice.masks`       magnitude-based mask generation
- :mod:`reslice.pipeline`    export orchestration; picks every strategy's
                             order, or none where a segment keeps its
                             layout, so no segment is ever refused
- :mod:`reslice.cli`         command line front end

:mod:`reslice.path_search` keeps the maximum-reward path search and the
producer reduction that export no longer runs, as a comparison reference;
they are not re-exported here.
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
from reslice.ordering import find_zero_copy_order, largest_c1p_order
from reslice.planner import (
    ConsumerAccess,
    CopyStats,
    SegmentPlan,
    apply_plan,
    copy_report,
    load_plans,
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
    "Segment",
    "SegmentPlan",
    "ValidationError",
    "WeightStore",
    "apply_plan",
    "check_equivalence",
    "copy_report",
    "export_model",
    "find_segments",
    "find_zero_copy_order",
    "largest_c1p_order",
    "load_masks",
    "load_model",
    "load_plans",
    "make_masks",
    "plan_export",
    "plan_export_output",
    "plan_model",
    "run",
    "save_masks",
    "save_model",
    "save_plans",
    "score_channels",
]
