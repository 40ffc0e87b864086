"""Core of the reproduction: the FITing-Tree and its algorithms.

Contents map directly onto the paper's sections:

* :mod:`repro.core.segment` / :mod:`repro.core.segmentation` — segments and
  the ShrinkingCone bulk-loading algorithm (Sections 2-3);
* :mod:`repro.core.optimal` — optimal segmentation baselines (Section 3.2);
* :mod:`repro.core.fiting_tree` / :mod:`repro.core.page` /
  :mod:`repro.core.paged_index` — the clustered index with lookups and
  buffered inserts (Sections 4-5);
* :mod:`repro.core.secondary` — the non-clustered variant (Section 2.2.1);
* :mod:`repro.core.cost_model` — the DBA-facing cost model (Section 6).
"""

from repro.core.cost_model import (
    CostModel,
    CostModelParams,
    DEFAULT_ERROR_GRID,
)
from repro.core.errors import (
    EmptyIndexError,
    InvalidParameterError,
    InvariantViolationError,
    KeyNotFoundError,
    NotSortedError,
    ReproError,
    SegmentationError,
)
from repro.core.fiting_tree import FITingTree
from repro.core.optimal import (
    optimal_count_bruteforce,
    optimal_segment_count,
    optimal_segments,
    optimal_segments_endpoint,
)
from repro.core.page import SegmentPage
from repro.core.secondary import SecondaryFITingTree
from repro.core.segment import Segment, max_deviation, verify_segments
from repro.core.segmentation import (
    cone_reach,
    exact_cone,
    fixed_segments,
    max_segments_bound,
    shrinking_cone,
    shrinking_cone_reference,
)
from repro.core.serialize import load_index, save_index

__all__ = [
    "CostModel",
    "CostModelParams",
    "DEFAULT_ERROR_GRID",
    "EmptyIndexError",
    "FITingTree",
    "InvalidParameterError",
    "InvariantViolationError",
    "KeyNotFoundError",
    "NotSortedError",
    "ReproError",
    "SecondaryFITingTree",
    "Segment",
    "SegmentPage",
    "SegmentationError",
    "cone_reach",
    "exact_cone",
    "fixed_segments",
    "load_index",
    "max_deviation",
    "max_segments_bound",
    "save_index",
    "optimal_count_bruteforce",
    "optimal_segment_count",
    "optimal_segments",
    "optimal_segments_endpoint",
    "shrinking_cone",
    "shrinking_cone_reference",
    "verify_segments",
]
