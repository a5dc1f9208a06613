"""Multigrids, their dual rhombus tilings, and corona growth limit shapes.

Build a multigrid (Penrose pentagrid included), dualize it into an
edge-to-edge rhombus tiling, grow coronas on the shared adjacency graph,
and measure how the normalized growth shapes converge to the characteristic
polygon computed from the grid directions.
"""

from .analysis import (
    CharPolygon,
    ConvergenceRow,
    convergence_table,
    endpoints_diagnostic,
    grid_char_polygon,
    tiling_char_polygon,
)
from .dual import TilingWindow, dual_vertex, linear_dual, tile_of_crossing, tiling_window
from .geom import Polygon, convex_hull, hausdorff_distance, perp, scalar_product
from .graph import CoronaSequence, Patch, corona_sequence, corona_step, graph_distance, neighbors
from .multigrid import (
    Crossing,
    LineId,
    MultigridSpec,
    check_regular,
    count_crossings_with_grid,
    crossing_point,
    dominant_lines,
    make_crossing,
    nearest_crossing,
    nth_crossing,
)
from .sandpile import SandpileConfig, add_grain_and_topple, max_stable

__version__ = "0.1.0"

__all__ = [
    "CharPolygon", "ConvergenceRow", "CoronaSequence", "Crossing",
    "LineId", "MultigridSpec", "Patch",
    "Polygon", "SandpileConfig", "TilingWindow",
    "add_grain_and_topple", "check_regular", "convergence_table",
    "convex_hull", "corona_sequence", "corona_step",
    "count_crossings_with_grid", "crossing_point",
    "dominant_lines", "dual_vertex", "endpoints_diagnostic",
    "graph_distance", "grid_char_polygon", "hausdorff_distance",
    "linear_dual", "make_crossing", "max_stable",
    "nearest_crossing", "neighbors", "nth_crossing",
    "perp", "scalar_product", "tile_of_crossing",
    "tiling_char_polygon", "tiling_window",
]
