"""Global-routing substrate: grid, maze routing, congestion maps."""

from .congestion import CongestionStats, congestion_stats, render_congestion_map
from .grid import GCell, HORIZONTAL, RoutingGrid, RoutingResources, VERTICAL
from .maze import l_route_edges, maze_route
from .router import (
    GlobalRouter,
    NetRoute,
    RouteCache,
    RoutingResult,
    victim_order,
)
from .steiner import gcell_signature, manhattan, mst_segments

__all__ = [
    "CongestionStats",
    "GCell",
    "GlobalRouter",
    "HORIZONTAL",
    "NetRoute",
    "RouteCache",
    "RoutingGrid",
    "RoutingResources",
    "RoutingResult",
    "VERTICAL",
    "congestion_stats",
    "gcell_signature",
    "l_route_edges",
    "manhattan",
    "maze_route",
    "mst_segments",
    "render_congestion_map",
    "victim_order",
]
