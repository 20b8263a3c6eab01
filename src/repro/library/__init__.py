"""Standard-cell library substrate: cells, pattern trees, corelib018."""

from .cache import (
    cached_library,
    clear_library_cache,
    content_key,
    library_build_stats,
)
from .cell import CellLibrary, LibCell
from .corelib import CORELIB018, ROW_HEIGHT_UM, build_corelib018
from .liberty import dump_library, load_library, parse_pattern
from .patterns import (
    PatternNode,
    PatternTable,
    leaf,
    pattern_to_sop,
    pinv,
    pnand,
)

__all__ = [
    "CORELIB018",
    "CellLibrary",
    "LibCell",
    "PatternNode",
    "PatternTable",
    "ROW_HEIGHT_UM",
    "build_corelib018",
    "cached_library",
    "clear_library_cache",
    "content_key",
    "dump_library",
    "library_build_stats",
    "leaf",
    "load_library",
    "parse_pattern",
    "pattern_to_sop",
    "pinv",
    "pnand",
]
