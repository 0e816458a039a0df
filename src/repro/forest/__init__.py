"""Block forest: the data module shared by every cBFT protocol (paper §III-A)."""

from repro.forest.forest import BlockForest
from repro.forest.vertex import Vertex

__all__ = ["BlockForest", "Vertex"]
