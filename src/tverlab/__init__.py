"""tverlab: exact rational search and certification for colorful point
partitions, k-plane transversals, and chessboard-complex topology."""

__version__ = "0.1.0"

__all__ = ["__version__"]
