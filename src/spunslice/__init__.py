"""Slice curves on spun-knot decker sets, branched double covers, and
embedding-obstruction certificates for twisted mirror doubles."""

__version__ = "0.1.0"
