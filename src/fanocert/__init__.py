"""Exact-arithmetic certification of the E1-E1 Sarkisov link case analysis."""

from .catalog import load_cases

__version__ = "0.1.0"
