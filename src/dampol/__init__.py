"""Damped-polariton engine for dispersive dielectrics on periodic lattices."""

from .lattice import FrequencyGrid, Lattice, build_lattice

__all__ = ["FrequencyGrid", "Lattice", "build_lattice"]

__version__ = "0.1.0"
