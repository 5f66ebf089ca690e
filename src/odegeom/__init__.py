"""Reconstruction and machine verification of the GL(2) geometry carried by
the solution spaces of 4th- and 5th-order ODEs: frame, metric, connection,
SO(3) structure tensor, and the integral transform that solves the associated
second-order system."""

__version__ = "0.1.0"
