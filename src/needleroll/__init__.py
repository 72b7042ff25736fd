"""Steerable-needle tip-roll estimation and closed-loop steering workbench."""

__version__ = "0.1.0"
