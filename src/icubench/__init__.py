"""Benchmarking engine for four ICU prediction tasks on eICU-shaped data."""

from .schema import Task, normal_values

__version__ = "0.1.0"

__all__ = ["Task", "normal_values", "__version__"]
