"""Trace-driven cold-start simulator: workload skew analysis, locality-group
partitioning, three-tier cache modeling, and deterministic simulation."""

__version__ = "0.1.0"
