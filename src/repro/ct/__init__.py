"""Constant-time programming layer: DSs, linearization, BIA algorithms."""
