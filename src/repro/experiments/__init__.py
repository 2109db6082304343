"""Experiment harness: one generator per table and figure of the paper."""
