"""Core contribution: the BIA structure, CT micro-ops, and the machine."""
