"""Attack substrate: observers, Prime+Probe, Flush+Reload, Evict+Time."""
