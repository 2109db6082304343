"""Memory substrate: address arithmetic, backing store, DRAM model."""
