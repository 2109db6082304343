"""Cache substrate: lines, policies, set-associative caches, hierarchy."""
