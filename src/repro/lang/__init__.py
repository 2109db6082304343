"""Mini-Constantine: IR, taint analysis, automatic CT transformation."""
