"""Query-path benchmark for the pervasive-grid runtime (see README.md)."""
