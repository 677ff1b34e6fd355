"""xbench: the end-to-end benchmark of the optimiser (see xbench/README.md)."""
