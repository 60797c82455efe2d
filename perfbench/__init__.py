"""End-to-end benchmark of the repro stack (see README.md)."""
