"""End-to-end and per-layer benchmark of the illation package; see README.md."""
