"""Whole-command and per-layer benchmark of lzphi; see run.py."""
