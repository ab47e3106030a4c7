"""Layered benchmark of duorth; run perfbench/run.py."""
