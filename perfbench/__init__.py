"""Benchmark of the repository: real-code predict, training and served suggest."""
