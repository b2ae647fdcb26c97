"""Benchmark assets: the committed gate baselines and the E-E2E socket run."""
