"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

See ``remo_bench/README.md`` for the metric definitions and
``BENCHMARK.json`` (repo root) for names, units and regression bounds.
Everything here measures ``repro`` from outside -- through public
functions, the pluggable ``Transport`` seam, and (traced runs only)
timing wrappers patched on from :mod:`harness.layers`.
"""
