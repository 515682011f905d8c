"""The repo's performance benchmark (see ``benchmarks/perf/README.md``).

One command — ``python3 benchmarks/perf/run.py`` — generates its own
inputs from a seed, drives five named workloads against the public
surfaces of ``repro`` (the CLI, ``PipelineSpec``, the
``repro.distributed`` client functions), checks every output against a
reference built independently of the code under test, and prints the
metrics named in the root ``BENCHMARK.json``.
"""
