"""Absolute-seconds benchmark of the reproduction pipeline.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`perfbench.workloads`) and
prints its metrics as the last line of standard output.  Per-layer spans
are recorded from this package (:mod:`perfbench.tracing`), never from
``src/``.
"""
