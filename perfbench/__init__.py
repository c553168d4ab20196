"""The repository benchmark: serving and materialization workloads for the spanner LCAs.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, their metrics and the layers they load are described in
``perfbench/context.json``.
"""
