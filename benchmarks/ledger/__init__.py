"""The repo benchmark: STARQL text -> delivered ``WindowResult``.

``python benchmarks/ledger/run.py`` is the one command; see README.md
in this directory for workloads, metrics and how to compare two runs.
"""
