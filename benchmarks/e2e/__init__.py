"""E-E2E: the paper's secure primitives across OS processes on 127.0.0.1.

Brokers, receiving peers and one load-generating driver run as separate
processes talking through ``TcpTransport``.  ``run.py`` is the entry
point; see ``README.md`` in this directory for the workloads, metrics and
how to read the trace.
"""
