"""End-to-end and per-layer benchmark of the client-op path.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
drives one named workload (see :mod:`perfbench.workloads`) through the
public ``repro.workload`` driver in fresh interpreters, checks every
reply and the final substrate state against a reference replay, and
prints its metrics; the last line of standard output is one JSON
object.  ``--trace 1`` runs the same schedule again with the per-layer
cost ledger (:mod:`perfbench.ledger`) installed.
"""
