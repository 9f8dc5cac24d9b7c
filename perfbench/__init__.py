"""The repository benchmark: campaign-cell workloads with per-layer tracing.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints its metrics; see ``perfbench/README.md``.
"""
