"""The repository's performance benchmark (see ``perfbench/README.md``).

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
"""
