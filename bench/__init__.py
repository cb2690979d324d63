"""The repository's one benchmark: six workloads measured end to end,
with a per-layer cost ledger taken from outside ``src/repro``.

Run ``python3 -m bench --help`` from the repository root; see
``bench/README.md`` for what is measured and how to phrase a claim.
"""
