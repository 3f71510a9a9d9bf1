"""Workload definitions and their seeded inputs.

Every input is a pure function of the workload and the seed, drawn from
PCG64, so the same seed gives the same inputs on every machine.  The cli
workload draws its network inside `betatrust simulate` from the seed.
"""
from __future__ import annotations

import numpy as np

# kind "cli" runs `betatrust simulate` in a child process; "requests"
# calls evaluate_request in a closed loop with one client.
WORKLOADS = {
    "simulate-dense": {"kind": "cli", "nodes": 300, "edge_prob": 1.0},
    "single-requests": {"kind": "requests", "count": 200_000},
}


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def request_columns(seed: int, count: int) -> tuple[list[float], ...]:
    """Uniform (T, A, B, appetite) columns for the single-request loop."""
    return tuple(column.tolist() for column in _rng(seed).random((4, count)))
