"""Time each experiment runner of the claim registry.

Each case runs one ``repro.experiments.claims.RUNNERS`` entry once and
prints its table.  The shapes those tables must show are claims, checked
by ``python -m repro check`` and tier-1 ``tests/test_claims.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.claims import RUNNERS


@pytest.mark.parametrize("name", RUNNERS)
def test_experiment(benchmark, show, name):
    result = benchmark.pedantic(RUNNERS[name], rounds=1, iterations=1)
    # The Figure 4 walkthrough returns an outcome holding its table.
    show(getattr(result, "candidates", result).render())
