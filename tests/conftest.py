from __future__ import annotations

from typing import Iterator

from ellchain import Params, classify
from ellchain.cli import SweepConfig, iter_tuples
from ellchain.errors import HypothesisFailed, KLERegime

ACCEPTANCE_SWEEP = SweepConfig(g=(2, 12), r=(1, 5))


def constructible_tuples(cfg: SweepConfig = ACCEPTANCE_SWEEP) -> Iterator[Params]:
    """The params of all lattice tuples whose hypotheses pass, in lattice order."""
    for g, r, d, k in iter_tuples(cfg):
        try:
            yield classify(Params(g, r, d, k))
        except (KLERegime, HypothesisFailed):
            continue
