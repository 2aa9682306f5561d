from __future__ import annotations

from typing import Iterator

import pytest

from ellchain import Params, classify, oracle
from ellchain.cli import SweepConfig, iter_tuples
from ellchain.errors import HypothesisFailed, KLERegime

ACCEPTANCE_SWEEP = SweepConfig(g=(2, 12), r=(1, 5))


@pytest.fixture(autouse=True)
def empty_class_table():
    """Each test starts with cross_validate's translation-class table empty,
    so no test reads verdicts that another stored, and a test that patches a
    `verify` function the oracle imports is not masked by stored verdicts."""
    oracle._VERDICTS.clear(), oracle._SIDES.clear()


def constructible_tuples(cfg: SweepConfig = ACCEPTANCE_SWEEP) -> Iterator[Params]:
    """The params of all lattice tuples whose hypotheses pass, in lattice order."""
    for g, r, d, k in iter_tuples(cfg):
        try:
            yield classify(Params(g, r, d, k))
        except (KLERegime, HypothesisFailed):
            continue
