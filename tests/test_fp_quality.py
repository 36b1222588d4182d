"""F_P emulation quality at the acceptance settings.

The acceptance test of the emulation search checks only the cluster
nullifier variances, which depend on the Bloch-Messiah gains and the
mixing angles and never on the emulation distance itself. These tests
pin that distance: at seed 11 with the acceptance budget and target,
each preset must reach an ``fp`` within 10 % of the value the search
reached when this gate was written, and the reported parameter vector
must evaluate to the reported ``fp`` through the full fitness.
"""
from functools import cache

import numpy as np
import pytest

from anwsim import ArrayConfig, fitness_FP, graph_preset, synthesize_emulation

from test_acceptance import EMULATION_ROWS, Z

# fp reached at seed 11 with restarts=6, generations=150, target 1.1 x stored
FP_BASELINE = {
    "linear": 0.3248,
    "pentagon": 0.0585,
    "star": 0.0402,
    "pyramid": 0.5280,
    "ghz": 0.0402,
}

CFG = ArrayConfig(n=5, coupling=0.24, length=30.0)


@cache
def _synthesis(name):
    return synthesize_emulation(
        CFG, Z, graph_preset(name), seed=11,
        restarts=6, generations=150, target=1.1 * float(np.sum(EMULATION_ROWS[name])),
    )


@pytest.mark.parametrize("name", list(FP_BASELINE))
def test_fp_within_ten_percent_of_baseline(name):
    assert _synthesis(name).fp <= 1.1 * FP_BASELINE[name]


@pytest.mark.parametrize("name", list(FP_BASELINE))
def test_reported_vector_reproduces_fp(name):
    syn = _synthesis(name)
    full = fitness_FP(CFG, Z, graph_preset(name), syn.parameters)
    assert np.isclose(full, syn.fp, atol=1e-8, rtol=1e-6)
