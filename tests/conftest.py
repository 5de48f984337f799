import numpy as np
import pytest

from covertsim import model


def awgn_scenario(n=1000, P_f=0.025, p=0.5, P_max=1.0):
    """All-AWGN scenario with the uniform per-slot jammer."""
    return model.Scenario(
        slots=model.SlotStructure(n=n, M=1, p=p),
        jammer=model.JammerStrategy(kind=model.UNIFORM_PER_SLOT, power=P_max),
        P_f=P_f,
    )


def fading_scenario(n=400, M=1, P_f=0.0125, aw="awgn", ab="awgn", jb="awgn", P_j=1.0):
    """Constant-power jammer over a faded jammer-to-warden link."""
    return model.Scenario(
        slots=model.SlotStructure(n=n, M=M, p=0.5),
        channels=model.Channels(aw=aw, ab=ab, jw="fading", jb=jb),
        jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=P_j),
        P_f=P_f,
    )


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=[1234, 99]))
