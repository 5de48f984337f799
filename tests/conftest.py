import mpmath as mp
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


def mp_log_kernel(z, k, a, w, r, dps=50):
    """log of int_a^(a+w) v^-k e^(-z/v - r v) dv by mp.quad at dps digits in
    t = log v, where the exponent is concave: split at its peak (clipped to
    the limits) and at 1 to 60 widths either side of it.  An infinite limit
    in t (a = 0, which needs z > 0, or w = inf) is cut where the exponent has
    fallen 300 nats below the peak; by concavity the rest is below e^-300."""
    with mp.workdps(dps):
        z, k, a, w, r = (mp.mpf(x) for x in (z, k, a, w, r))
        lo = mp.log(a) if a > 0 else -mp.inf
        hi = mp.log(a + w) if mp.isfinite(w) else mp.inf

        def phi(t):
            return (1 - k) * t - z * mp.exp(-t) - r * mp.exp(t)

        den = (k - 1) + mp.sqrt((k - 1) ** 2 + 4 * r * z)
        peak = mp.log(2 * z / den) if den > 0 else (mp.inf if z > 0 else -mp.inf)
        peak = min(max(peak, lo), hi)
        p, q = z * mp.exp(-peak), r * mp.exp(peak)
        slope = abs((1 - k) + p - q)
        width = min(1 / mp.sqrt(p + q) if p + q > 0 else mp.inf,
                    1 / slope if slope > 0 else mp.inf, hi - lo)
        ref = phi(peak)

        def cut(limit, side):
            if mp.isfinite(limit):
                return limit
            t = peak + side * width
            while phi(t) - ref > -300:
                t = peak + 2 * (t - peak)
            return t

        lo, hi = cut(lo, -1), cut(hi, 1)
        pts = {lo, hi, peak}
        for j in (1, 3, 8, 20, 60):
            pts.update(x for x in (peak - j * width, peak + j * width) if lo < x < hi)
        return ref + mp.log(mp.quad(lambda t: mp.exp(phi(t) - ref), sorted(pts)))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=[1234, 99]))
