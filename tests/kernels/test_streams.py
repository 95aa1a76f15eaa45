"""ReplayStreams vs real NumPy generators: bit-exact draw replay.

The fused/packed kernels vectorise the per-replica PCG64 streams instead of
calling each ``Generator`` in a Python loop.  These tests pin the replay
contract against NumPy itself: every ``uniforms``/``integers`` draw matches
what the corresponding ``Generator`` would have produced (including Lemire
rejection resampling and the 32-bit buffering of ``integers``), and
``write_back`` leaves the generators exactly where real draws would have.
"""

import numpy as np
import pytest

from repro.dynamics.acceptance import MetropolisRule, acceptance_probability
from repro.dynamics.schedule import GeometricSchedule
from repro.dynamics.dynamics import Dynamics
from repro.dynamics.driver import LoopDriver
from repro.kernels.base import KernelUnsupportedError
from repro.kernels.streams import (
    BUFFER_OUTPUTS,
    ReplayStreams,
    metropolis_decisions,
    try_replay_streams,
)


def make_generators(count, seed=5):
    return [np.random.default_rng([seed, k]) for k in range(count)]


class TestDrawReplay:
    def test_uniforms_match_generator_random(self):
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        lanes = np.arange(3)
        # Cross several refill boundaries (the jump buffer holds
        # BUFFER_OUTPUTS outputs per lane).
        for _ in range(3 * BUFFER_OUTPUTS + 7):
            got = streams.uniforms(lanes)
            expected = [g.random() for g in control]
            np.testing.assert_array_equal(got, expected)

    def test_uniforms_partial_lane_subsets(self):
        generators = make_generators(4)
        control = make_generators(4)
        streams = ReplayStreams(generators)
        rng = np.random.default_rng(0)
        for _ in range(200):
            lanes = np.flatnonzero(rng.random(4) < 0.6)
            if lanes.size == 0:
                continue
            got = streams.uniforms(lanes)
            expected = [control[k].random() for k in lanes]
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("bound", [2, 3, 7, 24, 1000, 2**31 + 11])
    def test_integers_match_generator_integers(self, bound):
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        for _ in range(150):
            got = streams.integers(bound)
            expected = [g.integers(0, bound) for g in control]
            np.testing.assert_array_equal(got, expected)

    def test_bound_of_one_consumes_no_draws(self):
        generators = make_generators(2)
        control = make_generators(2)
        streams = ReplayStreams(generators)
        assert np.array_equal(streams.integers(1), [0, 0])
        # NumPy's integers(0, 1) consumes nothing either, so the streams
        # stay aligned afterwards.
        np.testing.assert_array_equal(
            streams.uniforms(np.arange(2)),
            [g.random() for g in control])

    def test_mixed_integer_uniform_interleaving(self):
        # integers() buffers the unused high half of each 64-bit output in
        # has_uint32/uinteger; interleaved random() calls must not disturb
        # that bookkeeping.
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        lanes = np.arange(3)
        pattern_rng = np.random.default_rng(1)
        for _ in range(300):
            if pattern_rng.random() < 0.5:
                np.testing.assert_array_equal(
                    streams.integers(24),
                    [g.integers(0, 24) for g in control])
            else:
                np.testing.assert_array_equal(
                    streams.uniforms(lanes),
                    [g.random() for g in control])


class TestWriteBack:
    @pytest.mark.parametrize("draws", [0, 1, 7, BUFFER_OUTPUTS,
                                       2 * BUFFER_OUTPUTS + 3])
    def test_generators_resume_exactly_after_write_back(self, draws):
        generators = make_generators(3)
        control = make_generators(3)
        streams = ReplayStreams(generators)
        lanes = np.arange(3)
        for _ in range(draws):
            streams.uniforms(lanes)
            for g in control:
                g.random()
        streams.integers(24)
        for g in control:
            g.integers(0, 24)
        streams.write_back()
        # The written-back generators produce the same continuation as
        # generators that made the identical draws natively -- including the
        # parked 32-bit half left by integers().
        for mine, theirs in zip(generators, control):
            assert mine.bit_generator.state == theirs.bit_generator.state
            assert mine.integers(0, 1000) == theirs.integers(0, 1000)
            assert mine.random() == theirs.random()


class TestEligibility:
    def test_non_pcg64_generators_are_rejected(self):
        bad = [np.random.Generator(np.random.MT19937(3))]
        with pytest.raises(KernelUnsupportedError, match="PCG64"):
            ReplayStreams(bad)

    def _driver(self, generators, dynamics=None, shared_rng=None):
        return LoopDriver(GeometricSchedule(10.0, 0.1), 10, generators,
                          dynamics=dynamics, shared_rng=shared_rng)

    def test_try_replay_accepts_default_configuration(self):
        generators = make_generators(2)
        driver = self._driver(generators)
        assert try_replay_streams(driver, generators, 100) is not None

    def test_try_replay_rejects_shared_rng(self):
        generators = make_generators(2)
        driver = self._driver(generators, dynamics=Dynamics(rng_mode="shared"),
                              shared_rng=np.random.default_rng(0))
        assert try_replay_streams(driver, generators, 100) is None

    def test_try_replay_rejects_missing_generators(self):
        driver = self._driver(make_generators(2))
        assert try_replay_streams(driver, None, 100) is None

    def test_try_replay_rejects_non_metropolis_acceptance(self):
        class CustomRule(MetropolisRule):
            pass

        generators = make_generators(2)
        driver = self._driver(
            generators, dynamics=Dynamics(acceptance=CustomRule()))
        assert try_replay_streams(driver, generators, 100) is None

    def test_try_replay_rejects_oversized_lemire_bound(self):
        generators = make_generators(2)
        driver = self._driver(generators)
        assert try_replay_streams(driver, generators, 2**32 + 1) is None

    def test_try_replay_rejects_non_pcg64(self):
        generators = [np.random.Generator(np.random.MT19937(k))
                      for k in range(2)]
        driver = self._driver(generators)
        assert try_replay_streams(driver, generators, 100) is None


class TestMetropolisDecisions:
    def test_matches_scalar_acceptance_probability(self):
        rng = np.random.default_rng(2)
        step = rng.normal(scale=3.0, size=500)
        temperature = 0.8
        draws = rng.random(500)
        got = metropolis_decisions(step, temperature, draws)
        expected = [d < acceptance_probability(float(s), temperature)
                    for s, d in zip(step, draws)]
        np.testing.assert_array_equal(got, expected)

    def test_negative_step_always_accepts(self):
        step = np.array([-1.0, 0.0, -1e-300])
        draws = np.array([0.999999, 0.999999, 0.999999])
        assert metropolis_decisions(step, 1e-12, draws).all()

    def test_zero_temperature_accepts_only_downhill(self):
        step = np.array([-1.0, 0.0, 1.0])
        draws = np.zeros(3)
        np.testing.assert_array_equal(
            metropolis_decisions(step, 0.0, draws), [True, True, False])

    def test_per_replica_temperature_rows(self):
        step = np.array([1.0, 1.0, -0.5])
        temps = np.array([0.5, 2.0, 1.0])
        draws = np.array([0.2, 0.2, 0.9])
        got = metropolis_decisions(step, temps, draws)
        expected = [d < acceptance_probability(float(s), float(t))
                    for s, t, d in zip(step, temps, draws)]
        np.testing.assert_array_equal(got, expected)

    def test_extreme_uphill_step_rejects_without_warning(self):
        step = np.array([1e6])
        draws = np.array([0.0])
        with np.errstate(all="raise"):
            assert not metropolis_decisions(step, 1e-3, draws)[0]
