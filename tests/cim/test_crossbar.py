"""Unit tests for the bit-sliced FeFET QUBO crossbar."""

import numpy as np
import pytest

from repro.cim import crossbar as crossbar_module
from repro.cim.crossbar import (
    MAX_CROSSBAR_BYTES,
    CrossbarConfig,
    CrossbarMemoryError,
    FeFETCrossbar,
    crossbar_table_bytes,
)
from repro.core.qubo import QUBOModel


@pytest.fixture
def integer_qubo(rng):
    matrix = rng.integers(-50, 51, size=(10, 10)).astype(float)
    return QUBOModel(matrix, offset=3.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrossbarConfig(weight_bits=0)
        with pytest.raises(ValueError):
            CrossbarConfig(cell_on_current=0.0)
        with pytest.raises(ValueError):
            CrossbarConfig(current_noise_sigma=-0.1)
        with pytest.raises(ValueError):
            CrossbarConfig(adc_bits=0)


class TestMemoryBudget:
    def test_estimate_counts_planes_and_per_chip_factor_tables(self):
        # Two float64 (bits, n, n) plane stacks ...
        assert crossbar_table_bytes(10, 7) == 2 * 7 * 100 * 8
        # ... plus two (D, bits, n, n) factor tables under variation.
        assert crossbar_table_bytes(10, 7, 4, True) == 2 * 5 * 7 * 100 * 8
        assert crossbar_table_bytes(10, 7, 4, False) == 2 * 7 * 100 * 8

    def test_known_oversized_configurations_exceed_the_budget(self):
        # n=4096 with the default 7 bits (~1.9 GB); n=1000, 8 bits and 16
        # chips with ON-current variation (~2.2 GB).
        assert crossbar_table_bytes(4096, 7) > MAX_CROSSBAR_BYTES
        assert crossbar_table_bytes(1000, 8, 16, True) > MAX_CROSSBAR_BYTES
        assert crossbar_table_bytes(1000, 7) < MAX_CROSSBAR_BYTES

    def test_over_budget_program_raises_before_allocating(self, integer_qubo,
                                                          monkeypatch):
        config = CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.1)
        needed = crossbar_table_bytes(10, 7, 3, True)
        monkeypatch.setattr(crossbar_module, "MAX_CROSSBAR_BYTES", needed - 1)
        with pytest.raises(CrossbarMemoryError, match=f"needs {needed} bytes"):
            FeFETCrossbar.from_qubo(integer_qubo, config,
                                    device_seeds=[1, 2, 3])
        # Exactly at the budget the crossbar programs normally.
        monkeypatch.setattr(crossbar_module, "MAX_CROSSBAR_BYTES", needed)
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, config,
                                           device_seeds=[1, 2, 3])
        assert crossbar.num_devices == 3


class TestIdealCrossbar:
    def test_integer_matrix_is_stored_losslessly(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        assert crossbar.quantization_error() == 0.0
        np.testing.assert_allclose(crossbar.quantized_matrix(), integer_qubo.matrix)

    def test_energy_matches_exact_arithmetic(self, integer_qubo, rng):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        for _ in range(20):
            x = rng.integers(0, 2, size=10).astype(float)
            assert crossbar.compute_energy(x) == pytest.approx(integer_qubo.energy(x))

    def test_batch_energies(self, integer_qubo, rng):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        batch = rng.integers(0, 2, size=(6, 10)).astype(float)
        np.testing.assert_allclose(crossbar.compute_energies(batch),
                                   integer_qubo.energies(batch))

    def test_quantization_error_bounded_for_fractional_matrices(self, rng):
        matrix = rng.normal(scale=10.0, size=(8, 8))
        qubo = QUBOModel(matrix)
        crossbar = FeFETCrossbar.from_qubo(qubo, CrossbarConfig(weight_bits=8))
        max_abs = np.max(np.abs(qubo.matrix))
        assert crossbar.quantization_error() <= max_abs / (2 ** 8 - 1)

    def test_few_bits_lose_precision_gracefully(self, integer_qubo, rng):
        coarse = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=3))
        fine = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        x = rng.integers(0, 2, size=10).astype(float)
        exact = integer_qubo.energy(x)
        assert abs(fine.compute_energy(x) - exact) <= abs(coarse.compute_energy(x) - exact) + 1e-9

    def test_input_validation(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo)
        with pytest.raises(ValueError):
            crossbar.compute_energy(np.zeros(5))
        with pytest.raises(ValueError):
            crossbar.compute_energy(np.full(10, 0.5))

    def test_cell_count_accounting(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(integer_qubo, CrossbarConfig(weight_bits=7))
        assert crossbar.num_cells == 2 * 7 * 10 * 10
        assert crossbar.num_variables == 10


class TestNonIdealCrossbar:
    def test_device_variation_keeps_energy_close(self, integer_qubo, rng):
        crossbar = FeFETCrossbar.from_qubo(
            integer_qubo,
            CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05, seed=1),
        )
        for _ in range(10):
            x = rng.integers(0, 2, size=10).astype(float)
            exact = integer_qubo.energy(x)
            scale = max(abs(exact), 50.0)
            assert abs(crossbar.compute_energy(x) - exact) <= 0.25 * scale

    def test_read_noise_is_zero_mean(self, integer_qubo):
        crossbar = FeFETCrossbar.from_qubo(
            integer_qubo,
            CrossbarConfig(weight_bits=7, current_noise_sigma=0.02, seed=2),
        )
        x = np.ones(10)
        exact = integer_qubo.energy(x)
        samples = np.array([crossbar.compute_energy(x) for _ in range(100)])
        assert np.std(samples) > 0.0
        assert abs(samples.mean() - exact) <= 0.1 * abs(exact)

    def test_adc_quantization_changes_result_for_low_resolution(self, integer_qubo, rng):
        coarse_adc = FeFETCrossbar.from_qubo(
            integer_qubo, CrossbarConfig(weight_bits=7, adc_bits=2, seed=0)
        )
        x = rng.integers(0, 2, size=10).astype(float)
        # 2-bit column ADCs cannot represent every partial sum exactly, so some
        # configurations must deviate from the exact energy.
        deviations = [
            abs(coarse_adc.compute_energy(row) - integer_qubo.energy(row))
            for row in rng.integers(0, 2, size=(20, 10)).astype(float)
        ]
        assert max(deviations) > 0.0


class TestLinearity:
    def test_column_current_scales_linearly(self):
        qubo = QUBOModel(np.ones((32, 32)))
        crossbar = FeFETCrossbar.from_qubo(qubo, CrossbarConfig(weight_bits=1))
        counts, currents = crossbar.linearity_sweep(range(0, 25, 4))
        assert currents[0] == pytest.approx(0.0)
        # Perfect linearity without non-idealities.
        expected = counts * crossbar.config.cell_on_current
        np.testing.assert_allclose(currents, expected)

    def test_column_current_bounds(self):
        qubo = QUBOModel(np.ones((8, 8)))
        crossbar = FeFETCrossbar.from_qubo(qubo, CrossbarConfig(weight_bits=1))
        with pytest.raises(ValueError):
            crossbar.column_current(9)
        with pytest.raises(ValueError):
            crossbar.column_current(-1)


class TestDeviceAxis:
    """The (D, M, n) contract: one programmed chip per device seed."""

    def test_device_batch_matches_per_chip_rebuilds(self, integer_qubo, rng):
        """Chip d of a device-axis crossbar must behave exactly like a
        scalar crossbar rebuilt with chip d's seed -- factors, read noise
        and ADC codes included."""
        config = CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05,
                                current_noise_sigma=0.01, adc_bits=8)
        seeds = [101, 102, 103]
        stacked = FeFETCrossbar.from_qubo(integer_qubo, config,
                                          device_seeds=seeds)
        assert stacked.num_devices == 3
        batch = rng.integers(0, 2, size=(3, 5, 10)).astype(float)
        energies = stacked.compute_energies_devices(batch)
        assert energies.shape == (3, 5)
        for d, seed in enumerate(seeds):
            rebuilt = FeFETCrossbar.from_qubo(
                integer_qubo,
                CrossbarConfig(weight_bits=7, on_current_variation_sigma=0.05,
                               current_noise_sigma=0.01, adc_bits=8, seed=seed))
            np.testing.assert_array_equal(energies[d],
                                          rebuilt.compute_energies(batch[d]))

    def test_chip_results_do_not_depend_on_batch_neighbours(self, integer_qubo, rng):
        """Evaluating a chip alone (device selection) reproduces its codes
        from the full-batch evaluation -- per-chip noise determinism."""
        config = CrossbarConfig(weight_bits=7, current_noise_sigma=0.02)
        seeds = [7, 8]
        batch = rng.integers(0, 2, size=(2, 4, 10)).astype(float)
        together = FeFETCrossbar.from_qubo(integer_qubo, config,
                                           device_seeds=seeds)
        full = together.compute_energies_devices(batch)
        alone = FeFETCrossbar.from_qubo(integer_qubo, config,
                                        device_seeds=seeds)
        only_second = alone.compute_energies_devices(
            batch[1][None], devices=np.array([1]))
        np.testing.assert_array_equal(full[1], only_second[0])

    def test_ideal_chips_share_exact_bit_planes(self, integer_qubo, rng):
        """Without variation every chip computes the exact quantized energy
        through the shared-plane fast path."""
        stacked = FeFETCrossbar.from_qubo(integer_qubo,
                                          CrossbarConfig(weight_bits=7),
                                          device_seeds=[1, 2, 3, 4])
        batch = rng.integers(0, 2, size=(4, 6, 10)).astype(float)
        energies = stacked.compute_energies_devices(batch)
        for d in range(4):
            np.testing.assert_array_equal(energies[d],
                                          integer_qubo.energies(batch[d]))

    def test_device_batch_validation(self, integer_qubo):
        stacked = FeFETCrossbar.from_qubo(integer_qubo,
                                          CrossbarConfig(weight_bits=7),
                                          device_seeds=[1, 2])
        with pytest.raises(ValueError):
            stacked.compute_energies_devices(np.zeros((1, 3, 10)))
        with pytest.raises(IndexError):
            stacked.compute_energies_devices(np.zeros((1, 3, 10)),
                                             devices=np.array([2]))
        with pytest.raises(ValueError):
            stacked.compute_energies_devices(np.zeros((2, 10)))
        with pytest.raises(ValueError):
            FeFETCrossbar.from_qubo(integer_qubo, device_seeds=[])
