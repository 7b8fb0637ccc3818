import warnings

import numpy as np
import pytest

from meshsim import compiler, hardware
from meshsim.analysis import (
    E_FOLD_DB,
    AmplitudeMatrix,
    PlatformEntry,
    amplitude_fidelity,
    ensemble_statistics,
    error_matrix,
    load_platform_dataset,
    platform_report,
    useful_processor_size,
)
from meshsim.mesh import Unitary
from meshsim.util import ValidationError


def test_fidelity_is_one_for_exact_match():
    u = compiler.haar_random(5, seed=2)
    measured = AmplitudeMatrix(5, np.abs(u.elements))
    assert amplitude_fidelity(u, measured) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_zero_for_disjoint_supports():
    ident = compiler.permutation_unitary([0, 1])
    swap = AmplitudeMatrix(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert amplitude_fidelity(ident, swap) == 0.0


def test_fidelity_matches_trace_form():
    # dual route: (1/n) Tr(|Udag| . M) computed with an explicit matrix product
    rng = np.random.default_rng(7)
    u = compiler.haar_random(6, seed=11)
    raw = np.abs(u.elements) + 0.05 * rng.random((6, 6))
    m = AmplitudeMatrix(6, raw / np.linalg.norm(raw, axis=0))
    udag_mag = np.abs(u.elements.conj().T)
    expected = np.trace(udag_mag @ m.magnitudes) / 6
    assert amplitude_fidelity(u, m) == pytest.approx(expected, abs=1e-14)


def test_fidelity_dimension_mismatch():
    u = compiler.haar_random(3, seed=0)
    m = AmplitudeMatrix(4, np.eye(4))
    with pytest.raises(ValidationError):
        amplitude_fidelity(u, m)
    with pytest.raises(ValidationError):
        error_matrix(np.stack([u.elements] * 3), np.stack([np.eye(3)] * 2))


def test_error_matrix_identity():
    u = compiler.haar_random(4, seed=5)
    m = AmplitudeMatrix(4, np.abs(u.elements))
    err = error_matrix(u, m)
    assert np.allclose(err, 0.0)
    # algebraic identity: error + measured == |target| exactly
    assert np.array_equal(err + m.magnitudes, np.abs(u.elements))


def test_fidelity_and_error_matrix_of_a_stack_equal_per_item_calls():
    # a fidelity campaign's compile chunk: n=20 Haar targets measured
    # through the noisy hardware, scored in one call per layer
    n, k = 20, 24
    targets = np.array([compiler.haar_random(n, seed=s).elements for s in range(k)])
    theta, phi, out = compiler.decompose_stack(targets)
    profile = hardware.calibrated_profile(n, disorder_seed=0)
    measured = hardware.measure_amplitude_matrices(profile, theta, phi, out, range(k))
    fidelities = amplitude_fidelity(targets, measured)
    errors = error_matrix(targets, measured)
    assert fidelities.shape == (k,) and errors.shape == (k, n, n)
    for i in range(k):
        target, item = Unitary(n, targets[i]), AmplitudeMatrix(n, measured[i])
        assert fidelities[i].hex() == amplitude_fidelity(target, item).hex()
        assert errors[i].tobytes() == error_matrix(target, item).tobytes()


def test_amplitude_matrix_rejects_bad_columns():
    with pytest.raises(ValidationError):
        AmplitudeMatrix(2, np.array([[1.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(ValidationError):
        AmplitudeMatrix(2, np.array([[-1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        AmplitudeMatrix(3, np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_amplitude_matrix_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite"):
            AmplitudeMatrix(2, np.full((2, 2), bad))
        with pytest.raises(ValidationError, match="finite"):
            AmplitudeMatrix(2, np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fidelity_and_error_matrix_reject_non_finite_inputs(bad):
    u = compiler.haar_random(2, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for target, measured in (
            (np.eye(2), np.full((2, 2), bad)),
            (np.array([[bad, 0.0], [0.0, 1.0]]), np.eye(2)),
            (u, np.array([[1.0, 0.0], [bad, 1.0]])),
        ):
            for fn in (amplitude_fidelity, error_matrix):
                with pytest.raises(ValidationError, match="finite"):
                    fn(target, measured)


def test_ensemble_statistics_basics():
    one = ensemble_statistics([1.0])
    assert one.mean == 1.0 and one.std == 0.0
    three = ensemble_statistics([0.99, 0.97, 0.98])
    assert three.mean == pytest.approx(0.98)
    assert three.std == pytest.approx(0.01, rel=1e-12)


def test_ensemble_statistics_bins_and_overflow():
    stats = ensemble_statistics([0.85, 0.9755, 1.0, 1.2])
    assert len(stats.bin_edges) == 41
    assert stats.bin_edges[0] == pytest.approx(0.90)
    assert stats.bin_edges[-1] == pytest.approx(1.00)
    assert stats.underflow == 1
    assert stats.overflow == 1
    assert sum(stats.counts) == 2
    # 0.9755 sits in the bin starting at 0.975
    assert stats.counts[30] == 1


def test_ensemble_statistics_order_independent():
    values = [0.93, 0.97, 0.991, 0.955]
    a = ensemble_statistics(values)
    b = ensemble_statistics(list(reversed(values)))
    assert a == b


def test_ensemble_statistics_empty():
    with pytest.raises(ValidationError):
        ensemble_statistics([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_ensemble_statistics_rejects_non_finite_values(bad):
    # with warnings as errors, the check must come before any reduction warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite"):
            ensemble_statistics([0.95, bad])


def test_useful_processor_size_golden():
    assert useful_processor_size(4.3429) == 1
    assert useful_processor_size(0.1) == 43
    assert useful_processor_size(0.05) == 86
    with pytest.raises(ValidationError):
        useful_processor_size(0.0)
    with pytest.raises(ValidationError):
        useful_processor_size(-1.0)
    for loss in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            useful_processor_size(loss)


def test_useful_processor_size_rejects_an_infinite_cell_count():
    # positive and finite, yet E_FOLD_DB / loss overflows to infinity
    for loss in (1e-320, 5e-324):
        with pytest.raises(ValidationError, match="too small"):
            useful_processor_size(loss)
    assert useful_processor_size(1e-300) == int(np.floor(E_FOLD_DB / 1e-300))


def test_bundled_platform_dataset():
    entries = load_platform_dataset()
    assert len(entries) >= 5
    names = {e.platform for e in entries}
    assert "SiN" in names
    report = platform_report(entries)
    # the low-loss nitride entries must lead the ranking
    assert report["best_platform"] == "SiN"
    sizes = [row["useful_processor_size"] for row in report["platforms"]]
    assert sizes == sorted(sizes, reverse=True)
    top = report["platforms"][0]
    assert top["useful_processor_size"] == 78


def test_platform_report_builtin_rows():
    report = platform_report(())
    assert report["platforms"] == []
    assert report["best_platform"] is None
    assert [p["modes"] for p in report["processors"]] == [12, 20]
    assert report["processors"][1]["insertion_loss_db"] == 2.9
    assert report["processors"][1]["heaters"] == 380


def test_platform_entry_rejects_nonpositive_loss():
    with pytest.raises(ValidationError):
        PlatformEntry(
            name="x",
            platform="y",
            modes=4,
            loss_per_unit_cell_db=0.0,
            insertion_loss_db=1.0,
            citation="z",
        )
