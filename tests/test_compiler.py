"""Decomposition round trips, Haar sampling statistics, ensembles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from meshsim import compiler, mesh
from meshsim.util import ValidationError, dumps_canonical, factorial_reaches

from oracles import gram_schmidt_unitary, scalar_clements_decompose

# batch sizes the stacked compiler must be indifferent to
CHUNKS = (1, 7, 64)


def _roundtrip_residual(u):
    report = compiler.clements_decompose(u)
    rebuilt = mesh.mesh_unitary(report.settings).elements
    target = u.elements if isinstance(u, mesh.Unitary) else u
    return float(np.max(np.abs(rebuilt - target))), report


def test_round_trip_small_sizes():
    for n in range(2, 11):
        for k in range(4):
            u = compiler.haar_random(n, 1000 * n + k)
            residual, report = _roundtrip_residual(u)
            assert residual < 1e-10
            assert report.residual < 1e-10
            for setting in report.settings.cells.values():
                assert 0.0 <= setting.theta <= np.pi + 1e-12
                assert 0.0 <= setting.phi < 2 * np.pi


def test_round_trip_against_independent_generator():
    # targets from the Gram-Schmidt route, so compile and rebuild are checked
    # on unitaries produced outside the package
    for n in (3, 7, 12):
        raw = gram_schmidt_unitary(n, seed=n)
        residual, _ = _roundtrip_residual(mesh.Unitary(n, raw))
        assert residual < 1e-9


def test_round_trip_n20():
    for k in range(5):
        u = compiler.haar_random(20, 31_337 + k)
        residual, _ = _roundtrip_residual(u)
        assert residual < 1e-9


def test_decompose_identity_is_all_bar():
    for n in (2, 3, 6):
        report = compiler.clements_decompose(mesh.Unitary(n, np.eye(n, dtype=complex)))
        for setting in report.settings.cells.values():
            assert abs(setting.theta - np.pi) < 1e-12
            assert setting.phi == 0.0
        rebuilt = mesh.mesh_unitary(report.settings).elements
        assert np.max(np.abs(rebuilt - np.eye(n))) < 1e-12


def test_decompose_reversal_permutation():
    n = 6
    target = np.fliplr(np.eye(n)).astype(complex)
    report = compiler.clements_decompose(mesh.Unitary(n, target))
    rebuilt = mesh.mesh_unitary(report.settings).elements
    assert np.max(np.abs(np.abs(rebuilt) - np.abs(target))) < 1e-10
    assert np.max(np.abs(rebuilt - target)) < 1e-10


def test_decompose_rejects_non_unitary():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = 1.1
    with pytest.raises(ValidationError) as err:
        compiler.clements_decompose(bad)
    # message must report the violation magnitude (defect is 0.21 here)
    assert "2.1" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decompose_rejects_non_finite_matrices(bad):
    partly = np.eye(3, dtype=complex)
    partly[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for target in (np.full((3, 3), bad), partly):
            with pytest.raises(ValidationError, match="finite"):
                compiler.clements_decompose(target)


def test_decompose_stack_rejects_malformed_stacks():
    for shape in ((3, 4), (2, 3, 4), (2, 1, 1)):
        with pytest.raises(ValidationError, match="stack"):
            compiler.decompose_stack(np.zeros(shape, dtype=complex))


def test_decompose_nulling_sequence_covers_lower_triangle():
    n = 5
    u = compiler.haar_random(n, 99)
    report = compiler.clements_decompose(u)
    nulled = {(step.row, step.col) for step in report.nulling_sequence}
    expected = {(r, c) for r in range(n) for c in range(n) if r > c}
    assert nulled == expected


def test_decompose_determinism_byte_identical():
    u = compiler.haar_random(9, 4242)
    a = mesh.settings_to_json_dict(compiler.clements_decompose(u).settings)
    b = mesh.settings_to_json_dict(compiler.clements_decompose(u).settings)
    assert dumps_canonical(a) == dumps_canonical(b)


def _phase_hex(theta, phi, output_phases):
    return [x.hex() for phases in (theta, phi, output_phases) for x in phases.tolist()]


def _settings_hex(settings):
    return _phase_hex(settings.theta, settings.phi, settings.output_phases)


def _assert_matches_scalar_oracle(targets):
    """Stacked compiling in every chunk size, and the single-target wrapper,
    give the oracle's phases bit for bit and a round trip under 1e-8."""
    expected = [scalar_clements_decompose(t) for t in targets]
    want = [_settings_hex(settings) for settings, _ in expected]
    n = len(targets[0])
    for chunk in CHUNKS:
        got = []
        for start in range(0, len(targets), chunk):
            stacks = compiler.decompose_stack(np.stack(targets[start : start + chunk]))
            k, cells = len(stacks[0]), n * (n - 1) // 2
            assert [a.shape for a in stacks] == [(k, cells), (k, cells), (k, n)]
            got += map(_phase_hex, *stacks)
        assert got == want, chunk
    for target, hexes, (_, nulling) in zip(targets, want, expected):
        report = compiler.clements_decompose(target)
        assert _settings_hex(report.settings) == hexes
        assert report.nulling_sequence == nulling
        assert report.residual < 1e-8
        rebuilt = mesh.mesh_unitary(report.settings).elements
        assert np.max(np.abs(rebuilt - target)) < 1e-8


def _structured_targets(n, seed):
    """Permutations, diagonal phase screens, the identity, and Givens
    rotations whose off-diagonal entries sit at, just below and just above
    NULLED_TOL; a signed-zero permutation carries -0.0 in every zero."""
    rng = np.random.default_rng(seed)
    eye = np.eye(n, dtype=complex)
    targets = [eye, np.fliplr(eye).copy()]
    targets += [eye[rng.permutation(n)] for _ in range(3)]
    targets += [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n))) for _ in range(2)]
    tol = compiler.NULLED_TOL
    for eps in (tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0)):
        for _ in range(4):
            i, j = sorted(rng.choice(n, 2, replace=False))
            g = eye.copy()
            g[i, i] = g[j, j] = np.sqrt(1.0 - eps * eps)
            g[i, j], g[j, i] = -eps, eps
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            targets.append(phases[:, None] * (g @ eye[rng.permutation(n)]))
    signs = rng.choice([1, -1, 1j, -1j], n)[:, None]
    perm = eye[rng.permutation(n)]
    targets.append(np.where(perm == 0, complex(-0.0, -0.0), perm * signs))
    return targets


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_stacked_compile_equals_scalar_oracle_haar(n, seed):
    targets = [compiler.haar_random(n, seed + k).elements for k in range(9)]
    _assert_matches_scalar_oracle(targets)


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_stacked_compile_equals_scalar_oracle_structured(n):
    _assert_matches_scalar_oracle(_structured_targets(n, seed=n))


def test_stacked_compile_equals_scalar_oracle_full_chunk_n20():
    # a full chunk of 64 Haar targets with the structured ones after it, so
    # the 64-chunk mixes parked, crossed and generic cells in one stack
    targets = [compiler.haar_random(20, 7_000 + k).elements for k in range(60)]
    _assert_matches_scalar_oracle(targets + _structured_targets(20, seed=20))


def test_haar_random_basic():
    u1 = compiler.haar_random(1, 5)
    assert abs(abs(u1.elements[0, 0]) - 1.0) < 1e-12
    u = compiler.haar_random(20, 5)
    assert np.max(np.abs(u.elements @ u.elements.conj().T - np.eye(20))) < 1e-10
    again = compiler.haar_random(20, 5)
    assert np.array_equal(u.elements, again.elements)
    other = compiler.haar_random(20, 6)
    assert not np.array_equal(u.elements, other.elements)


def test_haar_first_moment_matches_theory():
    # E|U_ij|^2 = 1/n for Haar measure; fixed-entry Monte Carlo at n=20
    n, samples = 20, 10_000
    vals = np.empty(samples)
    for k in range(samples):
        vals[k] = abs(compiler.haar_random(n, k).elements[0, 0]) ** 2
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(samples)
    assert abs(mean - 1.0 / n) < 3.0 * se


def test_haar_matches_gram_schmidt_generator():
    # compare a distribution functional across the two independent generators
    n, samples = 8, 1500

    def mean_top_row_max(gen):
        acc = 0.0
        for k in range(samples):
            acc += np.max(np.abs(gen(k)[0, :]))
        return acc / samples

    mean_a = mean_top_row_max(lambda k: compiler.haar_random(n, k).elements)
    mean_b = mean_top_row_max(lambda k: gram_schmidt_unitary(n, k))
    # generous 3-sigma style band for 1500 samples of a bounded statistic
    assert abs(mean_a - mean_b) < 0.02


def test_haar_left_invariance_ks():
    n, samples = 6, 1200
    v = compiler.haar_random(n, 123_456).elements
    plain = np.empty(samples)
    rotated = np.empty(samples)
    for k in range(samples):
        u = compiler.haar_random(n, 500_000 + k).elements
        plain[k] = abs(u[0, 0])
        rotated[k] = abs((v @ u)[0, 0])
    result = stats.ks_2samp(plain, rotated)
    assert result.pvalue > 1e-3


def test_permutation_unitary_examples():
    ident = compiler.permutation_unitary((0, 1, 2))
    assert np.array_equal(ident.elements, np.eye(3, dtype=complex))
    swap = compiler.permutation_unitary((1, 0))
    assert np.array_equal(swap.elements, np.array([[0, 1], [1, 0]], dtype=complex))
    perm = compiler.permutation_unitary((2, 0, 3, 1))
    mags = np.abs(perm.elements)
    assert np.array_equal(mags.sum(axis=0), np.ones(4))
    assert np.array_equal(mags.sum(axis=1), np.ones(4))
    # input i routed to output perm(i)
    assert perm.elements[2, 0] == 1.0


def test_permutation_unitary_rejects_non_bijection():
    with pytest.raises(ValidationError):
        compiler.permutation_unitary((0, 0, 1))
    with pytest.raises(ValidationError):
        compiler.permutation_unitary((0, 3, 1))
    with pytest.raises(ValidationError, match="mode"):
        compiler.permutation_unitary(())
    # not truncated to the identity
    with pytest.raises(ValidationError, match="integer"):
        compiler.permutation_unitary([0.0, 1.9, 2.2])


def test_permutation_ensemble_exhaustive_s3():
    perms = compiler.permutation_ensemble(3, 6, seed=0)
    assert sorted(perms) == sorted(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    )


def test_permutation_ensemble_deterministic_and_distinct():
    a = compiler.permutation_ensemble(20, 190, seed=7)
    b = compiler.permutation_ensemble(20, 190, seed=7)
    assert a == b
    assert len(set(a)) == 190
    c = compiler.permutation_ensemble(20, 190, seed=8)
    assert a != c


def test_factorial_reaches_agrees_with_the_factorial():
    for n in range(25):
        total = math.factorial(n)
        for count in (1, total - 1, total, total + 1):
            assert factorial_reaches(n, count) == (total >= count), (n, count)
    assert factorial_reaches(10**7, 10**100)


def test_permutation_ensemble_count_bounds():
    with pytest.raises(ValidationError, match=r"^count 7 exceeds 3! = 6$"):
        compiler.permutation_ensemble(3, 7, seed=0)
    with pytest.raises(ValidationError):
        compiler.permutation_ensemble(3, 0, seed=0)
    with pytest.raises(ValidationError, match="integer"):
        compiler.permutation_ensemble(3, 2.5, seed=0)
    # haar_random rejects n = 0 too
    with pytest.raises(ValidationError, match="mode"):
        compiler.permutation_ensemble(0, 1, seed=0)
