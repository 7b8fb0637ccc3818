"""The batched column kernel and phase-vector settings, checked against the
per-cell and full-matrix references and by property tests."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshsim import compiler, hardware, mesh, quantum
from meshsim.util import (
    StructureError,
    ValidationError,
    dumps_canonical,
    normalize_floats,
    wrap_phase,
)

from oracles import cell_matrix, per_cell_realized_transfer, slow_mesh_product

N = 20

# the closed-form cells and the elementwise column updates round differently
# from the oracle's 2x2 products; 1.7e-15 was the largest deviation seen
ORACLE_TOL = 1e-14

PHASES = st.one_of(
    st.sampled_from((0.0, np.pi / 2, np.pi)),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)


@st.composite
def programs(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_n, max_n))
    count = n * (n - 1) // 2
    theta = draw(st.lists(PHASES, min_size=count, max_size=count))
    phi = draw(st.lists(PHASES, min_size=count, max_size=count))
    out = draw(st.lists(PHASES, min_size=n, max_size=n))
    return mesh.MeshSettings.from_phases(n, theta, phi, output_phases=out)


@lru_cache(maxsize=None)
def _calibrated(n):
    return hardware.calibrated_profile(n, disorder_seed=n)


@pytest.fixture(scope="module")
def profile20():
    return hardware.calibrated_profile(N, disorder_seed=4)


def test_realized_transfer_equals_per_cell_reference_on_haar_programs(profile20):
    for seed in range(6):
        program = compiler.clements_decompose(compiler.haar_random(N, seed)).settings
        got = hardware.realized_transfer(profile20, program, seed=seed).elements
        want = per_cell_realized_transfer(profile20, program, seed)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL


def test_realized_transfer_equals_per_cell_reference_on_routing_programs(profile20):
    for index, addr in enumerate(mesh.cell_addresses(N)[::9]):
        program = quantum.plan_to_settings(quantum.route_to_tbs(N, addr))
        got = hardware.realized_transfer(profile20, program, seed=index).elements
        want = per_cell_realized_transfer(profile20, program, index)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL


@lru_cache(maxsize=None)
def _programs20(kind):
    """190 n=20 programs: compiled Haar targets or every routed cell."""
    if kind == "haar":
        targets = [compiler.haar_random(N, seed).elements for seed in range(190)]
        return tuple(
            mesh.MeshSettings.from_phases(N, theta, phi, output_phases=out)
            for theta, phi, out in zip(*compiler.decompose_stack(targets))
        )
    return tuple(
        quantum.plan_to_settings(quantum.route_to_tbs(N, addr))
        for addr in mesh.cell_addresses(N)
    )


def _stacks(programs):
    return tuple(
        np.array([getattr(p, name) for p in programs])
        for name in ("theta", "phi", "output_phases")
    )


@pytest.mark.parametrize("kind", ["haar", "routing"])
def test_realized_transfer_stacks_equal_per_cell_reference(profile20, kind):
    programs = _programs20(kind)
    seeds = [1000 + i for i in range(len(programs))]
    want = [
        per_cell_realized_transfer(profile20, program, seed)
        for program, seed in zip(programs, seeds)
    ]
    for size in (1, 7, 32, 190):
        got = hardware.realized_transfers(
            profile20, *_stacks(programs[:size]), seeds[:size]
        )
        assert got.shape == (size, N, N)
        for i in range(size):
            assert np.max(np.abs(got[i] - want[i])) <= ORACLE_TOL, (size, i)


def _at_offset(values, offset):
    """A copy of `values` starting `offset` bytes into a fresh buffer."""
    size = 8 * values.size
    buffer = np.zeros(size + 64, dtype=np.uint8)[offset : offset + size]
    copy = buffer.view(np.float64).reshape(values.shape)
    copy[:] = values
    return copy


@pytest.mark.parametrize("kind", ["haar", "routing"])
def test_realized_transfer_stacks_are_batch_invariant(profile20, kind):
    # every operation on the stack is elementwise, so a program's matrix has
    # the same bits whatever stack, chunk or memory offset it is realized in
    stacks = _stacks(_programs20(kind))
    seeds = [1000 + i for i in range(len(stacks[0]))]
    full = hardware.realized_transfers(profile20, *stacks, seeds)
    for size in (1, 7, 32):
        got = hardware.realized_transfers(
            profile20, *(a[:size] for a in stacks), seeds[:size]
        )
        assert np.array_equal(got, full[:size]), size
    for offset in range(0, 64, 8):
        got = hardware.realized_transfers(
            profile20, *(_at_offset(a[40:47], offset) for a in stacks), seeds[40:47]
        )
        assert np.array_equal(got, full[40:47]), offset


def _input_sets(k, n, rng):
    """Named (k, c) input-mode arrays: every shape of set a caller may pass."""
    return {
        "pairs": np.array([rng.choice(n, 2, replace=False) for _ in range(k)]),
        "single": rng.integers(0, n, (k, 1)),
        "reversed": np.broadcast_to(np.arange(n)[::-1], (k, n)),
        "repeated": np.repeat(rng.integers(0, n, (k, 2)), 2, axis=1),
        "random": rng.integers(0, n, (k, 5)),
    }


def _hexes(block):
    return np.ascontiguousarray(block).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["haar", "routing"])
def test_input_columns_are_the_full_matrix_columns(profile20, kind):
    # no column update mixes columns, so a column realized alone keeps
    # every bit of the same column of the full product
    stacks = _stacks(_programs20(kind))
    seeds = [1000 + i for i in range(len(stacks[0]))]
    full = hardware.realized_transfers(profile20, *stacks, seeds)
    rng = np.random.default_rng(np.random.SeedSequence([20, 7]))
    for size in (1, 7, 64, 190):
        rows = slice(0, size)
        for name, inputs in _input_sets(size, N, rng).items():
            got = hardware.realized_transfers(
                profile20, *(a[rows] for a in stacks), seeds[rows], inputs
            )
            want = np.take_along_axis(full[rows], inputs[:, None, :], axis=2)
            assert got.shape == (size, N, inputs.shape[1]), (size, name)
            assert _hexes(got) == _hexes(want), (size, name)
            assert not got.flags.writeable


@settings(max_examples=30, deadline=None)
@given(programs(max_n=8), st.integers(0, 2**32 - 1), st.data())
def test_input_columns_are_the_full_matrix_columns_property(program, seed, data):
    n = program.n
    inputs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    profile = _calibrated(n)
    stacks = (program.theta[None], program.phi[None], program.output_phases[None])
    full = hardware.realized_transfers(profile, *stacks, [seed])
    got = hardware.realized_transfers(profile, *stacks, [seed], [inputs])
    assert _hexes(got) == _hexes(full[:, :, inputs])


def test_routed_scans_take_the_pair_terms_of_the_full_matrices(profile20, monkeypatch):
    theta, pairs = quantum._routes(N)
    seeds = [2000 + i for i in range(len(theta))]
    seen = []
    terms = quantum._pair_terms

    def spy(m, chunk_pairs):
        seen.append(terms(m, chunk_pairs))
        return seen[-1]

    monkeypatch.setattr(quantum, "_pair_terms", spy)
    delays = quantum.default_delay_grid()
    envelope = quantum.PhotonPairSource().overlap_at(delays)
    quantum._routed_scans(profile20, theta, pairs, seeds, delays, envelope, 0.0)
    assert len(seen) == -(-len(theta) // hardware.CHUNK)
    full = hardware.realized_transfers(
        profile20, theta, np.zeros_like(theta), np.zeros((len(theta), N)), seeds
    )
    for got, want in zip(np.concatenate(seen, axis=1), terms(full, pairs)):
        assert _hexes(got) == _hexes(want)


def test_input_modes_must_be_integers_in_range(profile20):
    stacks = _stacks(_programs20("routing")[:3])
    for bad, message in (
        ([[0, 1], [2, 3]], r"must have shape \(3, None\)"),
        ([[0, 1]] * 3 + [[2, 3]], "must have shape"),
        ([0, 1, 2], "must have shape"),
        ([[0, 20]] * 3, "must be finite and >= 0 and <= 19"),
        ([[-1, 0]] * 3, "must be finite and >= 0 and <= 19"),
        ([[0.0, 1.0]] * 3, "must be integers"),
        ([[True, False]] * 3, "must be integers"),
        ([["0", "1"]] * 3, "must be integers"),
    ):
        with pytest.raises(ValidationError, match="^input modes " + message):
            hardware.realized_transfers(profile20, *stacks, range(3), bad)


def test_gain_defect_names_the_first_block_with_gain():
    rng = np.random.default_rng(np.random.SeedSequence([20, 8]))
    q = np.linalg.qr(rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6)))[0]
    blocks = 0.9 * q[:, :, :2]
    assert mesh.gain_defect(blocks) is None
    blocks[3, :, 1] *= 1.02 / 0.9
    blocks[5, :, 0] *= 1.5 / 0.9
    index, reason = mesh.gain_defect(blocks)
    assert index == 3 and reason == "transfer matrix has gain: largest singular value 1.020000000000"
    # a non-finite entry is named before any gain
    blocks[4, 2, 0] = np.nan
    assert mesh.gain_defect(blocks) == (4, "matrix entries must be finite")


def test_repeated_input_modes_are_no_gain():
    # the columns of a lossless mesh have unit norm; a repeated one is one
    # column twice, not a block whose singular value is sqrt(2)
    program = mesh.bar_settings(4)
    stacks = (program.theta[None], program.phi[None], program.output_phases[None])
    profile = hardware.ideal_profile(4)
    got = hardware.realized_transfers(profile, *stacks, [0], [[2, 2, 1, 2]])
    assert np.linalg.norm(got[0], 2) > 1.4
    assert np.allclose(np.linalg.norm(got[0], axis=0), 1.0)


_CELL_STACK_HASH = """
import hashlib, numpy as np
from meshsim import hardware
profile = hardware.calibrated_profile(20, disorder_seed=4)
rng = np.random.default_rng(np.random.SeedSequence([20, 32]))
theta, phi = rng.uniform(0.0, 2 * np.pi, (2, 32, 190))
cells = hardware._noisy_transfers(theta, phi, profile.coupler_terms)
print(hashlib.sha256(cells.tobytes()).hexdigest())
"""


def test_cell_stack_bits_do_not_depend_on_the_cpu_dispatch():
    # the cells are built from real * and + alone, so neither numpy's SIMD
    # targets nor the BLAS kernel may change a bit of a 32-program chunk
    src = str(Path(hardware.__file__).resolve().parents[1])
    avx512 = "X86_V4 AVX512_SPR AVX512_ICL"
    digests = set()
    for extra in (
        {},
        {"NPY_DISABLE_CPU_FEATURES": avx512},
        {"NPY_DISABLE_CPU_FEATURES": avx512 + " X86_V3"},
        {"OPENBLAS_CORETYPE": "Prescott"},
    ):
        env = dict(os.environ, **extra)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-c", _CELL_STACK_HASH],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests


def test_realized_transfer_stack_names_a_non_finite_program(profile20):
    theta, phi, output_phases = _stacks(_programs20("routing")[:7])
    phi[4, 11] = np.nan
    with pytest.raises(ValidationError, match="program 4: .*finite"):
        hardware.realized_transfers(profile20, theta, phi, output_phases, range(7))
    with pytest.raises(ValidationError, match="program 4: .*finite"):
        hardware.measure_amplitude_matrices(
            profile20, theta, phi, output_phases, range(7)
        )


def test_realized_transfer_stack_rejects_mismatched_shapes(profile20):
    theta, phi, output_phases = _stacks(_programs20("routing")[:3])
    with pytest.raises(ValidationError, match="phi must have shape"):
        hardware.realized_transfers(profile20, theta, phi[:2], output_phases, range(3))
    with pytest.raises(ValidationError, match="theta must have shape"):
        hardware.realized_transfers(profile20, theta, phi, output_phases, range(4))


def test_topology_is_computed_once_per_n():
    assert isinstance(mesh.cell_addresses(7), tuple)
    assert mesh.cell_addresses(7) is mesh.cell_addresses(7)
    index = mesh.cell_index(7)
    assert index.keys() == set(mesh.cell_addresses(7))
    assert [index[addr] for addr in mesh.cell_addresses(7)] == list(range(21))
    assert hardware.heater_order(7) is hardware.heater_order(7)


def test_settings_vectors_and_cells_are_read_only():
    program = mesh.bar_settings(4)
    with pytest.raises(ValueError):
        program.theta[0] = 1.0
    with pytest.raises(TypeError):
        program.cells[mesh.CellAddress(0, 0)] = mesh.CellSetting(0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(programs())
def test_mesh_unitary_matches_full_matrix_product(program):
    stacked = mesh.cell_transfers(program.theta, program.phi)
    for i, cell in enumerate(program.cells.values()):
        assert np.max(np.abs(stacked[i] - cell_matrix(cell.theta, cell.phi))) <= 1e-15
    placed = [
        ((addr.column, addr.row), cell.theta, cell.phi)
        for addr, cell in program.cells.items()
    ]
    want = slow_mesh_product(program.n, placed, program.output_phases, cell_matrix)
    got = mesh.mesh_unitary(program).elements
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(programs(), st.integers(0, 2**32 - 1))
def test_realized_transfer_has_no_gain(program, seed):
    transfer = hardware.realized_transfer(_calibrated(program.n), program, seed=seed)
    assert np.linalg.norm(transfer.elements, 2) <= 1.0


@settings(max_examples=40, deadline=None)
@given(programs(), st.integers(0, 2**32 - 1))
def test_ideal_realized_transfer_is_the_programmed_mesh(program, seed):
    profile = hardware.ideal_profile(program.n)
    got = hardware.realized_transfer(profile, program, seed=seed).elements
    assert np.max(np.abs(got - mesh.mesh_unitary(program).elements)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(programs(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.data())
def test_two_photon_distribution_of_realized_programs_is_normalized(
    program, seed, overlap, data
):
    a = data.draw(st.integers(0, program.n - 1))
    b = data.draw(st.integers(0, program.n - 1).filter(lambda m: m != a))
    ideal = hardware.realized_transfer(
        hardware.ideal_profile(program.n), program, seed=seed
    )
    total = sum(quantum.two_photon_output_distribution(ideal, (a, b), overlap).values())
    assert abs(total - 1.0) <= 1e-12
    lossy = hardware.realized_transfer(_calibrated(program.n), program, seed=seed)
    total = sum(quantum.two_photon_output_distribution(lossy, (a, b), overlap).values())
    assert total <= 1.0


@settings(max_examples=40, deadline=None)
@given(programs(min_n=1))
def test_cells_mapping_and_vectors_round_trip_exactly(program):
    cells = {
        addr: mesh.CellSetting(theta, phi)
        for addr, theta, phi in zip(
            mesh.cell_addresses(program.n), program.theta, program.phi
        )
    }
    built = mesh.MeshSettings(program.n, cells, program.output_phases)
    assert np.array_equal(built.theta, program.theta)
    assert np.array_equal(built.phi, program.phi)
    assert dict(built.cells) == cells
    assert dict(program.cells) == cells


@settings(max_examples=40, deadline=None)
@given(programs(min_n=1))
def test_json_round_trips_are_exact(program):
    back = mesh.settings_from_json_dict(mesh.settings_to_json_dict(program))
    for name in ("theta", "phi", "output_phases"):
        assert np.array_equal(getattr(back, name), getattr(program, name))
    # the canonical text keeps 15 significant digits, and nothing else moves
    text = dumps_canonical(mesh.settings_to_json_dict(program))
    back = mesh.settings_from_json_dict(json.loads(text))
    for name in ("theta", "phi", "output_phases"):
        rounded = np.array(normalize_floats(getattr(program, name)), dtype=float)
        assert np.array_equal(getattr(back, name), wrap_phase(rounded))


def _reference_canonical(payload):
    """dumps_canonical as json's own encoder writes it."""
    return json.dumps(normalize_floats(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _text_or_error(dumps, payload):
    try:
        return dumps(payload)
    except ValueError:
        # a float of over 15 digits near the top of the range rounds to inf
        return ValueError


_finite = st.floats(allow_nan=False, allow_infinity=False)
_canonical_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _finite, st.text(max_size=6),
    st.booleans().map(np.bool_), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _finite.map(np.float64), st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
_canonical_arrays = st.one_of(
    st.lists(_finite, max_size=6).map(np.array),
    st.lists(st.integers(-(2**31), 2**31), max_size=6).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda xs: np.array(xs, dtype=bool)),
    st.lists(_finite, min_size=2, max_size=2).map(lambda xs: np.array(xs).reshape(1, 2, 1)),
    _finite.map(np.array),
)
_canonical_payloads = st.recursive(
    st.one_of(_canonical_scalars, _canonical_arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(_canonical_payloads)
def test_canonical_text_is_the_json_encoder_text(payload):
    assert _text_or_error(dumps_canonical, payload) == _text_or_error(
        _reference_canonical, payload
    )


@pytest.mark.parametrize("payload", [
    float("nan"), float("inf"), -np.inf, np.float64("nan"), np.float32("inf"),
    np.array([1.0, np.inf]), {"a": [0.5, {"b": (np.nan,)}]},
], ids=["nan", "inf", "-inf", "np-nan", "np32-inf", "array", "nested"])
def test_canonical_text_rejects_non_finite_floats(payload):
    with pytest.raises(ValueError):
        _reference_canonical(payload)
    with pytest.raises(ValueError):
        dumps_canonical(payload)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10), st.sampled_from(["theta", "phi", "output_phases"]),
       st.sampled_from([-1, 1]))
def test_from_phases_rejects_wrong_lengths(n, name, delta):
    count = n * (n - 1) // 2
    sizes = {"theta": count, "phi": count, "output_phases": n}
    sizes[name] += delta
    if sizes[name] < 0:
        return
    with pytest.raises(StructureError, match=name):
        mesh.MeshSettings.from_phases(
            n,
            np.zeros(sizes["theta"]),
            np.zeros(sizes["phi"]),
            output_phases=np.zeros(sizes["output_phases"]),
        )
