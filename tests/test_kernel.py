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
