"""Unit-cell conventions, mesh composition, loss application, serialization."""

import json
import warnings

import numpy as np
import pytest

from meshsim import mesh
from meshsim.util import StructureError, ValidationError, dumps_canonical

from oracles import cell_matrix, slow_mesh_product


HALF = (1.0 + 1.0j) / 2.0


def test_cell_transfer_golden_entries():
    # frozen values of the pinned convention at the three canonical settings
    cross = mesh.cell_transfers(0.0, 0.0)
    assert np.allclose(cross, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)

    bar = mesh.cell_transfers(np.pi, 0.0)
    assert np.allclose(bar, np.array([[1j, 0.0], [0.0, -1j]]), atol=1e-15)

    half = mesh.cell_transfers(np.pi / 2, 0.0)
    assert np.allclose(half, np.array([[HALF, HALF], [HALF, -HALF]]), atol=1e-15)

    quarter = mesh.cell_transfers(np.pi / 2, np.pi / 2)
    assert np.allclose(
        quarter, np.array([[1j * HALF, HALF], [1j * HALF, -HALF]]), atol=1e-15
    )


def test_cell_transfer_reflectivity_and_unitarity_grid():
    thetas, phis = np.meshgrid(
        np.linspace(0.0, 2 * np.pi, 41), np.linspace(0.0, 2 * np.pi, 17)
    )
    stack = mesh.cell_transfers(thetas, phis)
    for theta, phi, t in zip(thetas.flat, phis.flat, stack.reshape(-1, 2, 2)):
        assert np.max(np.abs(t - cell_matrix(theta, phi))) <= 1e-15
        assert np.allclose(t @ t.conj().T, np.eye(2), atol=1e-12)
        assert abs(abs(t[0, 0]) ** 2 - np.sin(theta / 2.0) ** 2) < 1e-12


def test_cell_transfer_is_two_pi_periodic_in_theta():
    for theta in (0.3, 1.1, 2.9):
        a = mesh.cell_transfers(theta, 0.7)
        b = mesh.cell_transfers(theta + 2 * np.pi, 0.7)
        assert np.allclose(a, b, atol=1e-12)


def test_cell_addresses_count_and_checkerboard():
    for n in range(2, 21):
        addrs = mesh.cell_addresses(n)
        assert len(addrs) == n * (n - 1) // 2
        assert len(set(addrs)) == len(addrs)
        for a in addrs:
            assert 0 <= a.column < n
            assert 0 <= a.row < n - 1
            assert (a.column - a.row) % 2 == 0


def test_bar_mesh_is_identity_in_magnitude():
    # all-bar mesh routes every mode straight through; residual diagonal
    # phases remain, so the identity statement holds element-magnitude-wise
    for n in range(2, 21):
        u = mesh.mesh_unitary(mesh.bar_settings(n)).elements
        assert np.allclose(np.abs(u), np.eye(n), atol=1e-12)
        off = u - np.diag(np.diagonal(u))
        assert np.max(np.abs(off)) < 1e-12


def test_single_cell_cross_is_swap():
    settings = mesh.MeshSettings(
        n=2,
        cells={mesh.CellAddress(0, 0): mesh.CellSetting(0.0, 0.0)},
        output_phases=np.zeros(2),
    )
    u = mesh.mesh_unitary(settings).elements
    assert np.allclose(np.abs(u), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_mesh_unitary_matches_full_matrix_oracle():
    rng = np.random.default_rng(2024)
    for n in (2, 3, 4, 5, 8):
        cells = {}
        placed = []
        for addr in mesh.cell_addresses(n):
            theta = float(rng.uniform(0, 2 * np.pi))
            phi = float(rng.uniform(0, 2 * np.pi))
            cells[addr] = mesh.CellSetting(theta, phi)
            placed.append(((addr.column, addr.row), theta, phi))
        out = rng.uniform(0, 2 * np.pi, size=n)
        settings = mesh.MeshSettings(n=n, cells=cells, output_phases=out)
        got = mesh.mesh_unitary(settings).elements
        want = slow_mesh_product(
            n,
            placed,
            out,
            cell_matrix,
        )
        assert np.max(np.abs(got - want)) < 1e-12


def test_mesh_unitary_rejects_malformed_settings():
    n = 4
    cells = {
        addr: mesh.CellSetting(1.0, 2.0) for addr in mesh.cell_addresses(n)[:-1]
    }
    with pytest.raises(StructureError):
        mesh.MeshSettings(n=n, cells=cells, output_phases=np.zeros(n))
    bad_addr = dict(cells)
    bad_addr[mesh.CellAddress(1, 0)] = mesh.CellSetting(1.0, 2.0)  # wrong parity
    with pytest.raises(StructureError):
        mesh.MeshSettings(n=n, cells=bad_addr, output_phases=np.zeros(n))


def test_unitary_type_rejects_non_unitary():
    with pytest.raises(ValidationError):
        mesh.Unitary(2, np.array([[1.0, 0.0], [0.2, 1.0]], dtype=complex))


class _LossProfile:
    def __init__(self, facet_db, prop_db_per_cm, paths_cm):
        self.coupling_loss_db_per_facet = facet_db
        self.propagation_loss_db_per_cm = prop_db_per_cm
        self.path_length_cm = paths_cm


def _random_settings(n, seed):
    rng = np.random.default_rng(seed)
    cells = {
        addr: mesh.CellSetting(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
        for addr in mesh.cell_addresses(n)
    }
    return mesh.MeshSettings(
        n=n, cells=cells, output_phases=rng.uniform(0, 2 * np.pi, size=n)
    )


def test_apply_loss_zero_loss_is_bitwise_mesh_unitary():
    settings = _random_settings(6, 11)
    lossy = mesh.apply_loss(settings, _LossProfile(0.0, 0.0, 15.7))
    clean = mesh.mesh_unitary(settings)
    assert np.max(np.abs(lossy.elements - clean.elements)) == 0.0


def test_apply_loss_uniform_total_scales_singular_values():
    settings = _random_settings(5, 3)
    # 2 x 0.9 facet + 0.07 * 15.7 propagation = 2.899 dB total
    profile = _LossProfile(0.9, 0.07, 15.7)
    lossy = mesh.apply_loss(settings, profile)
    expected = 10.0 ** (-2.899 / 20.0)
    svals = np.linalg.svd(lossy.elements, compute_uv=False)
    assert np.allclose(svals, expected, atol=1e-12)


def test_apply_loss_facets_only_straight_path_transmission():
    settings = mesh.bar_settings(4)
    lossy = mesh.apply_loss(settings, _LossProfile(0.9, 0.0, 15.7))
    trans = np.abs(np.diagonal(lossy.elements)) ** 2
    assert np.allclose(trans, 10.0 ** (-1.8 / 10.0), atol=1e-12)


def test_apply_loss_rejects_negative_loss():
    settings = mesh.bar_settings(3)
    with pytest.raises(ValidationError):
        mesh.apply_loss(settings, _LossProfile(-0.1, 0.0, 15.7))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
@pytest.mark.parametrize("slot", range(3))
def test_lossy_products_rejects_bad_loss_figures(bad, slot):
    # NaN fails every comparison, so a "< 0" test alone lets it through
    figures = [0.9, 0.07, 15.7]
    figures[slot] = bad
    settings = mesh.bar_settings(3)
    transfers = mesh.cell_transfers(settings.theta, settings.phi)[None]
    with pytest.raises(ValidationError, match="loss figures must be finite and >= 0"):
        mesh.lossy_products(transfers, settings.output_phases[None], *figures)


def test_transfer_matrix_rejects_gain():
    with pytest.raises(ValidationError):
        mesh.TransferMatrix(2, 1.5 * np.eye(2, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unitary_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite"):
            mesh.Unitary(2, np.full((2, 2), bad))
        with pytest.raises(ValidationError, match="finite"):
            mesh.Unitary(2, np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_transfer_matrix_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite"):
            mesh.TransferMatrix(2, np.full((2, 2), bad))
        with pytest.raises(ValidationError, match="finite"):
            mesh.TransferMatrix(2, np.array([[0.5, 0.0], [0.0, bad]]))


def test_settings_json_round_trip_and_order():
    settings = _random_settings(5, 21)
    text = dumps_canonical(mesh.settings_to_json_dict(settings))
    doc = json.loads(text)
    assert doc["n"] == 5
    keys = [(c["col"], c["row"]) for c in doc["cells"]]
    assert keys == sorted(keys)
    assert len(doc["output_phases"]) == 5
    back = mesh.settings_from_json_dict(json.loads(text))
    assert back.n == settings.n
    for addr, setting in settings.cells.items():
        assert abs(back.cells[addr].theta - setting.theta) < 1e-12
        assert abs(back.cells[addr].phi - setting.phi) < 1e-12
    # byte-stable across repeated serialization
    assert dumps_canonical(mesh.settings_to_json_dict(back)) == text


@pytest.mark.parametrize("path, value", [
    ("n", 5.5), ("n", True), ("cells.3.col", 1.5), ("cells.3.row", 2.5),
    ("cells.3.theta", "abc"), ("output_phases", ["x"] * 5),
])
def test_settings_loader_rejects_bad_fields(path, value):
    # int() would truncate a fractional n, col or row, and a non-numeric
    # phase is a StructureError like any other malformed field
    settings = _random_settings(5, 21)
    doc = json.loads(dumps_canonical(mesh.settings_to_json_dict(settings)))
    mesh.settings_from_json_dict(doc)
    *parents, key = path.split(".")
    node = doc
    for step in parents:
        node = node[int(step) if step.isdigit() else step]
    node[key] = value
    with pytest.raises(StructureError, match="malformed settings document"):
        mesh.settings_from_json_dict(doc)


def test_cell_setting_normalizes_phases():
    s = mesh.CellSetting(-np.pi, 5 * np.pi)
    assert 0.0 <= s.theta < 2 * np.pi
    assert 0.0 <= s.phi < 2 * np.pi
    assert abs(s.theta - np.pi) < 1e-12
    assert abs(s.phi - np.pi) < 1e-12
