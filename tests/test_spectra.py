"""Sector spectra and separations against closed forms and the full space."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaugeforge import spectra
from gaugeforge.codes import CodeMatrix, build_code
from gaugeforge.extraction import extract_reduced_basis
from gaugeforge.pauli import PauliOp
from gaugeforge.spectra import (
    SpectraError,
    WeightSpec,
    build_full_hamiltonian,
    energy_separation,
    full_ground_energy,
    sector_spectra,
    z_signs,
)
from tests.oracles import (
    analytic_oracle_412,
    analytic_oracle_622,
    code_sector_levels,
    full_space_separation,
    full_spectrum,
    scatter_matvec,
)

M412 = [[1, 1], [1, 1]]
M622 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def make(M, all_pairs=False):
    cm = CodeMatrix.from_matrix(M)
    return build_code(cm, all_pairs=all_pairs), extract_reduced_basis(cm)


@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_z_signs_matches_popcount(nz):
    n, z = nz
    expected = np.array([(-1.0) ** bin(i & z).count("1") for i in range(1 << n)])
    got = z_signs(z, n)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_weight_spec_validation():
    with pytest.raises(SpectraError):
        WeightSpec.explicit([])
    with pytest.raises(SpectraError):
        WeightSpec.explicit([0.0, 0.0])
    with pytest.raises(SpectraError):
        WeightSpec.explicit([float("nan")])
    with pytest.raises(SpectraError, match="finite absolute sum"):  # each weight is finite
        WeightSpec.explicit([1e308, -1e308])
    with pytest.raises(SpectraError, match="finite 2S"):  # eigenvalue differences reach 2S
        WeightSpec.uniform(4e307, 4)
    WeightSpec.uniform(4e307, 2)
    code, _ = make(M412)
    with pytest.raises(SpectraError):
        WeightSpec.uniform(1.0, 3).for_code(code)


def test_four_qubit_full_spectrum_closed_form():
    code, rb = make(M412)
    w = WeightSpec.uniform(1.0, 4)
    spec = np.sort(full_spectrum(build_full_hamiltonian(code, w)))
    r = 2 * math.sqrt(2)
    expected = np.sort([-r, -r, -2, -2, -2, -2, 0, 0, 0, 0, 2, 2, 2, 2, r, r])
    assert np.abs(spec - expected).max() < 1e-10
    rep = energy_separation(code, rb, w)
    assert abs(rep.separation - 2 * (math.sqrt(2) - 1)) < 1e-10
    assert abs(rep.e0_code + r) < 1e-10
    assert rep.suppressing


def test_four_qubit_sectors_match_analytic_oracle():
    code, rb = make(M412)
    rng = np.random.default_rng(31)
    for _ in range(50):
        l1, l2, e1, e2 = rng.uniform(0.1, 3.0, size=4)
        w = WeightSpec.explicit([l1, l2, e1, e2])
        for sector, got in sector_spectra(code, rb, w):
            want = analytic_oracle_412(l1, l2, e1, e2, sector)
            assert np.abs(np.sort(got) - np.sort(want)).max() < 1e-9


def test_six_qubit_separation_closed_form():
    code, rb = make(M622)
    w = WeightSpec.xz(1.0, 1.0, 3, 3)
    rep = energy_separation(code, rb, w)
    assert abs(rep.separation - (4 - 2 * math.sqrt(3))) < 1e-10


def weights_622(lam, eta):
    """The 6-qubit benchmark weighting: eta on the second XX and first ZZ
    generator, lam elsewhere."""
    return WeightSpec.explicit([lam, eta, lam, eta, lam, lam])


def test_six_qubit_sectors_match_analytic_oracle():
    code, rb = make(M622)
    rng = np.random.default_rng(37)
    for _ in range(50):
        lam, eta = rng.uniform(0.1, 3.0, size=2)
        for sector, got in sector_spectra(code, rb, weights_622(lam, eta)):
            want = analytic_oracle_622(lam, eta, sector)
            assert np.abs(np.sort(got) - np.sort(want)).max() < 1e-9


def test_six_qubit_large_penalty_limit():
    code, rb = make(M622)
    eta = 1.0
    rep = energy_separation(code, rb, weights_622(1e3, eta))
    assert abs(rep.separation - eta) < 1e-3


def test_sector_minimum_matches_full_ground_energy():
    rng = np.random.default_rng(43)
    found = 0
    while found < 15:
        r = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        M = rng.integers(0, 2, size=(r, c))
        if not (M.sum(axis=1).all() and M.sum(axis=0).all()):
            continue
        cm = CodeMatrix.from_matrix(M)
        code = build_code(cm)
        if not code.gauge_generators:
            continue  # permutation-like matrices have no two-qubit terms
        found += 1
        rb = extract_reduced_basis(cm)
        w = WeightSpec.explicit(rng.uniform(0.2, 2.0, size=len(code.gauge_generators)))
        rep = energy_separation(code, rb, w)
        e_min = min(rep.ground_energies.values())
        H = build_full_hamiltonian(code, w)
        e_full = full_ground_energy(H)
        assert abs(e_min - e_full) < 1e-8
        if code.n <= 10:  # the iterative solve against a dense one
            e_dense = full_spectrum(H)[0]
            assert abs(e_full - e_dense) <= 1e-12 * abs(e_dense)


RANDOM_MATRICES = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda rc: st.lists(st.lists(st.integers(0, 1), min_size=rc[1], max_size=rc[1]),
                        min_size=rc[0], max_size=rc[0]))


@settings(max_examples=150, derandomize=True)
@given(RANDOM_MATRICES, st.booleans(), st.data())
def test_every_spectrum_number_matches_the_full_space(M, all_pairs, data):
    """On codes of at most 10 qubits with explicit weights, zeros and unequal X and Z weights
    among them: ``e0_code``, ``separation`` and ``gauge_gap`` against the full 2^n space with a
    code-sector projector, and the separating sector against single-qubit syndromes."""
    M = np.array(M)
    assume(M.sum() <= 10 and M.sum(axis=0).all() and M.sum(axis=1).all())
    cm = CodeMatrix.from_matrix(M)
    code = build_code(cm, all_pairs=all_pairs)
    assume(code.stabilizer_generators and code.gauge_generators)
    weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.25]),
                                 min_size=len(code.gauge_generators),
                                 max_size=len(code.gauge_generators)).filter(any))
    rb = extract_reduced_basis(cm)
    w = WeightSpec.explicit(weights)
    rep = energy_separation(code, rb, w)

    e0, separation = full_space_separation(code, w)
    assert abs(rep.e0_code - e0) < 1e-8 and abs(rep.separation - separation) < 1e-8
    levels = code_sector_levels(code, w)
    above = levels[levels > levels[0] + 1e-9 * max(1.0, abs(levels[0]))]
    assert abs(rep.gauge_gap - (above[0] - levels[0] if above.size else 0.0)) < 1e-8

    # the sector that sets the separation (any of them, on a tie) is where one
    # single-qubit Pauli takes the code sector
    stabilizers = list(rb.x_stabilizers) + list(rb.z_stabilizers)
    syndromes = {tuple(1 if p.commutes(s) else -1 for s in stabilizers)
                 for q in range(code.n) for p in (PauliOp.single(code.n, a, q) for a in "XYZ")}
    lowest = rep.e0_code + rep.separation
    separating = {s for s, e in rep.ground_energies.items()
                  if s != rep.code_sector and e <= lowest + 1e-9 * max(1.0, abs(lowest))}
    assert separating & syndromes


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_full_matvec_matches_scatter_oracle_bitwise(seed, all_pairs):
    # the seed draws the matrix, so code sizes spread evenly up to 12 qubits
    rng = np.random.default_rng(seed)
    r, c = rng.integers(1, 5, size=2)
    M = rng.integers(0, 2, size=(r, c))
    M[np.arange(r), rng.integers(0, c, r)] = 1  # no empty row
    M[rng.integers(0, r, c), np.arange(c)] = 1  # no empty column
    assume(M.sum() <= 12)
    code = build_code(CodeMatrix.from_matrix(M), all_pairs=all_pairs)
    assume(code.gauge_generators)
    num = len(code.gauge_generators)
    weights = rng.uniform(-3.0, 3.0, num) * (rng.random(num) < 0.75)  # a quarter zero
    assume(weights.any())
    w = WeightSpec.explicit(weights)
    v = rng.standard_normal(1 << code.n)
    op = build_full_hamiltonian(code, w)
    got = op.matvec(v)
    assert np.array_equal(got.view(np.int64), scatter_matvec(code, w, v).view(np.int64))
    assert np.abs(got - op.dense() @ v).max() <= 1e-12 * np.abs(weights).max()


def test_full_ground_energy_calls_the_instance_matvec():
    # a benchmark counts the solver's products by wrapping ``_matvec`` on the instance
    code, _ = make(M412)
    w = WeightSpec.uniform(1.0, 4)
    want = full_ground_energy(build_full_hamiltonian(code, w))
    op, calls = build_full_hamiltonian(code, w), []
    matvec = op._matvec
    op._matvec = lambda v: calls.append(1) or matvec(v)
    got = full_ground_energy(op)
    assert calls and np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_full_hamiltonian_rejects_imaginary_raw_phase():
    code, _ = make(M412)
    # Y = i X Z: Hermitian, but its X^x Z^z action carries a factor i
    bad = dataclasses.replace(code, x_gauge=(PauliOp.single(4, "Y", 0),) + code.x_gauge[1:])
    with pytest.raises(SpectraError, match="imaginary raw phase"):
        build_full_hamiltonian(bad, WeightSpec.uniform(1.0, 4))


def test_full_hamiltonian_rejects_non_hermitian_generator():
    code, _ = make(M412)
    # i Y has an even raw phase (X Z up to a sign), so only the Hermiticity check refuses it
    bad = dataclasses.replace(code, x_gauge=(PauliOp(4, 1, 1, 1),) + code.x_gauge[1:])
    with pytest.raises(SpectraError, match="only Hermitian terms"):
        build_full_hamiltonian(bad, WeightSpec.uniform(1.0, 4))


def test_code_sector_is_global_minimum_for_benchmarks():
    for M in (M412, M622):
        code, rb = make(M)
        rep = energy_separation(code, rb, WeightSpec.uniform(1.0, len(code.gauge_generators)))
        assert rep.e0_code == min(rep.ground_energies.values())


def test_spectrum_scales_linearly_with_weights():
    code, rb = make(M622)
    w1 = WeightSpec.xz(0.7, 1.3, 3, 3)
    w2 = WeightSpec.xz(2.1, 3.9, 3, 3)
    r1 = energy_separation(code, rb, w1)
    r2 = energy_separation(code, rb, w2)
    assert abs(r2.separation - 3 * r1.separation) < 1e-9
    assert abs(r2.e0_code - 3 * r1.e0_code) < 1e-9


def test_zero_z_weights_make_z_sectors_degenerate():
    # with every ZZ weight zero the Hamiltonian ignores the Z stabilizer label
    code, rb = make(M412)
    spec = dict(sector_spectra(code, rb, WeightSpec.explicit([1.0, 1.0, 0.0, 0.0])))
    for xs in (1, -1):
        assert np.abs(spec[xs, 1] - spec[xs, -1]).max() < 1e-12


def test_all_pairs_convention_changes_energy_not_code():
    # rows of three qubits, so all-pairs adds the end-to-end XX terms
    cm = CodeMatrix.from_matrix([[1, 1, 1], [1, 1, 1]])
    rb = extract_reduced_basis(cm)
    nn = build_code(cm)
    ap = build_code(cm, all_pairs=True)
    rep_nn = energy_separation(nn, rb, WeightSpec.uniform(1.0, len(nn.gauge_generators)))
    rep_ap = energy_separation(ap, rb, WeightSpec.uniform(1.0, len(ap.gauge_generators)))
    assert rep_nn.suppressing and rep_ap.suppressing
    assert rep_ap.e0_code < rep_nn.e0_code  # more terms, lower ground energy


def test_sector_spectrum_rejects_non_symmetric_matrix(monkeypatch):
    code, rb = make(M412)
    for H in ([[0.0, 1.0], [0.0, 0.0]], [[math.nan, 0.0], [0.0, 0.0]]):
        monkeypatch.setattr(spectra.PauliSum, "dense", lambda self, scale=None: np.array(H))
        with pytest.raises(SpectraError, match="not symmetric"):
            energy_separation(code, rb, WeightSpec.uniform(1.0, 4))


def test_sector_spectra_order_and_code_sector_first():
    code, rb = make(M622)
    sectors = [s for s, _ in sector_spectra(code, rb, WeightSpec.uniform(1.0, 6))]
    assert sectors == list(itertools.product((1, -1), repeat=2))
    rep = energy_separation(code, rb, WeightSpec.uniform(1.0, 6))
    assert rep.code_sector == (1, 1)
    assert list(rep.ground_energies) == sectors


# ---------------------------------------------------------------------------
# Static protection: the ground space against local Paulis (Marvian-Lidar no-go)
# ---------------------------------------------------------------------------

def apply_pauli(op: PauliOp, B: np.ndarray) -> np.ndarray:
    """op @ B by index permutation and sign: i^r X^x Z^z takes row i to row i ^ x,
    times i^r and the sign of Z^z on i."""
    out = np.empty(B.shape, dtype=complex)
    out[np.arange(B.shape[0]) ^ op.x] = (1j ** op._raw_phase() * z_signs(op.z, op.n))[:, None] * B
    return out


def ground_space_defect(M, weight: int):
    """(the code, its lowest 2^k levels and the one above, the largest entry of
    B†σB - cI over every Pauli σ of weight 1 to ``weight``, c = tr(B†σB) / 2^k),
    with B the lowest 2^k eigenvectors of -ΣG at unit weights, from a dense eigh."""
    code = build_code(CodeMatrix.from_matrix(M))
    H = build_full_hamiltonian(code, WeightSpec.uniform(1.0, len(code.gauge_generators))).dense()
    levels, V = np.linalg.eigh(H)
    g = 1 << code.k
    B = V[:, :g]
    defect = 0.0
    for w in range(1, weight + 1):
        for qubits in itertools.combinations(range(code.n), w):
            for letters in itertools.product("XYZ", repeat=w):
                x = sum(1 << q for q, a in zip(qubits, letters) if a in "XY")
                z = sum(1 << q for q, a in zip(qubits, letters) if a in "YZ")
                S = B.conj().T @ apply_pauli(PauliOp(code.n, x, z, 0), B)
                defect = max(defect, np.abs(S - np.trace(S) / g * np.eye(g)).max())
    return code, levels[:g + 1], defect


@pytest.mark.parametrize("M, weight", [
    pytest.param(M412, 1, id="M412"),
    pytest.param(M622, 1, id="M622"),
    pytest.param(np.ones((2, 3)), 1, id="2x3-all-ones"),
    pytest.param(np.ones((3, 3)), 2, id="3x3-all-ones"),
])
def test_ground_space_is_blind_to_paulis_below_the_distance(M, weight):
    """Every Pauli of weight below d acts on the 2^k-fold ground space as a
    multiple of the identity, so a weak local field splits it only at order d."""
    code, levels, defect = ground_space_defect(M, weight)
    assert weight < code.d
    assert levels[-2] - levels[0] < 1e-10 and levels[-1] - levels[-2] > 0.3
    assert defect < 1e-10


@pytest.mark.parametrize("M", [[[1, 1, 1]], [[1, 1, 1, 1]]], ids=["1x3-row", "1x4-row"])
def test_commuting_rows_expose_their_ground_space_at_first_order(M):
    """The commuting XX chains: some single-qubit Pauli acts on the ground space
    as a nontrivial logical."""
    code, levels, defect = ground_space_defect(M, 1)
    assert code.d == 1
    assert levels[-2] - levels[0] < 1e-10 and levels[-1] - levels[-2] > 0.3
    assert defect > 0.5
