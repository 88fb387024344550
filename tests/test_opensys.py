"""Bath model, Davies generator identities and open-system dynamics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeforge import opensys
from gaugeforge.codes import CodeMatrix, build_code, combined_matrix
from gaugeforge.opensys import (
    BELL,
    PLUS,
    BathSpec,
    EncodingError,
    OpenSysError,
    bath_correlation,
    code_sector_projector,
    davies_generator,
    davies_generator_from_h,
    decode_logical,
    encode_state,
    entanglement_of_formation,
    evolve,
    leakage,
    lindblad_superoperator,
    pauli_matrix,
    purity,
    simulate_code,
    simulate_two_blocks,
    single_qubit_couplings,
    trace_distance,
)
from gaugeforge.pauli import PauliOp
from gaugeforge.spectra import WeightSpec, build_full_hamiltonian
from tests.oracles import gibbs_state, kron_liouvillian, lindblad_propagators, rk4_propagate

M412 = [[1, 1], [1, 1]]
M622 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def code_and_weights(M, lam=1.0):
    code = build_code(CodeMatrix.from_matrix(M))
    return code, WeightSpec.uniform(lam, len(code.gauge_generators))


def random_density(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / rho.trace()


# ---------------------------------------------------------------------------
# Bath model
# ---------------------------------------------------------------------------

def test_bath_spec_validation():
    with pytest.raises(OpenSysError):
        BathSpec(chi=-1e-4)
    with pytest.raises(OpenSysError):
        BathSpec(omega_c=0.0)
    for bad in ({"chi": math.nan}, {"omega_c": math.inf}, {"omega_T": math.nan}):
        with pytest.raises(OpenSysError):
            BathSpec(**bad)
    BathSpec(chi=0.0)  # zero coupling is allowed


def test_bath_spec_refuses_a_rate_scale_that_overflows():
    """Every rate lies below 2 pi chi (omega_c + omega_T), so that scale must be finite."""
    with pytest.raises(OpenSysError, match="rate scale"):
        BathSpec(chi=1e300)
    with pytest.raises(OpenSysError, match="rate scale"):
        BathSpec(chi=0.0, omega_c=1.5e308, omega_T=1.5e308)
    BathSpec(chi=1e296)


def test_davies_generator_refuses_non_finite_frequencies_and_rates():
    with pytest.raises(OpenSysError, match="Bohr frequencies overflow"):  # E3 - E0 overflows
        davies_generator_from_h(np.diag([-1e308, 0.0, 0.0, 1e308]), BathSpec(),
                                single_qubit_couplings(2))
    with pytest.raises(OpenSysError, match="Bohr frequency"):  # 2 pi chi omega overflows
        davies_generator_from_h(np.diag([0.0, 1e300]), BathSpec(chi=1e290),
                                single_qubit_couplings(1))


def test_bath_correlation_zero_frequency_limit():
    b = BathSpec()
    c0 = bath_correlation(0.0, b)
    assert abs(c0 - 2 * math.pi * b.chi * b.omega_T) < 1e-9
    assert abs(c0 - 4.3957e6) < 1e2
    # continuity at the origin
    assert abs(bath_correlation(1e-3, b) - c0) < 1e-3


def test_bath_correlation_detailed_balance_exact():
    b = BathSpec()
    for omega in (1e6, 1e8, 2.2e9, 1e10, 8e10):
        fwd = bath_correlation(omega, b)
        bwd = bath_correlation(-omega, b)
        assert bwd == math.exp(-omega / b.omega_T) * fwd
        assert fwd > 0 and bwd >= 0


def test_bath_correlation_negative_tail_vanishes():
    b = BathSpec()
    assert bath_correlation(-1e15, b) == 0.0


# ---------------------------------------------------------------------------
# Davies generator identities
# ---------------------------------------------------------------------------

def test_pauli_matrix_matches_tensor_oracle():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    op = PauliOp.single(2, "X", 0) * PauliOp.single(2, "Z", 1)
    assert np.allclose(pauli_matrix(op), np.kron(Z, X))


def test_jump_operator_completeness_and_adjoints():
    code, w = code_and_weights(M412)
    b = BathSpec()
    g = davies_generator(code, w, b)
    recon = sum(A.toarray() for _, _, A in g.jumps)
    target = sum(g.basis.conj().T @ A @ g.basis for A in single_qubit_couplings(code.n))
    assert np.abs(recon - target).max() < 1e-12
    by_omega = {}
    for omega, rate, A in g.jumps:
        assert rate >= 0
        by_omega.setdefault(round(omega, 3), []).append(A)
    # every positive frequency has a matching adjoint block at -omega
    total = {o: sum(a.toarray() for a in ops) for o, ops in by_omega.items()}
    for o, block in total.items():
        if o > 0:
            assert -o in total
            assert np.abs(total[-o] - block.conj().T).max() < 1e-12


def test_rate_detailed_balance_for_binned_frequencies():
    code, w = code_and_weights(M412, lam=2.2e9)
    b = BathSpec()
    g = davies_generator(code, w, b)
    for omega, _, _ in g.jumps:
        if omega == 0:
            continue
        a = abs(omega)
        assert bath_correlation(-a, b) == math.exp(-a / b.omega_T) * bath_correlation(a, b)


def test_bohr_frequencies_come_from_sector_eigenvalues():
    lam = 1.7e9
    code, w = code_and_weights(M412, lam=lam)
    g = davies_generator(code, w, BathSpec())
    levels = lam * np.array([-2 * math.sqrt(2), -2, 0, 2, 2 * math.sqrt(2)])
    allowed = sorted({round(b - a, 3) for a in levels for b in levels})
    for omega, _, _ in g.jumps:
        assert any(abs(omega - x) < 1e-3 for x in allowed)


# ---------------------------------------------------------------------------
# Liouvillian assembly
# ---------------------------------------------------------------------------

def assert_bitwise_equal(L, ref):
    """L has the entries of the complex ``ref`` bit for bit: a real L its real parts, with
    every imaginary part of ``ref`` zero, and a complex L its float view."""
    assert L.shape == ref.shape
    assert np.array_equal(L.indptr, ref.indptr)
    assert np.array_equal(L.indices, ref.indices)
    if L.dtype == np.float64:
        assert not ref.data.imag.any() and np.array_equal(L.data, ref.data.real)
    else:
        assert np.array_equal(L.data.view(float), ref.data.view(float))


@pytest.mark.slow
def test_liouvillian_matches_kron_oracle_bitwise():
    for M in (M412, M622, [[1, 1, 1], [1, 1, 1]]):
        code = build_code(CodeMatrix.from_matrix(M))
        for bath in (BathSpec(chi=0.0), BathSpec()):
            for gamma in (0.2, 1.2, 3.0):
                w = WeightSpec.uniform(gamma * bath.omega_T, len(code.gauge_generators))
                g = davies_generator(code, w, bath)
                L = lindblad_superoperator(g)
                assert L.dtype == np.float64
                assert_bitwise_equal(L, kron_liouvillian(g))
                if bath.chi == 0.0:
                    assert L.shape == (g.dim ** 2, g.dim ** 2) and L.nnz == 0


@settings(max_examples=60)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=8, max_size=8),
       st.lists(st.sampled_from([0.0, 1e-9, 2e-9, 3e-9]), min_size=8, max_size=8),
       st.integers(0, 2**32 - 1))
def test_liouvillian_matches_kron_oracle_on_degenerate_spectra(levels, shifts, seed):
    """Repeated eigenvalues give degenerate levels; shifts near the 1e-9
    grouping tolerance split some levels and snap their Bohr frequencies
    together, so one A(omega) can join two levels through A^dag A."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    H = (Q * (np.array(levels) + np.array(shifts))) @ Q.conj().T
    C = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    g = davies_generator_from_h((H + H.conj().T) / 2, BathSpec(), [c + c.conj().T for c in C])
    L = lindblad_superoperator(g)
    assert L.dtype == np.complex128
    assert_bitwise_equal(L, kron_liouvillian(g))


def test_liouvillian_matches_kron_oracle_on_other_generator_sets():
    """Unequal X and Z weights and the all-pairs generator sets give level
    structures, and so tile shapes, that the uniform-weight codes do not."""
    bath = BathSpec()
    m622 = build_code(CodeMatrix.from_matrix(M622))
    cases = [(m622, WeightSpec.xz(1.2 * bath.omega_T, 0.7 * bath.omega_T,
                                  len(m622.x_gauge), len(m622.z_gauge)))]
    for M in (M412, [[1, 1, 1], [1, 1, 1]]):
        code = build_code(CodeMatrix.from_matrix(M), all_pairs=True)
        cases.append((code, WeightSpec.uniform(1.2 * bath.omega_T, len(code.gauge_generators))))
    for code, w in cases:
        g = davies_generator(code, w, bath)
        L = lindblad_superoperator(g)
        assert L.dtype == np.float64
        assert_bitwise_equal(L, kron_liouvillian(g))


def test_liouvillian_matches_kron_oracle_on_a_lone_entry():
    """A jump with one non-zero entry in a level block of two: the kron sum
    squares it in a 1-wide loop, which numpy rounds without a fused
    multiply-add, unlike the wider loop of the block's outer product."""
    rng = np.random.default_rng(3)
    for z in rng.normal(size=(20, 2)) @ [1, 1j]:
        c = np.zeros((3, 3), dtype=complex)
        c[2, 0], c[0, 2] = z, np.conj(z)
        g = davies_generator_from_h(np.diag([0.0, 0.0, 1e9]), BathSpec(), [c])
        assert [A.nnz for _, _, A in g.jumps] == [1, 1]
        assert_bitwise_equal(lindblad_superoperator(g), kron_liouvillian(g))


# ---------------------------------------------------------------------------
# Evolution invariants
# ---------------------------------------------------------------------------

def test_zero_coupling_evolution_is_identity():
    code, w = code_and_weights(M412)
    rho0 = encode_state(PLUS, code, w)
    g = davies_generator(code, w, BathSpec(chi=0.0))
    traj = evolve(rho0, g, np.linspace(0, 1e-7, 4))
    assert np.abs(traj.final_state - rho0).max() < 1e-12


def test_gibbs_state_is_stationary():
    code, w = code_and_weights(M412, lam=2.64e9)
    b = BathSpec()
    H = build_full_hamiltonian(code, w).dense()
    rho_g = gibbs_state(H, b.omega_T)
    g = davies_generator(code, w, b)
    traj = evolve(rho_g, g, np.linspace(0, 5e-8, 4),
                  metrics_fn=lambda r, t: {"td": trace_distance(r, rho_g)})
    assert max(m["td"] for m in traj.metrics) < 1e-6


def test_evolve_rejects_bad_initial_state():
    code, w = code_and_weights(M412)
    g = davies_generator(code, w, BathSpec())
    bad = np.eye(16, dtype=complex)  # trace 16
    with pytest.raises(OpenSysError):
        evolve(bad, g, np.linspace(0, 1e-9, 2))
    with pytest.raises(OpenSysError):
        evolve(np.eye(16) / 16, g, np.linspace(1e-9, 2e-9, 2))  # grid not from 0


def test_trace_and_positivity_along_trajectory():
    code, w = code_and_weights(M412, lam=2.64e9)
    traj = simulate_code(code, PLUS, 1.2, BathSpec(), np.linspace(0, 2e-8, 5))
    rho = traj.final_state
    assert abs(rho.trace().real - 1) < 1e-9
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] > -1e-9


@pytest.fixture
def sampled_states(monkeypatch):
    """Every state the drivers check, in sampling order."""
    states = []
    check = opensys._check_state

    def spy(rho, t):
        states.append(rho.copy())
        check(rho, t)

    monkeypatch.setattr(opensys, "_check_state", spy)
    return states


def test_simulate_code_matches_expm_oracle(sampled_states):
    b = BathSpec()
    code, w = code_and_weights(M412, lam=1.2 * b.omega_T)
    t = np.linspace(0, 2e-8, 6)
    simulate_code(code, PLUS, 1.2, b, t)
    g = davies_generator(code, w, b)
    V = g.basis
    y0 = (V.conj().T @ encode_state(PLUS, code, w) @ V).reshape(-1)
    assert len(sampled_states) == len(t)
    for rho, P in zip(sampled_states, lindblad_propagators(g.jumps, g.dim, t)):
        expected = V @ (P @ y0).reshape(g.dim, g.dim) @ V.conj().T
        assert np.abs(rho - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# The RK4 loop against its complex reference
# ---------------------------------------------------------------------------

def assert_propagates_like_reference(g, y0, t):
    """``_propagate`` yields every state of the complex RK4 loop bit for bit."""
    got, ref = list(opensys._propagate(g, y0, t)), list(rk4_propagate(g, y0.astype(complex), t))
    assert len(got) == len(ref) == len(t) - 1
    for a, b in zip(got, ref):
        assert a.dtype == complex and a.shape == b.shape
        assert np.array_equal(a.real, b.real) and np.array_equal(a.imag, b.imag)


def two_block_words(g, code, w):
    """simulate_two_blocks' stack: one row-stacked column per encoded word, F-ordered."""
    Pg = opensys.ground_projector(code, w, code_sector_projector(code))
    W = np.array([enc for _, enc in opensys._word_operators(code)]) @ Pg
    return g.to_eigenbasis(W).reshape(len(W), -1).T


def test_propagate_real_liouvillian_matches_reference():
    """The code Liouvillian is real: the plusL state runs in real arithmetic,
    while the two-block word stack (with its imaginary Y word) and a random
    complex state keep L and y complex."""
    b = BathSpec()
    code, w = code_and_weights(M412, lam=1.2 * b.omega_T)
    g = davies_generator(code, w, b)
    assert lindblad_superoperator(g).dtype == np.float64
    plus = g.to_eigenbasis(encode_state(PLUS, code, w)).reshape(-1)
    words = two_block_words(g, code, w)
    mixed = g.to_eigenbasis(random_density(np.random.default_rng(11), g.dim)).reshape(-1)
    assert not plus.imag.any() and words.imag.any() and mixed.imag.any()
    assert not words.flags.c_contiguous
    assert_propagates_like_reference(g, plus, np.array([0, 1e-9, 1e-9, 3e-9]))  # a zero span too
    assert_propagates_like_reference(g, words, np.linspace(0, 5e-10, 3))
    assert_propagates_like_reference(g, mixed, np.linspace(0, 5e-10, 3))


def test_propagate_complex_liouvillian_matches_reference():
    """A complex Hamiltonian and complex couplings give a complex L: a state
    vector, a real-typed state and a stack of columns stay complex."""
    rng = np.random.default_rng(12)
    H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    C = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
    g = davies_generator_from_h(1e9 * (H + H.conj().T), BathSpec(), [c + c.conj().T for c in C])
    L = lindblad_superoperator(g)
    assert L.dtype == np.complex128 and L.data.imag.any()
    t = np.linspace(0, 4e-10, 3)
    rho = g.to_eigenbasis(random_density(rng, 4))
    assert_propagates_like_reference(g, rho.reshape(-1), t)
    assert_propagates_like_reference(g, np.eye(4).reshape(-1) / 4, t)
    assert_propagates_like_reference(g, np.stack([rho, rho.T]).reshape(2, -1).T, t)


def test_propagate_refuses_a_grid_over_the_step_limit(monkeypatch):
    """The step counts are summed over the spans as floats, before L is built: each span
    below the limit but their sum above it, and a count past the float range."""
    b = BathSpec()
    code, w = code_and_weights(M412, lam=1.2 * b.omega_T)
    g = davies_generator(code, w, b)
    half = opensys.MAX_RK4_STEPS // 2 * opensys._step_bound(g)

    def no_build(g):
        raise AssertionError("L built before the step count check")

    monkeypatch.setattr(opensys, "lindblad_superoperator", no_build)
    for t in ([0, half, 2 * half + 1e-12], [0, 1e-300, 1e300]):
        with pytest.raises(OpenSysError, match="RK4 steps"):
            next(opensys._propagate(g, np.zeros(g.dim ** 2), np.array(t)))


def test_sparse_kernels_add_into_the_output_with_the_bits_of_matmul():
    """``_propagate`` calls scipy's private ``csr_matvec`` and ``csr_matvecs``
    on C-contiguous buffers of L's dtype, and needs them to add L x into the
    output in place with the bits of the complex L @ x.  A scipy release that
    changes them must fail here."""
    from scipy.sparse import csr_matrix
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

    rng = np.random.default_rng(13)
    mask = rng.random((7, 5)) < 0.5
    for imag in (0, 1j):
        A = csr_matrix((rng.normal(size=(7, 5)) + imag * rng.normal(size=(7, 5))) * mask)
        Ac = A.astype(complex)
        x, X = (rng.normal(size=s) + imag * rng.normal(size=s) for s in (5, (5, 3)))
        out = np.zeros(7, A.dtype)
        csr_matvec(7, 5, A.indptr, A.indices, A.data, x, out)
        assert np.array_equal(out, Ac @ x.astype(complex))
        out = np.zeros((7, 3), A.dtype)
        csr_matvecs(7, 5, 3, A.indptr, A.indices, A.data, X, out)
        want = Ac @ X.astype(complex)
        assert np.array_equal(out.real, want.real) and np.array_equal(out.imag, want.imag)
    # integer values make every sum exact, so the output must be added to, not overwritten
    A = csr_matrix(rng.integers(-9, 9, size=(7, 5)) * (rng.random((7, 5)) < 0.5), dtype=float)
    x, start = rng.integers(-9, 9, size=5).astype(float), rng.integers(-9, 9, size=7).astype(float)
    out = start.copy()
    csr_matvec(7, 5, A.indptr, A.indices, A.data, x, out)
    assert np.array_equal(out, start + A @ x)
    out = np.stack([start, 2 * start], axis=1)
    csr_matvecs(7, 5, 2, A.indptr, A.indices, A.data, np.stack([x, -x], axis=1), out)
    assert np.array_equal(out, np.stack([start + A @ x, 2 * start - A @ x], axis=1))


# ---------------------------------------------------------------------------
# Encoding and decoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("matrices", [[M412], [M622], [[[1, 1, 1], [1, 1, 1]]], [M412, M412]],
                         ids=["M412", "M622", "2x3", "M412-two-block"])
def test_word_operators_multiply_like_bare_words(matrices):
    """enc(a) enc(b) = c enc(ab) with the phase c of bare(a) bare(b) = c bare(ab),
    and every encoded word commutes with every gauge generator."""
    cms = [CodeMatrix.from_matrix(M) for M in matrices]
    code = build_code(cms[0] if len(cms) == 1 else combined_matrix(cms))
    words = list(opensys._word_operators(code))
    assert len(words) == 4 ** code.k
    for bare_a, enc_a in words:
        for bare_b, enc_b in words:
            prod = bare_a @ bare_b
            overlaps = [np.trace(bare.conj().T @ prod) / (1 << code.k) for bare, _ in words]
            j = int(np.argmax(np.abs(overlaps)))
            c = overlaps[j]
            assert c in (1, -1, 1j, -1j) and np.array_equal(prod, c * words[j][0])
            assert np.array_equal(enc_a @ enc_b, c * words[j][1])
    for g in code.gauge_generators:
        G = pauli_matrix(g)
        for _, enc in words:
            assert np.array_equal(enc @ G, G @ enc)


def test_encode_decode_round_trip_random_states():
    rng = np.random.default_rng(47)
    for M in (M412, M622):
        code, w = code_and_weights(M)
        for _ in range(5):
            rho_L = random_density(rng, 1 << code.k)
            rho = encode_state(rho_L, code, w)
            assert np.abs(decode_logical(rho, code) - rho_L).max() < 1e-10
            assert leakage(rho, code_sector_projector(code)) < 1e-9


def test_encode_plus_state_expectations():
    code, w = code_and_weights(M412)
    rho = encode_state(PLUS, code, w)
    xl, zl = code.logical_pairs[0]
    assert abs(np.trace(rho @ pauli_matrix(xl)).real - 1) < 1e-10
    for s in code.stabilizer_generators:
        assert abs(np.trace(rho @ pauli_matrix(s)).real - 1) < 1e-10
    H = build_full_hamiltonian(code, w).dense()
    e0 = np.linalg.eigvalsh(H)[0]
    assert abs(np.trace(rho @ H).real - e0) < 1e-9


def test_encode_bell_state_correlations():
    code, w = code_and_weights(M622)
    rho = encode_state(BELL, code, w)
    (x1, z1), (x2, z2) = code.logical_pairs
    assert abs(np.trace(rho @ pauli_matrix(x1 * x2)).real - 1) < 1e-10
    assert abs(np.trace(rho @ pauli_matrix(z1 * z2)).real - 1) < 1e-10


def test_encode_maximally_mixed_is_normalized_projector():
    code, w = code_and_weights(M412)
    rho = encode_state(np.eye(2, dtype=complex) / 2, code, w)
    vals = np.linalg.eigvalsh(rho)
    # rank 2^k ground multiplet with equal populations
    assert np.sum(vals > 1e-12) == 2
    assert np.abs(vals[vals > 1e-12] - 0.5).max() < 1e-10


def test_encode_state_input_validation():
    code, w = code_and_weights(M412)
    with pytest.raises(EncodingError):
        encode_state(np.eye(4, dtype=complex) / 4, code, w)


def test_single_physical_error_flags_leakage():
    code, w = code_and_weights(M412)
    rho = encode_state(PLUS, code, w)
    Z11 = pauli_matrix(PauliOp.single(4, "Z", 0))
    rho_err = Z11 @ rho @ Z11
    P = code_sector_projector(code)
    assert leakage(rho_err, P) > 0.1
    assert np.trace(P @ rho_err).real < 1 - 1e-6


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_trace_distance_and_purity_basics():
    rng = np.random.default_rng(53)
    rho = random_density(rng, 4)
    assert trace_distance(rho, rho) == 0
    assert abs(purity(np.eye(4, dtype=complex) / 4) - 0.25) < 1e-12
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1
    ket1 = np.zeros((2, 2), dtype=complex)
    ket1[1, 1] = 1
    assert abs(trace_distance(ket0, ket1) - 1) < 1e-12


def test_entanglement_of_formation_extremes():
    assert abs(entanglement_of_formation(BELL) - 1) < 1e-12
    prod = np.zeros((4, 4), dtype=complex)
    prod[0, 0] = 1
    assert entanglement_of_formation(prod) == 0
    assert entanglement_of_formation(np.eye(4, dtype=complex) / 4) == 0


def test_entanglement_of_formation_werner_oracle():
    for p in (0.5, 0.75, 0.9):
        rho = p * BELL + (1 - p) * np.eye(4) / 4
        C = max(0.0, (3 * p - 1) / 2)
        if C == 0:
            expected = 0.0
        else:
            x = (1 + math.sqrt(1 - C * C)) / 2
            expected = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        assert abs(entanglement_of_formation(rho) - expected) < 1e-12


# ---------------------------------------------------------------------------
# Two-block factorization
# ---------------------------------------------------------------------------

def test_two_block_product_state_matches_single_block():
    """A product logical state evolves as two independent blocks, so the
    first-qubit marginal must match the direct single-block simulation."""
    cm = CodeMatrix.from_matrix(M412)
    block = build_code(cm)
    comp = build_code(combined_matrix([cm, cm]))
    b = BathSpec()
    t = np.linspace(0, 1e-8, 3)
    rho_prod = np.kron(PLUS, PLUS)
    traj2 = simulate_two_blocks(block, comp, rho_prod, 1.2, b, t)
    traj1 = simulate_code(block, PLUS, 1.2, b, t)
    rl2 = decode_logical(traj2.final_state, comp)
    marginal = rl2.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)  # trace slow qubit
    rl1 = decode_logical(traj1.final_state, block)
    assert np.abs(marginal - rl1).max() < 1e-7


def test_two_block_matches_expm_oracle(sampled_states):
    """|0><0| (x) |+><+| and a random state are not symmetric under swapping
    the blocks, so these states also pin which block is the slow index."""
    cm = CodeMatrix.from_matrix(M412)
    block = build_code(cm)
    comp = build_code(combined_matrix([cm, cm]))
    b = BathSpec()
    lam = 1.2 * b.omega_T
    t = np.linspace(0, 5e-10, 3)
    g = davies_generator(block, WeightSpec.uniform(lam, len(block.gauge_generators)), b)
    d = g.dim
    U = np.kron(g.basis, g.basis)
    props = [P.reshape(d, d, d, d) for P in lindblad_propagators(g.jumps, d, t)]  # P[r', c', r, c]
    for rho_L in (BELL, np.kron(np.diag([1, 0]).astype(complex), PLUS),
                  random_density(np.random.default_rng(5), 4)):
        sampled_states.clear()
        simulate_two_blocks(block, comp, rho_L, 1.2, b, t)
        rho0 = encode_state(rho_L, comp, WeightSpec.uniform(lam, len(comp.gauge_generators)))
        # legs: rho[a, b, c, e] with row = a*d+b and col = c*d+e, so one block
        # lives on legs (a, c) and the other on legs (b, e)
        T0 = (U.conj().T @ rho0 @ U).reshape(d, d, d, d)
        assert len(sampled_states) == len(t)
        for rho, P in zip(sampled_states, props):
            T = np.einsum("xyac,abce->xbye", P, T0)
            T = np.einsum("uvbe,xbye->xuyv", P, T)
            expected = U @ T.reshape(d * d, d * d) @ U.conj().T
            assert np.abs(rho - expected).max() < 1e-12


def test_two_block_shape_guard():
    cm = CodeMatrix.from_matrix(M412)
    block = build_code(cm)
    with pytest.raises(OpenSysError):
        simulate_two_blocks(block, block, np.kron(PLUS, PLUS), 1.0, BathSpec(),
                            np.linspace(0, 1e-9, 2))
    comp = build_code(combined_matrix([cm, cm]))
    # same n and k as two copies of the block, but a different second block
    other = build_code(combined_matrix([cm, CodeMatrix.from_matrix([[1, 1, 1, 1]])]))
    assert (other.n, other.k) == (comp.n, comp.k)
    with pytest.raises(OpenSysError, match="two copies"):
        simulate_two_blocks(block, other, BELL, 1.0, BathSpec(), np.linspace(0, 1e-9, 2))
    with pytest.raises(EncodingError, match="logical state must be 4x4"):
        simulate_two_blocks(block, comp, PLUS, 1.0, BathSpec(), np.linspace(0, 1e-9, 2))
    for grid in ([], [1e-9, 2e-9], [0, 2e-9, 1e-9], [0, np.nan], [0, np.inf]):
        with pytest.raises(OpenSysError, match="time grid"):
            simulate_two_blocks(block, comp, BELL, 1.0, BathSpec(), grid)
        with pytest.raises(OpenSysError, match="time grid"):
            simulate_code(block, PLUS, 1.0, BathSpec(), grid)


def test_bare_hamiltonian_generator_has_single_frequency():
    g = davies_generator_from_h(np.zeros((2, 2)), BathSpec(), single_qubit_couplings(1))
    assert all(omega == 0 for omega, _, _ in g.jumps)


def test_davies_generator_rejects_non_hermitian_hamiltonian():
    H = np.array([[0.0, 1j], [1j, 0.0]])
    with pytest.raises(OpenSysError):
        davies_generator_from_h(H, BathSpec(), single_qubit_couplings(1))
