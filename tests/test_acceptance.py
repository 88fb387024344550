"""Acceptance gate: one criterion per test, one pass/fail line each.

Criterion 3 is split: its structural sub-checks run in test_criterion_3, and
the 16-qubit separation values have their own test, which checks both
generating-set conventions against a full-space oracle and reports the cited
literature pair beside them as an unasserted reference (see DECISIONS.md).
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from gaugeforge.codes import CodeMatrix, build_code, combined_matrix
from gaugeforge.extraction import extract_reduced_basis, verify_reduced_basis
from gaugeforge.opensys import (
    BELL,
    PLUS,
    BathSpec,
    bath_correlation,
    davies_generator,
    decode_logical,
    encode_state,
    evolve,
    simulate_code,
    simulate_two_blocks,
    trace_distance,
)
from gaugeforge.spectra import (
    WeightSpec,
    build_full_hamiltonian,
    energy_separation,
    full_ground_energy,
    sector_spectra,
)
from tests.oracles import analytic_oracle_622, full_spectrum, gibbs_state
from tests.test_extraction import hand_listed_basis

M412 = [[1, 1], [1, 1]]
M622 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
M55 = [
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [1, 1, 1, 1, 0],
]


def report(capsys, num: int, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line, flush=True)


def make(M, all_pairs=False):
    cm = CodeMatrix.from_matrix(M)
    return cm, build_code(cm, all_pairs=all_pairs)


def test_criterion_1_four_qubit_spectrum(capsys):
    start = time.monotonic()
    cm, code = make(M412)
    rb = extract_reduced_basis(cm)
    w = WeightSpec.uniform(1.0, 4)
    spec = np.sort(full_spectrum(build_full_hamiltonian(code, w)))
    r = 2 * math.sqrt(2)
    expected = np.sort([-r, -r, -2, -2, -2, -2, 0, 0, 0, 0, 2, 2, 2, 2, r, r])
    spec_err = float(np.abs(spec - expected).max())
    sep = energy_separation(code, rb, w).separation
    sep_err = abs(sep - 2 * (math.sqrt(2) - 1))
    elapsed = time.monotonic() - start
    ok = spec_err < 1e-10 and sep_err < 1e-10 and elapsed < 1.0
    report(capsys, 1, ok, f"spectrum err {spec_err:.2e}, separation err {sep_err:.2e}, "
                  f"{elapsed:.2f}s")
    assert ok


def weights_622(lam, eta):
    return WeightSpec.explicit([lam, eta, lam, eta, lam, lam])


def test_criterion_2_six_qubit_separations(capsys):
    cm, code = make(M622)
    rb = extract_reduced_basis(cm)
    sep = energy_separation(code, rb, weights_622(1.0, 1.0)).separation
    err_unit = abs(sep - (4 - 2 * math.sqrt(3)))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        lam, eta = rng.uniform(0.1, 3.0, size=2)
        for sector, got in sector_spectra(code, rb, weights_622(lam, eta)):
            want = analytic_oracle_622(lam, eta, sector)
            worst = max(worst, float(np.abs(np.sort(got) - np.sort(want)).max()))
    sep_large = energy_separation(code, rb, weights_622(1e3, 1.0)).separation
    err_limit = abs(sep_large - 1.0)
    ok = err_unit < 1e-10 and worst < 1e-9 and err_limit < 1e-3
    report(capsys, 2, ok, f"unit-weight err {err_unit:.2e}, oracle worst {worst:.2e}, "
                  f"large-penalty err {err_limit:.2e}")
    assert ok


def test_criterion_3_sixteen_qubit_structure(capsys):
    start = time.monotonic()
    cm, code = make(M55)
    params_ok = (code.n, code.k, code.d) == (16, 2, 3)
    rb = extract_reduced_basis(cm)
    counts_ok = (len(rb.x_stabilizers), len(rb.z_stabilizers), rb.num_aux) == (3, 3, 8)
    verify_ok = verify_reduced_basis(code, rb).ok
    w = WeightSpec.uniform(1.0, len(code.gauge_generators))
    rep = energy_separation(code, rb, w)
    e_full = full_ground_energy(build_full_hamiltonian(code, w))
    cross_err = abs(min(rep.ground_energies.values()) - e_full)
    elapsed = time.monotonic() - start
    ok = params_ok and counts_ok and verify_ok and cross_err < 1e-6 and elapsed < 60
    report(capsys, 3, ok, f"params {params_ok}, counts {counts_ok}, verified {verify_ok}, "
                  f"full-vs-sector err {cross_err:.2e}, {elapsed:.1f}s "
                  f"(separation values in the companion test)")
    assert ok


def full_space_separation(code, w: WeightSpec) -> tuple[float, float]:
    """(e0_code, separation) from the full 2^n space, with no extraction and
    no sector reduction.

    P is the code-sector projector, the product of (1 + S)/2 over
    ``code.stabilizer_generators``, applied to vectors by bit manipulation.
    H commutes with P, and mu = 2 sum|w| bounds the spectral width of H, so
    the lowest eigenvalue of H + mu(1 - P) is the code-sector ground energy
    and that of H + mu P is the lowest level outside the code sector.
    """
    H = build_full_hamiltonian(code, w)
    dim = H.shape[0]
    idx = np.arange(dim)
    stabilizers = []
    for s in code.stabilizer_generators:
        # raw X^x Z^z action: S|i> = i^r (-1)^{|i & z|} |i ^ x>, r in {0, 2}
        r = (s.phase + (s.x & s.z).bit_count()) % 4
        assert r in (0, 2), "stabilizer generators must be Hermitian"
        signs = (-1.0) ** np.array([(i & s.z).bit_count() + r // 2 for i in idx])
        stabilizers.append((idx ^ s.x, signs))

    def project(v):
        for target, signs in stabilizers:
            sv = np.empty_like(v)
            sv[target] = signs * v
            v = (v + sv) / 2
        return v

    mu = 2 * float(np.abs(w.weights).sum())
    v0 = np.random.default_rng(0).standard_normal(dim)

    def lowest(penalize_code_sector: bool) -> float:
        def matvec(v):
            v = np.asarray(v).reshape(-1)
            p = project(v)
            return H.matvec(v) + mu * (p if penalize_code_sector else v - p)

        op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=float)
        return float(spla.eigsh(op, k=1, which="SA", v0=v0, tol=1e-10,
                                return_eigenvectors=False)[0])

    e0 = lowest(False)
    return e0, lowest(True) - e0


# (e0_code, separation) with unit weights, one pair per generating-set
# convention; checked against full_space_separation in the test below
SIXTEEN_QUBIT_VALUES = {
    "nearest-neighbor": (-13.8997, 0.2435),
    "all-pairs": (-21.9704, 0.4651),
}
CITED_SIXTEEN_QUBIT_PAIR = (-13.83, 0.33)


def test_criterion_3_sixteen_qubit_separation_values(capsys):
    """Code-sector ground energy and separation of the 16-qubit code under the
    nearest-neighbor and all-pairs generating sets, with unit weights.

    Each convention's ``energy_separation`` values must agree with the
    full-space oracle within 1e-8 and with the recorded pair within 1e-4.
    The cited literature pair (-13.83, 0.33) belongs to a generating set
    that neither convention is and that no repo document names; it is
    printed as a reference and not asserted.  DECISIONS.md (criterion 3)
    records why, and the survey of other generating sets behind it.
    """
    cm = CodeMatrix.from_matrix(M55)
    rb = extract_reduced_basis(cm)
    ok = True
    details = []
    for name, (want_e0, want_sep) in SIXTEEN_QUBIT_VALUES.items():
        code = build_code(cm, all_pairs=name == "all-pairs")
        w = WeightSpec.uniform(1.0, len(code.gauge_generators))
        rep = energy_separation(code, rb, w)
        oracle_e0, oracle_sep = full_space_separation(code, w)
        oracle_err = max(abs(rep.e0_code - oracle_e0), abs(rep.separation - oracle_sep))
        ok &= (oracle_err < 1e-8 and abs(rep.e0_code - want_e0) < 1e-4
               and abs(rep.separation - want_sep) < 1e-4)
        details.append(f"{name}: e0={rep.e0_code:.4f} sep={rep.separation:.4f} "
                       f"(oracle err {oracle_err:.2e})")
    cited_e0, cited_sep = CITED_SIXTEEN_QUBIT_PAIR
    report(capsys, 3, ok, "; ".join(details)
           + f"; cited ({cited_e0}, {cited_sep}) not asserted, see DECISIONS.md")
    assert ok, "; ".join(details)


def test_criterion_4_extraction_property_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(107)
    checked = 0
    failures = []
    while checked < 200:
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        M = rng.integers(0, 2, size=(r, c))
        if not (M.sum(axis=1).all() and M.sum(axis=0).all()):
            continue
        checked += 1
        cm = CodeMatrix.from_matrix(M)
        rep = verify_reduced_basis(build_code(cm), extract_reduced_basis(cm))
        if not rep.ok:
            failures.append((M.tolist(), rep.violations))
    cm55 = CodeMatrix.from_matrix(M55)
    fixture_ok = verify_reduced_basis(build_code(cm55), hand_listed_basis(cm55)).ok
    elapsed = time.monotonic() - start
    ok = not failures and fixture_ok and elapsed < 30
    report(capsys, 4, ok, f"{checked} random matrices, {len(failures)} violations, "
                  f"fixture {'ok' if fixture_ok else 'FAILED'}, {elapsed:.1f}s")
    assert ok, failures[:3]


def test_criterion_5_davies_identities(capsys):
    cm, code = make(M412)
    b = BathSpec()
    lam = 1.2 * b.omega_T
    w = WeightSpec.uniform(lam, 4)
    g = davies_generator(code, w, b)
    recon = sum(A.toarray() for _, _, A in g.jumps)
    target = sum(g.basis.conj().T @ A @ g.basis for A in g.couplings)
    completeness = float(np.abs(recon - target).max())
    balance_exact = all(
        bath_correlation(-abs(omega), b)
        == math.exp(-abs(omega) / b.omega_T) * bath_correlation(abs(omega), b)
        for omega, _, _ in g.jumps if omega != 0
    )
    H = build_full_hamiltonian(code, w).dense()
    rho_g = gibbs_state(H, b.omega_T)
    traj = evolve(rho_g, g, np.linspace(0, 2e-7, 11),
                  metrics_fn=lambda r, t: {"td": trace_distance(r, rho_g)})
    drift = max(m["td"] for m in traj.metrics)
    ok = completeness < 1e-12 and balance_exact and drift < 1e-6
    report(capsys, 5, ok, f"completeness {completeness:.2e}, detailed balance exact "
                  f"{balance_exact}, Gibbs drift {drift:.2e}")
    assert ok


def test_criterion_6_dynamics_sanity(capsys):
    rng = np.random.default_rng(109)
    b = BathSpec()
    worst_round_trip = 0.0
    invariants_ok = True
    for M in (M412, M622):
        cm, code = make(M)
        w = WeightSpec.uniform(1.0, len(code.gauge_generators))
        for _ in range(3):
            A = rng.normal(size=(1 << code.k, 1 << code.k)) \
                + 1j * rng.normal(size=(1 << code.k, 1 << code.k))
            rho_L = A @ A.conj().T
            rho_L /= rho_L.trace()
            rho = encode_state(rho_L, code, w)
            worst_round_trip = max(
                worst_round_trip, float(np.abs(decode_logical(rho, code) - rho_L).max()))
    cm, code = make(M412)
    rho_L = PLUS
    traj = simulate_code(code, rho_L, 1.2, b, np.linspace(0, 2e-8, 5))
    rho = traj.final_state
    invariants_ok &= abs(rho.trace().real - 1) < 1e-9
    invariants_ok &= float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]) > -1e-9
    w = WeightSpec.uniform(1.2 * b.omega_T, 4)
    rho0 = encode_state(rho_L, code, w)
    g0 = davies_generator(code, w, BathSpec(chi=0.0))
    traj0 = evolve(rho0, g0, np.linspace(0, 2e-7, 5))
    chi0_err = float(np.abs(traj0.final_state - rho0).max())
    ok = worst_round_trip < 1e-10 and invariants_ok and chi0_err < 1e-12
    report(capsys, 6, ok, f"round-trip err {worst_round_trip:.2e}, invariants "
                  f"{invariants_ok}, chi=0 identity err {chi0_err:.2e}")
    assert ok


@pytest.mark.slow
def test_criterion_7_noise_suppression_experiments(capsys):
    start = time.monotonic()
    b = BathSpec()
    cm412 = CodeMatrix.from_matrix(M412)
    c412 = build_code(cm412)
    t_plus = np.linspace(0, 2e-7, 26)
    finals = []
    for gamma in (0.8, 1.0, 1.2, 1.5):
        traj = simulate_code(c412, PLUS, gamma, b, t_plus)
        finals.append(traj.metrics[-1]["trace_distance"])
    monotone = all(a > b_ for a, b_ in zip(finals, finals[1:]))

    t_bell = np.linspace(0, 3e-8, 26)
    c622 = build_code(CodeMatrix.from_matrix(M622))
    comp = build_code(combined_matrix([cm412, cm412]))
    eof = {}
    for gamma in (0.2, 1.2):
        eof[("together", gamma)] = simulate_code(
            c622, BELL, gamma, b, t_bell).metrics[-1]["eof"]
        eof[("separate", gamma)] = simulate_two_blocks(
            c412, comp, BELL, gamma, b, t_bell).metrics[-1]["eof"]
    protected_wins = (eof[("together", 1.2)] > eof[("together", 0.2)]
                      and eof[("separate", 1.2)] > eof[("separate", 0.2)])
    elapsed = time.monotonic() - start
    ok = monotone and protected_wins and elapsed < 600
    report(capsys, 7, ok, f"final trace distances {[f'{v:.4f}' for v in finals]} "
                  f"(decreasing {monotone}); EoF at gamma=1.2 vs 0.2: "
                  f"together {eof[('together', 1.2)]:.4f} vs "
                  f"{eof[('together', 0.2)]:.4f}, separate "
                  f"{eof[('separate', 1.2)]:.4f} vs {eof[('separate', 0.2)]:.4f}; "
                  f"together-vs-separate at 1.2: {eof[('together', 1.2)]:.4f} vs "
                  f"{eof[('separate', 1.2)]:.4f} (recorded); {elapsed:.0f}s")
    assert ok


def test_criterion_8_locality_accounting(capsys):
    from gaugeforge.codes import encode_ising, encode_operator

    cm622 = CodeMatrix.from_matrix(M622)
    code = build_code(combined_matrix([cm622, cm622]))
    assignment = {0: 0, 1: 1, 2: 2, 3: 3}  # block 0 holds logical qubits 0, 1
    intra_ok = True
    for term in ("Z1 Z2", "X1 X2", "Z3 Z4", "X3 X4"):
        _, wgt = encode_operator(term, assignment, code)
        intra_ok &= wgt <= 2
    cross_ok = True
    for term in ("Z2 Z3", "X1 X4"):
        _, wgt = encode_operator(term, assignment, code)
        cross_ok &= wgt == 4
    h = {q: 1.0 for q in range(4)}
    J = {(0, 1): 1.0, (2, 3): 1.0, (1, 2): 1.0}
    counts = [encode_ising(h, J, assignment, code)[1] for _ in range(3)]
    deterministic = counts[0] == counts[1] == counts[2]
    ok = intra_ok and cross_ok and deterministic
    report(capsys, 8, ok, f"intra-block weight<=2 {intra_ok}, cross-block weight=4 "
                  f"{cross_ok}, histogram {counts[0]} deterministic {deterministic}")
    assert ok
