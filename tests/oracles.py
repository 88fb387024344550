"""Independent reference values that only the tests use: closed-form sector
spectra of the two small benchmark codes, the dense full spectrum, the
full-space product as per-term scatters, encoded logical words as letter
products, minimum-weight encoding over the listed stabilizer group, the Gibbs state, the sparse kron-sum Liouvillian and exact Lindblad
propagators."""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from gaugeforge.pauli import PauliOp


def analytic_oracle_412(lam1, lam2, eta1, eta2, sector) -> np.ndarray:
    """Sector eigenvalues of the 4-qubit code: +/- sqrt((l1+x l2)^2 + (e1+z e2)^2)."""
    x, z = sector
    r = np.hypot(lam1 + x * lam2, eta1 + z * eta2)
    return np.array([-r, r])


def analytic_oracle_622(lam, eta, sector) -> np.ndarray:
    """Sector eigenvalues of the 6-qubit code with the single eta placement.

    sector = (x, z) with values in {+1, -1}; s_+ = (x + z) / 2, so sectors
    (+,-) and (-,+) share the s_+ = 0 spectrum.
    """
    x, z = sector
    s_plus = (x + z) / 2
    if s_plus == 0:
        r = 2 * np.sqrt(2 * lam**2 + eta**2)
        vals = [-r, 0.0, 0.0, r]
    else:
        r = np.sqrt(8 * lam**2 + eta**2)
        vals = [-eta * s_plus - r, -eta * s_plus + r, 2 * eta * s_plus, 0.0]
    return np.sort(np.array(vals, dtype=float))


def full_spectrum(op) -> np.ndarray:
    return np.linalg.eigvalsh(op.dense())


def scatter_matvec(code, w, v: np.ndarray) -> np.ndarray:
    """-sum_G w_G (G v) for pure-type gauge generators, one fancy-index
    scatter per nonzero weight in generator order:
    out[i ^ x] += (-w sign) * ((-1)^{|i & z|} v[i]), the sign taken as the
    product of 1 - 2 i_q over the qubits q of z.  Every output entry gets the
    same products in the same order as the ``PauliSum`` matvec, so the two
    must agree bit for bit."""
    idx = np.arange(v.size)
    out = np.zeros(v.size)
    for g, wt in zip(code.gauge_generators, w.for_code(code)):
        if wt != 0:
            signs = np.prod([1 - 2 * (idx >> q & 1) for q in range(code.n) if g.z >> q & 1],
                            axis=0)
            out[idx ^ g.x] += -wt * g.sign * (signs * v)
    return out


def letter_logical_operator(code, word):
    """The encoded ``word``, letter by letter: the word's phase times, qubit by
    qubit, the logical X, the logical Z or Y = i X Z of the letter there."""
    enc = PauliOp(code.n, 0, 0, word.phase)
    for i, (lx, lz) in enumerate(code.logical_pairs):
        xb, zb = word.x >> i & 1, word.z >> i & 1
        if xb and zb:
            prod = lx * lz
            enc = enc * PauliOp(prod.n, prod.x, prod.z, (prod.phase + 1) % 4)
        elif xb or zb:
            enc = enc * (lx if xb else lz)
    return enc


def listed_min_weight(op, stabilizers):
    """The least element of the coset ``op`` times the stabilizer group under
    (weight, x, z), from the whole group listed as products
    s_im ... s_i1 op with i1 < ... < im."""
    group = [op]
    for s in stabilizers:
        group += [s * g for g in group]
    return min(group, key=lambda p: (p.weight, p.x, p.z))


def gibbs_state(H: np.ndarray, omega_T: float) -> np.ndarray:
    E, V = np.linalg.eigh(H)
    w = np.exp(-(E - E[0]) / omega_T)
    w /= w.sum()
    return (V * w) @ V.conj().T


def kron_liouvillian(g) -> sp.csr_matrix:
    """The Davies Liouvillian on row-stacked vec(rho) as a running sparse sum,
    one jump at a time: L += rate (A (x) conj(A) - 1/2 A^dag A (x) I
    - 1/2 I (x) (A^dag A)^T), skipping zero rates."""
    d = g.dim
    I = sp.identity(d, format="csr", dtype=complex)
    L = sp.csr_matrix((d * d, d * d), dtype=complex)
    for _, rate, A in g.jumps:
        if rate == 0.0:
            continue
        AdA = (A.conj().T @ A).tocsr()
        L = L + rate * (sp.kron(A, A.conj(), format="csr")
                        - 0.5 * sp.kron(AdA, I, format="csr")
                        - 0.5 * sp.kron(I, AdA.T, format="csr"))
    return L.tocsr()


def lindblad_propagators(jumps, dim: int, t_grid) -> list[np.ndarray]:
    """exp(t L) at every t in ``t_grid``, for the Lindbladian of the
    (omega, rate, A) ``jumps`` on row-stacked vec(rho).  L is built densely,
    one column per matrix unit: L vec(E_ij) = vec(D(E_ij)) with
    D(E) = sum rate (A E A^dag - 1/2 {A^dag A, E})."""
    ops = [(rate, A, A.conj().T, A.conj().T @ A)
           for rate, A in ((rate, A.toarray()) for _, rate, A in jumps)]
    L = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[i, j] = 1
            D = sum(rate * (A @ E @ Ad - 0.5 * (AdA @ E + E @ AdA)) for rate, A, Ad, AdA in ops)
            L[:, i * dim + j] = D.reshape(-1)
    return [scipy.linalg.expm(t * L) for t in t_grid]
