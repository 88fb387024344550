"""Independent reference values that only the tests use: closed-form sector
spectra of the two small benchmark codes, the dense full spectrum, the
full-space product as per-term scatters, encoded logical words as letter
products, minimum-weight encoding over the listed stabilizer group, the Gibbs state, the sparse kron-sum Liouvillian, exact Lindblad
propagators and extraction's dependency search with its segment flush and
a rank test on every step."""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from gaugeforge.pauli import NotInSpanError, PauliOp, gf2_rank, gf2_solve


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


def minimal_cover_with_free(target: int, candidates: list[int], free: list[int]):
    """Smallest (size, then lex) subset D of ``candidates`` such that
    target + sum(D) lies in span(free), by exhaustive search.  Returns
    (D indices, free subset)."""
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            acc = target
            for i in combo:
                acc ^= candidates[i]
            used = gf2_solve(free, acc)
            if used is not None:
                return combo, tuple(i for i in range(len(free)) if used >> i & 1)
    raise NotInSpanError("top label has no dependency over the remaining labels")


def dependencies_with_flush(order: list[int], vec):
    """Extraction's dependency search as it was first written: test the rank
    before every step, and move the leading segment to the bottom once its
    span meets the rest's only in zero.  Same contract as
    ``extraction._dependencies``."""
    cur = 0  # length of the leading segment currently under consideration

    def mat(labels):
        return [vec[l] for l in labels]

    while gf2_rank(mat(order)) < len(order):
        if cur > 0:
            head, rest = order[:cur], order[cur:]
            if gf2_rank(mat(head)) + gf2_rank(mat(rest)) == gf2_rank(mat(order)):
                order[:] = rest + head
                cur = 0
        if cur == 0:
            cur = 1
        top = order[0]
        others = order[1:cur]
        rest = order[cur:]
        try:
            D, used_free = minimal_cover_with_free(
                vec[top], [vec[l] for l in rest], [vec[l] for l in others]
            )
        except NotInSpanError:
            order[:] = order[1:] + [top]
            cur = max(cur - 1, 0)
            continue
        dep_set = [rest[i] for i in D] + [top] + [others[i] for i in used_free]
        unused = [o for i, o in enumerate(others) if i not in used_free]
        moved = [rest[i] for i in D]
        tail = [l for l in rest if l not in moved]
        order[:] = moved + [top] + [others[i] for i in used_free] + unused + tail
        cur = len(dep_set)
        yield dep_set
        order.pop(0)
        cur -= 1
