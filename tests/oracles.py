"""Independent reference values that only the tests use: closed-form sector
spectra of the two small benchmark codes, the dense full spectrum, the
code-sector ground energy, separation and levels from the full space with a
projector penalty, the full-space product as per-term scatters, encoded logical words as letter
products, minimum-weight encoding over the listed stabilizer group, the code
distance over C(S) \\ G, the Gibbs state, the sparse kron-sum Liouvillian,
exact Lindblad propagators, the RK4 loop in complex arithmetic, extraction's
dependency search with its segment flush and a rank test on every step, and
Pauli decomposition by explicit products."""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gaugeforge.opensys import _step_bound, lindblad_superoperator
from gaugeforge.pauli import NotInSpanError, PauliOp, PhaseConsistencyError, gf2_rank, gf2_solve
from gaugeforge.spectra import build_full_hamiltonian


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


def code_sector_projector(code):
    """v -> P v for the code-sector projector P, the product of (1 + S)/2 over
    ``code.stabilizer_generators``, by bit manipulation; v is a vector or a
    matrix of column vectors."""
    idx = np.arange(1 << code.n)
    stabilizers = []
    for s in code.stabilizer_generators:
        # raw X^x Z^z action: S|i> = i^r (-1)^{|i & z|} |i ^ x>, r in {0, 2}
        r = (s.phase + (s.x & s.z).bit_count()) % 4
        assert r in (0, 2), "stabilizer generators must be Hermitian"
        signs = (-1.0) ** np.array([(i & s.z).bit_count() + r // 2 for i in idx])
        stabilizers.append((idx ^ s.x, signs[:, None]))

    def project(v):
        shape, v = v.shape, v.reshape(idx.size, -1)
        for target, signs in stabilizers:
            sv = np.empty_like(v)
            sv[target] = signs * v
            v = (v + sv) / 2
        return v.reshape(shape)

    return project


def full_space_separation(code, w) -> tuple[float, float]:
    """(e0_code, separation) from the full 2^n space, with no extraction and
    no sector reduction.

    H commutes with the code-sector projector P, and mu = 2 sum|w| bounds the
    spectral width of H, so the lowest eigenvalue of H + mu(1 - P) is the
    code-sector ground energy and that of H + mu P is the lowest level outside
    the code sector.
    """
    H = build_full_hamiltonian(code, w)
    dim = H.shape[0]
    project = code_sector_projector(code)
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


def code_sector_levels(code, w) -> np.ndarray:
    """Ascending eigenvalues of H on the code sector, each as often as its
    multiplicity there, from the dense P H P + mu(1 - P): its spectrum is H's
    on the code sector, all below mu = 2 sum|w|, then mu on the rest."""
    dim = 1 << code.n
    P = code_sector_projector(code)(np.eye(dim))
    H = build_full_hamiltonian(code, w).dense()
    mu = 2 * float(np.abs(w.weights).sum())
    levels = np.linalg.eigvalsh(P @ H @ P + mu * (np.eye(dim) - P))
    return levels[:round(np.trace(P))]


def scatter_matvec(code, w, v: np.ndarray) -> np.ndarray:
    """-sum_G w_G (G v) for pure-type gauge generators, one fancy-index
    scatter per nonzero weight in generator order:
    out[i ^ x] += (-w s) * ((-1)^{|i & z|} v[i]), with s = 1 - phase the sign
    of the Hermitian generator and (-1)^{|i & z|} taken as the product of
    1 - 2 i_q over the qubits q of z.  Every output entry gets the
    same products in the same order as the ``PauliSum`` matvec, so the two
    must agree bit for bit."""
    idx = np.arange(v.size)
    out = np.zeros(v.size)
    for g, wt in zip(code.gauge_generators, w.for_code(code)):
        if wt != 0:
            signs = np.prod([1 - 2 * (idx >> q & 1) for q in range(code.n) if g.z >> q & 1],
                            axis=0)
            out[idx ^ g.x] += -wt * (1 - g.phase) * (signs * v)
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


def centralizer_distance(M) -> int:
    """Least weight over C(S) \\ G from the gauge generators alone, type by type: the X-type
    vectors orthogonal to every Z-type stabilizer and outside the span of the XX generators,
    and the same with X and Z swapped.  The Z-type stabilizers are the elements of the ZZ
    span orthogonal to every XX generator.  Both spans are listed in full, and all 2^n
    vectors are tested, so n should stay near 14 or below."""
    M = np.asarray(M)
    n = int(M.sum())
    qubit = np.full(M.shape, -1)
    qubit[M == 1] = np.arange(n)  # row-major, as CodeMatrix numbers them
    xx, zz = ([1 << int(a) | 1 << int(b) for line in lines for a, b in
               zip(line[line >= 0], line[line >= 0][1:])] for lines in (qubit, qubit.T))
    bits = np.arange(1 << n)[:, None] >> np.arange(n) & 1  # row v: the bits of v

    def span(gens):
        out = {0}
        for g in gens:
            out |= {v ^ g for v in out}
        return sorted(out)

    best = n
    for same, other in ((xx, zz), (zz, xx)):
        stabs = [s for s in span(other) if all((s & g).bit_count() % 2 == 0 for g in same)]
        stab_bits = np.array(stabs)[:, None] >> np.arange(n) & 1
        inside = (bits @ stab_bits.T % 2 == 0).all(axis=1)
        inside &= ~np.isin(np.arange(1 << n), span(same))
        best = min(best, int(bits[inside].sum(axis=1).min()))
    return best


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


def rk4_propagate(g, y, t_grid):
    """The RK4 loop of ``opensys._propagate`` in complex arithmetic, one new
    array per operation: yields ``y`` after each span of ``t_grid``, stepped in
    the fewest equal steps within ``opensys._step_bound``."""
    L = lindblad_superoperator(g).astype(complex)
    h_max = _step_bound(g)
    for span in np.diff(t_grid):
        if span > 0:
            steps = max(1, int(math.ceil(span / h_max))) if np.isfinite(h_max) else 1
            h = span / steps
            for _ in range(steps):
                k1 = L @ y
                k2 = L @ (y + 0.5 * h * k1)
                k3 = L @ (y + 0.5 * h * k2)
                k4 = L @ (y + h * k3)
                y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield y


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


def express_by_products(target: PauliOp, basis: list[PauliOp]) -> tuple[int, int]:
    """``pauli.express_in_basis`` with the sign read off an explicit product of
    ``PauliOp`` factors: one bit solve against a fresh echelon form, then one
    multiplication per factor used."""
    if not basis:
        raise NotInSpanError("empty basis")
    n = target.n
    e = gf2_solve([p.x | p.z << p.n for p in basis], target.x | target.z << n)
    if e is None:
        raise NotInSpanError("target not in the GF(2) span of the basis")
    prod = PauliOp.identity(n)
    for i, p in enumerate(basis):
        if e >> i & 1:
            prod = prod * p
    diff = (target.phase - prod.phase) % 4
    if diff == 0:
        sign = 1
    elif diff == 2:
        sign = -1
    else:
        raise PhaseConsistencyError("decomposition differs from target by a factor of +/-i")
    return e, sign
