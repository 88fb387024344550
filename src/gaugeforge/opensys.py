"""Markovian open-system dynamics of encoded qubits under an Ohmic bath.

Each physical qubit couples through X, Y and Z to its own bosonic bath.
In the weak-coupling (Davies) limit the reduced dynamics is a Lindblad
equation whose jump operators are the coupling operators resolved in the
eigenbasis of the suppressing Hamiltonian, with thermal rates obeying
detailed balance.  Everything is in hbar = 1 units: energies and rates in
rad/s, time in seconds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .codes import SubsystemCode, combined_matrix, logical_operator
from .pauli import PauliOp
from .spectra import PauliSum, WeightSpec, build_full_hamiltonian


class OpenSysError(Exception):
    pass


class EncodingError(OpenSysError):
    pass


class IntegrationError(OpenSysError):
    pass


@dataclass(frozen=True)
class BathSpec:
    """Ohmic bath: spectral cutoff omega_c and temperature omega_T = k_B T / hbar."""

    chi: float = 3.18e-4
    omega_c: float = 8e9 * math.pi
    omega_T: float = 2.2e9

    def __post_init__(self):
        if not (0 <= self.chi < math.inf and 0 < self.omega_c < math.inf
                and 0 < self.omega_T < math.inf):
            raise OpenSysError("bath parameters must be finite and positive (chi may be zero)")
        if not math.isfinite(2 * math.pi * self.chi * (self.omega_c + self.omega_T)):
            raise OpenSysError("the rate scale 2 pi chi (omega_c + omega_T) must be finite")


def bath_correlation(omega: float, b: BathSpec) -> float:
    """Fourier transform of the Ohmic bath correlation function.

        C(omega) = 2 pi chi omega exp(-|omega|/omega_c) / (1 - exp(-omega/omega_T))

    The omega < 0 branch is evaluated through the detailed-balance identity
    C(-omega) = exp(-omega/omega_T) C(omega), which is exact for the formula
    and keeps the rate ratio an exact floating-point identity.
    """
    if omega < 0:
        x = omega / b.omega_T
        return math.exp(x) * bath_correlation(-omega, b) if x > -745 else 0.0
    if omega == 0:
        return 2 * math.pi * b.chi * b.omega_T
    x = omega / b.omega_T
    return 2 * math.pi * b.chi * omega * math.exp(-omega / b.omega_c) / -math.expm1(-x)


def pauli_matrix(op: PauliOp) -> np.ndarray:
    """Dense complex matrix of a phased Pauli operator (qubit 0 = fastest bit)."""
    return PauliSum([(1, op)], op.n, complex).dense()


@dataclass
class DaviesGenerator:
    """Jump operators of the secular weak-coupling generator, in the
    eigenbasis of the system Hamiltonian."""

    energies: np.ndarray              # ascending eigenvalues of H
    basis: np.ndarray                 # orthonormal eigenvectors, columns
    levels: np.ndarray                # energy level of each eigenvector, 0 = ground
    jumps: list[tuple[float, float, sp.csr_matrix]]  # (omega, rate, A(omega))

    @property
    def dim(self) -> int:
        return self.energies.size

    def to_eigenbasis(self, rho: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ rho @ self.basis

    def from_eigenbasis(self, rho: np.ndarray) -> np.ndarray:
        return self.basis @ rho @ self.basis.conj().T


def davies_generator_from_h(H: np.ndarray, b: BathSpec,
                            couplings: list[np.ndarray]) -> DaviesGenerator:
    import scipy.sparse as sp  # here, so that importing gaugeforge loads no scipy
    dim = H.shape[0]
    if dim > 1024:
        raise OpenSysError("dense eigendecomposition limited to dimension 1024")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-12 * scale:
        raise OpenSysError("Hamiltonian not Hermitian")
    E, V = np.linalg.eigh(H)
    if not math.isfinite(float(E[-1]) - float(E[0])):  # the spread bounds every Bohr frequency
        raise OpenSysError("the energies span more than the float range: Bohr frequencies overflow")
    tol = 1e-9 * scale
    levels, low = np.zeros(dim, dtype=np.int64), E[0]
    for i in range(1, dim):  # a level holds the eigenvalues within tol of its lowest one
        if E[i] - low > tol:
            low, levels[i:] = E[i], levels[i - 1] + 1
    groups = [np.flatnonzero(levels == lv) for lv in range(levels[-1] + 1)]
    jumps = []
    for A in couplings:
        At = V.conj().T @ A @ V
        by_omega: dict[float, list] = {}
        for ga, gb in itertools.product(groups, groups):
            block = At[np.ix_(ga, gb)]
            if np.abs(block).max() <= 1e-14:
                continue
            omega = float(E[gb[0]] - E[ga[0]])
            # snap Bohr frequencies onto a common grid within tol
            key = next((k for k in by_omega if abs(k - omega) <= tol), omega)
            rows, cols = np.nonzero(np.abs(block) > 1e-14)
            by_omega.setdefault(key, []).append((ga[rows], gb[cols], block[rows, cols]))
        for omega, parts in by_omega.items():
            rate = bath_correlation(omega, b)
            if not math.isfinite(rate):
                raise OpenSysError(f"Bohr frequency {omega} has rate {rate}, which must be finite")
            r, c, v = (np.concatenate(column) for column in zip(*parts))
            Aop = sp.csr_matrix((v, (r, c)), shape=(dim, dim))
            jumps.append((omega, rate, Aop))
    return DaviesGenerator(energies=E, basis=V, levels=levels, jumps=jumps)


def single_qubit_couplings(n: int) -> list[np.ndarray]:
    """X_k, Y_k, Z_k for every qubit, identical coupling strength."""
    return [pauli_matrix(PauliOp.single(n, letter, k)) for k in range(n) for letter in "XYZ"]


def _check_dense_size(code: SubsystemCode, what: str = "code"):
    """Encoding and the Davies generator are dense in 2^n: refuse before any dense work."""
    if code.n > 10:
        raise OpenSysError(
            f"open-system simulation limited to n <= 10 qubits, got n={code.n} for the {what}"
        )


def davies_generator(code: SubsystemCode, w: WeightSpec, b: BathSpec) -> DaviesGenerator:
    _check_dense_size(code)
    H = build_full_hamiltonian(code, w).dense()
    return davies_generator_from_h(H, b, single_qubit_couplings(code.n))


def lindblad_superoperator(g: DaviesGenerator) -> sp.csr_matrix:
    """Sparse action on vec(rho) (row stacking) in the eigenbasis of
    sum rate (A (x) conj(A) - 1/2 A^dag A (x) I - 1/2 I (x) (A^dag A)^T), summed jump by
    jump in dense tiles of the realigned R[(i, j), (k, l)] = L[(i, k), (j, l)] (see
    DECISIONS.md).  Each entry gets the float operations of the sparse kron sum of the
    formula in their order, so L is bit-identical to that sum.  L is real when each jump is
    real or imaginary: an imaginary A = iB adds B (x) B and B^T B with the same bits."""
    import scipy.sparse as sp
    dt = np.dtype(complex if any(A.data.real.any() and A.data.imag.any()
                                 for _, _, A in g.jumps) else float)
    d, lv = g.dim, g.levels
    n = np.bincount(lv)
    s, nl = np.cumsum(n) - n, n.size
    grp = np.where(np.eye(d, dtype=bool), 0, 1 + lv[:, None] * nl + lv).ravel()  # of pair (i, j)
    order = np.argsort(grp, kind="stable")  # group 0: the (k, k); 1 + a * nl + b: i != j in a, b
    size = np.bincount(grp, minlength=1 + nl * nl)
    pairs = np.split(order, np.cumsum(size)[:-1])  # each group's pairs i * d + j, row-major
    mem = np.argsort(order) - (np.cumsum(size) - size)[grp]  # place of a pair in its group
    jumps, tile = [], np.zeros((size.size, size.size), dtype=bool)  # (row group, column group)
    for _, rate, A in g.jumps:
        if rate != 0.0:
            A = A if dt == complex else A.real if A.data.real.any() else A.imag
            ab = np.unique(np.repeat(lv, np.diff(A.indptr)) * nl + lv[A.indices]).tolist()
            groups = [0] * any(x % (nl + 1) == 0 for x in ab) + [1 + x for x in ab if size[1 + x]]
            # A^dag A has the blocks (b, b2) of A's (a, b), (a, b2); their strips, at (k, k)
            hs = {(1 + b * nl + b2, 1 + b2 * nl + b) for a, b in (divmod(x, nl) for x in ab)
                  for a2, b2 in (divmod(x, nl) for x in ab) if a == a2 and size[1 + b * nl + b2]}
            jumps.append((rate, A, dict(zip(groups, np.cumsum([0] + list(size[groups])))), hs))
            tile[np.ix_(groups, groups)] = tile[0, 0] = True
            tile[[g1 for g1, _ in hs], 0] = tile[0, [g2 for _, g2 in hs]] = True
    width = tile @ size
    colstart = np.cumsum(tile * size, 1) - tile * size
    start = 1 + np.cumsum(size * width) - size * width
    acc = np.zeros(1 + size @ width, dtype=dt)  # acc[0] stays 0, for absent entries
    buf = np.empty(max((sum(size[list(offs)]) for _, _, offs, _ in jumps), default=0) ** 2, dt)

    def add(g1, g2, X):  # tile (g1, g2) += X
        at, b = start[g1] + colstart[g1, g2], dt.itemsize
        view = np.ndarray(X.shape, dt, acc, b * at, (b * width[g1], b))
        view += X

    for rate, A, offs, hs in jumps:
        f = A.toarray().flat[np.concatenate([pairs[gr] for gr in offs])]  # all (k, k) or none
        P = np.multiply.outer(f, f.conj(), out=np.ndarray((f.size, f.size), dt, buf))
        if A.nnz == 1:  # the kron sum squares a lone entry in a 1-wide loop: no FMA
            P[np.ix_(f != 0, f != 0)] = np.multiply.outer(f[f != 0], f[f != 0].conj())
        h = 0.5 * (A.conj().T @ A).toarray()
        for g1, g2, h1, h2 in ([(0, 0, np.diagonal(h)[:, None], np.diagonal(h))]  # x - 0 is x
                               + [(g1, 0, h.flat[pairs[g1]][:, None], 0) for g1, _ in hs]
                               + [(0, g2, h.T.flat[pairs[g2]], 0) for _, g2 in hs]):
            if g1 in offs and g2 in offs:  # the strips go into the jump's products there
                block = slice(offs[g1], offs[g1] + size[g1]), slice(offs[g2], offs[g2] + size[g2])
                P[block] = (P[block] - h1) - h2
            else:
                add(g1, g2, np.broadcast_to(rate * ((0 - h1) - h2), (size[g1], size[g2])))
        P *= rate
        for (g1, o1), (g2, o2) in itertools.product(offs.items(), offs.items()):
            add(g1, g2, P[o1:o1 + size[g1], o2:o2 + size[g2]])

    # L[(x, y), (j, l)] = R[(x, j), (y, l)], over the (j, l) of level blocks that meet R's tiles
    where = np.hstack([np.eye(nl).reshape(-1, 1), np.eye(nl * nl)])  # groups of a level pair
    meet = (where @ tile @ where.T > 0).reshape((nl,) * 4).transpose(0, 2, 1, 3)
    cols = [[np.flatnonzero(meet[a, a2][np.ix_(lv, lv)]) for a2 in range(nl)] for a in range(nl)]
    rowcols = [np.concatenate([np.tile(c, n[a2]) for a2, c in enumerate(row)]) for row in cols]
    rowpos, cs = start[grp] + mem * width[grp], np.where(tile, colstart, -acc.size - d * d)
    data, indices = (np.empty(np.count_nonzero(acc), t) for t in (dt, np.int32))
    indptr = np.zeros(d * d + 1, dtype=np.int64)
    for x in range(d):  # the rows (x, y) of L
        v = [np.take(acc, rowpos[r] + cs[grp[r], grp[q]] + mem[q], mode="clip")
             for a2, c in enumerate(cols[lv[x]])
             for r, q in [(x * d + c // d, (s[a2] + np.arange(n[a2]))[:, None] * d + c % d)]]
        V = np.concatenate([b.ravel() for b in v])
        counts = np.concatenate([np.count_nonzero(b, 1) for b in v])
        indptr[x * d + 1:x * d + d + 1] = indptr[x * d] + np.cumsum(counts)
        data[indptr[x * d]:indptr[x * d + d]] = V[V != 0]
        indices[indptr[x * d]:indptr[x * d + d]] = rowcols[lv[x]][V != 0]
    return sp.csr_matrix((data, indices, indptr), shape=(d * d, d * d))


@dataclass
class Trajectory:
    metrics: list[dict]
    final_state: np.ndarray  # lab frame


RATE_STEP_BOUND = 1e-3  # RK4 step times the largest total jump rate
MAX_RK4_STEPS = 10**8  # per trajectory, refused before any stepping (see DECISIONS.md)


def _step_bound(g: DaviesGenerator) -> float:
    """RATE_STEP_BOUND over the top eigenvalue of K = sum rate A^dag A."""
    K = np.zeros((g.dim, g.dim), dtype=complex)
    for _, rate, A in g.jumps:
        Ad = A.toarray()
        K += rate * (Ad.conj().T @ Ad)
    rate = float(np.linalg.eigvalsh(K)[-1].real)
    return RATE_STEP_BOUND / rate if rate > 0 else np.inf


def _propagate(g: DaviesGenerator, y, t_grid: np.ndarray):
    """Fixed-step RK4 for dy/dt = L y, L the Liouvillian of ``g``, on a vector or a matrix of
    column vectors ``y``: yields a complex copy of ``y`` after each span of ``t_grid``, stepped
    in the fewest equal steps within the step bound.  The steps run in place, in real arithmetic
    where L and ``y`` are real, each bit that of complex L @ y and y + h/6 (k1 + 2k2 + 2k3 + k4)."""
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs  # L @ y without its dispatch
    h_max, spans = _step_bound(g), np.diff(t_grid)
    with np.errstate(all="ignore"):  # a count past the float range is inf, and refused
        counts = np.where(spans > 0, np.maximum(1, np.ceil(spans / h_max)), 0)
    if not counts.sum() <= MAX_RK4_STEPS:
        raise OpenSysError(f"{counts.sum():.3g} RK4 steps needed, more than {MAX_RK4_STEPS:.0e}")
    L, y = lindblad_superoperator(g), y if y.imag.any() else y.real  # a complex y: L complex too
    data = L.data.astype(np.result_type(L.data, y), copy=False)
    y = y.astype(data.dtype, order="C")
    k1, k2, k3, k4, tmp = (np.empty_like(y) for _ in range(5))
    n, cols = L.shape[0], y.size // L.shape[0]
    kernel, shape = (csr_matvec, (n, n)) if cols == 1 else (csr_matvecs, (n, n, cols))

    def apply(x, out):  # out = L x by the kernel L @ x calls, which adds into out
        out.fill(0)
        kernel(*shape, L.indptr, L.indices, data, x, out)

    for h, steps in zip(spans / np.maximum(counts, 1), counts.astype(int)):
        for _ in range(steps):  # each scalar multiplies from the left, as in the formula
            apply(y, k1)
            apply(np.add(y, np.multiply(0.5 * h, k1, out=tmp), out=tmp), k2)
            apply(np.add(y, np.multiply(0.5 * h, k2, out=tmp), out=tmp), k3)
            apply(np.add(y, np.multiply(h, k3, out=tmp), out=tmp), k4)
            np.add(k1, np.multiply(2, k2, out=k2), out=k1)
            np.add(np.add(k1, np.multiply(2, k3, out=k3), out=k1), k4, out=k1)
            np.add(y, np.multiply(h / 6.0, k1, out=k1), out=y)
        yield y.astype(complex)


def _check_state(rho: np.ndarray, t: float):
    tr = float(rho.trace().real)
    if abs(tr - 1) > 1e-6:
        raise IntegrationError(f"trace drifted to {tr} at t={t}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > 1e-8:
        raise IntegrationError(f"hermiticity loss {herm} at t={t}")
    lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if lo < -1e-6:
        raise IntegrationError(f"negativity {lo} at t={t}")


def _time_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] != 0
            or not np.all(np.isfinite(t_grid)) or np.any(np.diff(t_grid) < 0)):
        raise OpenSysError("time grid must be a finite nondecreasing sequence starting at 0")
    return t_grid


def _sample(t_grid: np.ndarray, states, metrics_fn) -> Trajectory:
    """Check and measure the lab-frame ``states``, one per time in ``t_grid``."""
    metrics = []
    for t, rho in zip(t_grid, states):
        _check_state(rho, float(t))
        m = {"t": float(t)}
        if metrics_fn is not None:
            m.update(metrics_fn(rho, float(t)))
        metrics.append(m)
    return Trajectory(metrics=metrics, final_state=rho)


def evolve(rho0: np.ndarray, g: DaviesGenerator, t_grid, metrics_fn=None) -> Trajectory:
    """Fixed-step RK4 integration of the Lindblad equation in the interaction
    picture of the system Hamiltonian (no coherent term).  States are checked
    for trace, hermiticity and positivity at every sampled time."""
    t_grid = _time_grid(t_grid)
    scale = max(1.0, float(np.abs(rho0).max()))
    if abs(rho0.trace().real - 1) > 1e-9 or np.abs(rho0 - rho0.conj().T).max() > 1e-10 * scale:
        raise OpenSysError("initial state must be Hermitian with unit trace")
    if float(np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2)[0]) < -1e-10:
        raise OpenSysError("initial state must be positive semidefinite")

    y0 = g.to_eigenbasis(rho0).reshape(-1)  # row stacking, matching lindblad_superoperator
    states = (g.from_eigenbasis(y.reshape(g.dim, g.dim)) for y in _propagate(g, y0, t_grid))
    return _sample(t_grid, itertools.chain([rho0], states), metrics_fn)


# ---------------------------------------------------------------------------
# Encoding and decoding of logical states
# ---------------------------------------------------------------------------

def _word_operators(code: SubsystemCode):
    """For each logical Pauli word, in IXYZ^k order, the dense bare k-qubit
    matrix and the dense encoded 2^n matrix."""
    for word in itertools.product("IXYZ", repeat=code.k):
        bare = PauliOp(code.k, sum(1 << i for i, c in enumerate(word) if c in "XY"),
                       sum(1 << i for i, c in enumerate(word) if c in "YZ"), 0)
        yield pauli_matrix(bare), pauli_matrix(logical_operator(code, bare))


def code_sector_projector(code: SubsystemCode) -> np.ndarray:
    P = np.eye(1 << code.n, dtype=complex)
    for s in code.stabilizer_generators:
        P = P @ (np.eye(1 << code.n) + pauli_matrix(s)) / 2
    return P


def ground_projector(code: SubsystemCode, w: WeightSpec, P: np.ndarray) -> np.ndarray:
    """Projector onto the ground subspace of H within the all-+1 code sector,
    whose projector is ``P``; its dimension must be exactly 2^k."""
    H = build_full_hamiltonian(code, w).dense().astype(complex)
    evals, evecs = np.linalg.eigh(P)
    cols = evecs[:, evals > 0.5]
    Hc = cols.conj().T @ H @ cols
    ce, cv = np.linalg.eigh(Hc)
    scale = max(1.0, float(np.abs(ce).max()))
    ground = cv[:, ce <= ce[0] + 1e-9 * scale]
    if ground.shape[1] != 1 << code.k:
        raise EncodingError(
            f"code-sector ground subspace has dimension {ground.shape[1]}, expected {1 << code.k}"
        )
    B = cols @ ground
    return B @ B.conj().T


def encode_state(rho_L: np.ndarray, code: SubsystemCode, w: WeightSpec,
                 P: np.ndarray | None = None) -> np.ndarray:
    """Encode ``rho_L`` into the code-sector ground subspace of H; ``P`` is
    the code-sector projector, built here when not given."""
    k = code.k
    if rho_L.shape != (1 << k, 1 << k):
        raise EncodingError(f"logical state must be {1 << k}x{1 << k}")
    Pg = ground_projector(code, w, code_sector_projector(code) if P is None else P)
    rho = np.zeros((1 << code.n, 1 << code.n), dtype=complex)
    for bare, enc in _word_operators(code):
        coeff = np.trace(rho_L @ bare).conjugate()
        if abs(coeff) < 1e-14:
            continue
        rho += coeff * (enc @ Pg)
    rho /= 1 << k
    return _checked_encoding(rho)


def _checked_encoding(rho: np.ndarray) -> np.ndarray:
    """The Hermitian part of an encoded state, checked for unit trace and positivity."""
    rho = (rho + rho.conj().T) / 2
    if abs(rho.trace().real - 1) > 1e-9:
        raise EncodingError("encoded state failed the unit-trace check")
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-9:
        raise EncodingError("encoded state failed the positivity check")
    return rho


def decode_logical(rho: np.ndarray, code: SubsystemCode) -> np.ndarray:
    """Logical tomography: expectation of every encoded Pauli word.  The
    result is Hermitian with unit trace but may be non-positive for states
    that leaked out of the code sector."""
    k = code.k
    out = np.zeros((1 << k, 1 << k), dtype=complex)
    for bare, enc in _word_operators(code):
        out += np.trace(rho @ enc) * bare.conj().T
    out /= 1 << k
    return (out + out.conj().T) / 2


def leakage(rho: np.ndarray, P: np.ndarray) -> float:
    """Population outside the all-+1 stabilizer sector, whose projector is ``P``."""
    return float(1 - np.trace(P @ rho).real)


# ---------------------------------------------------------------------------
# State metrics
# ---------------------------------------------------------------------------

def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    if r1.shape != r2.shape:
        raise OpenSysError("trace distance needs equal-shaped matrices")
    diff = (r1 - r2 + (r1 - r2).conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)


_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def entanglement_of_formation(rho_L: np.ndarray) -> float:
    """Two-qubit entanglement of formation via the concurrence construction.

    Non-positive inputs (possible after decoding a leaked state) are clipped
    to the nearest density matrix for this metric only.
    """
    if rho_L.shape != (4, 4):
        raise OpenSysError("entanglement of formation requires a two-qubit state")
    rho = _psd_normalize(rho_L)
    rho_t = _YY @ rho.conj() @ _YY
    ev = np.linalg.eigvals(rho @ rho_t)
    lam = np.sqrt(np.clip(ev.real, 0, None))
    lam.sort()
    C = max(0.0, float(lam[-1] - lam[-2] - lam[-3] - lam[-4]))
    if C == 0.0:
        return 0.0
    x = (1 + math.sqrt(1 - C * C)) / 2
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_((0, 3), (0, 3))] = 0.5


def _metrics_fn(code, rho0_L, rho0, metrics, sector):
    """Per-sample metrics of the decoded logical state (with the leakage out
    of the code sector, projector ``sector``, and the EoF for two logical
    qubits), or of the physical state against ``rho0`` ("physical")."""
    if metrics != "logical":
        def physical(rho, t):
            return {"trace_distance": trace_distance(rho, rho0), "purity": purity(rho)}
        return physical

    def logical(rho, t):
        rl = decode_logical(rho, code)
        m = {
            "trace_distance": trace_distance(rl, rho0_L),
            "purity": purity(_psd_normalize(rl)),
            "leakage": leakage(rho, sector),
        }
        if code.k == 2:
            m["eof"] = entanglement_of_formation(rl)
        return m
    return logical


def _psd_normalize(rho):
    """The nearest density matrix: negative eigenvalues clipped, trace renormalized."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = np.clip(vals.real, 0, None)
    if vals.sum() <= 0:
        raise OpenSysError("state has no positive part")
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


def suppressing_weights(code: SubsystemCode, gamma: float, bath: BathSpec) -> WeightSpec:
    """H = -lambda * sum(G) with lambda = gamma * omega_T."""
    return WeightSpec.uniform(gamma * bath.omega_T, len(code.gauge_generators))


def simulate_code(code: SubsystemCode, rho_L: np.ndarray, gamma: float,
                  bath: BathSpec, t_grid, metrics: str = "logical") -> Trajectory:
    """Single-block simulation: encode, build the Davies generator for
    H = -lambda * sum(G) with lambda = gamma * omega_T, evolve, measure."""
    _check_dense_size(code)
    w = suppressing_weights(code, gamma, bath)
    sector = code_sector_projector(code)
    rho0 = encode_state(rho_L, code, w, sector)
    g = davies_generator(code, w, bath)
    return evolve(rho0, g, t_grid, metrics_fn=_metrics_fn(code, rho_L, rho0, metrics, sector))


def simulate_two_blocks(block_code: SubsystemCode, composite_code: SubsystemCode,
                        rho_L: np.ndarray, gamma: float, bath: BathSpec,
                        t_grid, metrics: str = "logical") -> Trajectory:
    """Two identical code blocks with independent baths: the channel is
    Phi_t (x) Phi_t, so the state is sum C[s, f] Phi_t(W_s) (x) Phi_t(W_f) over
    the block's encoded words W_s = E_s P_g, with C[s, f] = conj tr(rho_L (B_s (x)
    B_f)) / 4^k and block 2 slow, as in the composite's qubit order.  Only the
    4^k words are integrated; ``composite_code`` decodes and measures leakage."""
    if composite_code.matrix != combined_matrix([block_code.matrix] * 2):
        raise OpenSysError("composite code is not two copies of the block code")
    _check_dense_size(composite_code, "two-block composite")
    t_grid = _time_grid(t_grid)
    dim_L = 1 << composite_code.k
    if rho_L.shape != (dim_L, dim_L):
        raise EncodingError(f"logical state must be {dim_L}x{dim_L}")
    w = suppressing_weights(block_code, gamma, bath)
    Pg = ground_projector(block_code, w, code_sector_projector(block_code))
    bare, enc = zip(*_word_operators(block_code))
    C = np.array([[np.trace(rho_L @ np.kron(Bs, Bf)).conjugate() for Bf in bare]
                  for Bs in bare]) / dim_L
    g = davies_generator(block_code, w, bath)

    def pair(X):  # sum C[s, f] X_s (x) X_f
        return sum(np.kron(Xs, Xf) for Xs, Xf in zip(X, np.tensordot(C, X, 1)))

    W = np.array(enc) @ Pg  # the block's encoded words, lab frame
    rho0 = _checked_encoding(pair(W))
    Y0 = g.to_eigenbasis(W).reshape(len(W), -1).T  # one row-stacked column per word
    states = (pair(g.from_eigenbasis(Y.T.reshape(W.shape))) for Y in _propagate(g, Y0, t_grid))
    return _sample(t_grid, itertools.chain([rho0], states), _metrics_fn(
        composite_code, rho_L, rho0, metrics, code_sector_projector(composite_code)))
