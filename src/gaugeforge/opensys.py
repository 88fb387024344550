"""Markovian open-system dynamics of encoded qubits under an Ohmic bath.

Each physical qubit couples through X, Y and Z to its own bosonic bath.
In the weak-coupling (Davies) limit the reduced dynamics is a Lindblad
equation whose jump operators are the coupling operators resolved in the
eigenbasis of the suppressing Hamiltonian, with thermal rates obeying
detailed balance.  Everything is in hbar = 1 units: energies and rates in
rad/s, time in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .codes import SubsystemCode
from .pauli import PauliOp
from .spectra import WeightSpec, build_full_hamiltonian, z_signs


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
        if self.chi < 0 or self.omega_c <= 0 or self.omega_T <= 0:
            raise OpenSysError("bath parameters must be positive (chi may be zero)")


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
    dim = 1 << op.n
    idx = np.arange(dim)
    rows = idx ^ op.x
    raw = (op.phase + (op.x & op.z).bit_count()) % 4
    vals = (1j) ** raw * z_signs(op.z, op.n)
    M = np.zeros((dim, dim), dtype=complex)
    M[rows, idx] = vals
    return M


def _group(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Indices of ``values`` grouped by closeness within ``tol`` (values sorted)."""
    order = np.argsort(values)
    groups = [[order[0]]]
    for i in order[1:]:
        if values[i] - values[groups[-1][0]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


@dataclass
class DaviesGenerator:
    """Jump operators of the secular weak-coupling generator, in the
    eigenbasis of the system Hamiltonian."""

    energies: np.ndarray              # ascending eigenvalues of H
    basis: np.ndarray                 # orthonormal eigenvectors, columns
    jumps: list[tuple[float, float, sp.csr_matrix]]  # (omega, rate, A(omega))
    couplings: list[np.ndarray]       # lab-frame coupling operators

    @property
    def dim(self) -> int:
        return self.energies.size

    def to_eigenbasis(self, rho: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ rho @ self.basis

    def from_eigenbasis(self, rho: np.ndarray) -> np.ndarray:
        return self.basis @ rho @ self.basis.conj().T


def davies_generator_from_h(H: np.ndarray, b: BathSpec,
                            couplings: list[np.ndarray]) -> DaviesGenerator:
    dim = H.shape[0]
    if dim > 1024:
        raise OpenSysError("dense eigendecomposition limited to dimension 1024")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-12 * scale:
        raise OpenSysError("Hamiltonian not Hermitian")
    E, V = np.linalg.eigh(H)
    tol = 1e-9 * scale
    groups = _group(E, tol)
    jumps = []
    for A in couplings:
        At = V.conj().T @ A @ V
        by_omega: dict[float, list] = {}
        for ga in groups:
            for gb in groups:
                block = At[np.ix_(ga, gb)]
                if np.abs(block).max() <= 1e-14:
                    continue
                omega = float(E[gb[0]] - E[ga[0]])
                # snap Bohr frequencies onto a common grid within tol
                key = next((k for k in by_omega if abs(k - omega) <= tol), omega)
                rows, cols = np.nonzero(np.abs(block) > 1e-14)
                by_omega.setdefault(key, []).append((ga[rows], gb[cols], block[rows, cols]))
        for omega, parts in by_omega.items():
            r = np.concatenate([p[0] for p in parts])
            c = np.concatenate([p[1] for p in parts])
            v = np.concatenate([p[2] for p in parts])
            Aop = sp.csr_matrix((v, (r, c)), shape=(dim, dim))
            jumps.append((omega, bath_correlation(omega, b), Aop))
    return DaviesGenerator(energies=E, basis=V, jumps=jumps, couplings=couplings)


def single_qubit_couplings(n: int) -> list[np.ndarray]:
    """X_k, Y_k, Z_k for every qubit, identical coupling strength."""
    ops = []
    for k in range(n):
        for letter in ("X", "Y", "Z"):
            ops.append(pauli_matrix(PauliOp.single(n, letter, k)))
    return ops


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
    """Sparse action on vec(rho) (row stacking) in the eigenbasis."""
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


@dataclass
class Trajectory:
    times: np.ndarray
    metrics: list[dict]
    final_state: np.ndarray  # lab frame

    def column(self, name: str) -> np.ndarray:
        return np.array([m[name] for m in self.metrics])


RATE_STEP_BOUND = 1e-3  # RK4 step times the largest total jump rate


def _step_bound(g: DaviesGenerator) -> float:
    """RATE_STEP_BOUND over the top eigenvalue of K = sum rate A^dag A."""
    K = np.zeros((g.dim, g.dim), dtype=complex)
    for _, rate, A in g.jumps:
        Ad = A.toarray()
        K += rate * (Ad.conj().T @ Ad)
    rate = float(np.linalg.eigvalsh(K)[-1].real)
    return RATE_STEP_BOUND / rate if rate > 0 else np.inf


def _rk4_span(L, y, span: float, h_max: float):
    """Fixed-step RK4 for dy/dt = L y over ``span``, in the fewest equal steps
    no longer than ``h_max``; ``y`` is a vector or a matrix of column vectors."""
    if span <= 0:
        return y
    steps = max(1, int(math.ceil(span / h_max))) if np.isfinite(h_max) else 1
    h = span / steps
    for _ in range(steps):
        k1 = L @ y
        k2 = L @ (y + 0.5 * h * k1)
        k3 = L @ (y + 0.5 * h * k2)
        k4 = L @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


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
    if t_grid.ndim != 1 or t_grid.size == 0 or t_grid[0] != 0 or np.any(np.diff(t_grid) < 0):
        raise OpenSysError("time grid must be a nondecreasing sequence starting at 0")
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
    return Trajectory(times=t_grid, metrics=metrics, final_state=rho)


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

    L = lindblad_superoperator(g)
    h_max = _step_bound(g)

    def states():
        yield rho0
        y = g.to_eigenbasis(rho0).reshape(-1)  # row stacking, matching lindblad_superoperator
        for span in np.diff(t_grid):
            y = _rk4_span(L, y, span, h_max)
            yield g.from_eigenbasis(y.reshape(g.dim, g.dim))

    return _sample(t_grid, states(), metrics_fn)


# ---------------------------------------------------------------------------
# Encoding and decoding of logical states
# ---------------------------------------------------------------------------

def _logical_word_operator(code: SubsystemCode, word: str) -> np.ndarray:
    """Dense matrix of the encoded Pauli word (one letter in IXYZ per logical qubit)."""
    op = PauliOp.identity(code.n)
    for i, letter in enumerate(word):
        if letter == "I":
            continue
        xl, zl = code.logical_pairs[i]
        if letter == "X":
            op = op * xl
        elif letter == "Z":
            op = op * zl
        elif letter == "Y":
            op = op * PauliOp(code.n, 0, 0, 1) * xl * zl
        else:
            raise OpenSysError(f"bad logical word letter {letter!r}")
    return pauli_matrix(op)


def _bare_word_operator(k: int, word: str) -> np.ndarray:
    op = PauliOp.identity(k)
    for i, letter in enumerate(word):
        if letter != "I":
            op = op * PauliOp.single(k, letter, i)
    return pauli_matrix(op)


def _logical_words(k: int):
    words = [""]
    for _ in range(k):
        words = [w + l for w in words for l in "IXYZ"]
    return words


def code_sector_projector(code: SubsystemCode) -> np.ndarray:
    P = np.eye(1 << code.n, dtype=complex)
    for s in code.stabilizer_generators:
        P = P @ (np.eye(1 << code.n) + pauli_matrix(s)) / 2
    return P


def ground_projector(code: SubsystemCode, w: WeightSpec) -> np.ndarray:
    """Projector onto the ground subspace of H within the all-+1 code sector;
    its dimension must be exactly 2^k."""
    H = build_full_hamiltonian(code, w).dense().astype(complex)
    P = code_sector_projector(code)
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


def encode_state(rho_L: np.ndarray, code: SubsystemCode, w: WeightSpec) -> np.ndarray:
    k = code.k
    if rho_L.shape != (1 << k, 1 << k):
        raise EncodingError(f"logical state must be {1 << k}x{1 << k}")
    Pg = ground_projector(code, w)
    rho = np.zeros((1 << code.n, 1 << code.n), dtype=complex)
    for word in _logical_words(k):
        coeff = np.trace(rho_L @ _bare_word_operator(k, word)).conjugate()
        if abs(coeff) < 1e-14:
            continue
        rho += coeff * (_logical_word_operator(code, word) @ Pg)
    rho /= 1 << k
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
    for word in _logical_words(k):
        val = np.trace(rho @ _logical_word_operator(code, word))
        out += val * _bare_word_operator(k, word).conj().T
    out /= 1 << k
    return (out + out.conj().T) / 2


def leakage(rho: np.ndarray, code: SubsystemCode) -> float:
    """Population outside the all-+1 stabilizer sector."""
    P = code_sector_projector(code)
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
    vals, vecs = np.linalg.eigh((rho_L + rho_L.conj().T) / 2)
    vals = np.clip(vals.real, 0, None)
    if vals.sum() <= 0:
        raise OpenSysError("state has no positive part")
    rho = (vecs * (vals / vals.sum())) @ vecs.conj().T
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
for _a in (0, 3):
    for _b in (0, 3):
        BELL[_a, _b] = 0.5


def _metrics_fn(code, rho0_L, rho0, metrics):
    """Per-sample metrics of the decoded logical state (with the EoF for two
    logical qubits), or of the physical state against ``rho0`` ("physical")."""
    if metrics != "logical":
        def physical(rho, t):
            return {"trace_distance": trace_distance(rho, rho0), "purity": purity(rho)}
        return physical

    def logical(rho, t):
        rl = decode_logical(rho, code)
        m = {
            "trace_distance": trace_distance(rl, rho0_L),
            "purity": purity(_psd_normalize(rl)),
            "leakage": leakage(rho, code),
        }
        if code.k == 2:
            m["eof"] = entanglement_of_formation(rl)
        return m
    return logical


def _psd_normalize(rho):
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = np.clip(vals.real, 0, None)
    if vals.sum() <= 0:
        return rho
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


def _suppressing_weights(code: SubsystemCode, gamma: float, bath: BathSpec) -> WeightSpec:
    """H = -lambda * sum(G) with lambda = gamma * omega_T."""
    return WeightSpec.uniform(gamma * bath.omega_T, len(code.gauge_generators))


def simulate_code(code: SubsystemCode, rho_L: np.ndarray, gamma: float,
                  bath: BathSpec, t_grid, metrics: str = "logical") -> Trajectory:
    """Single-block simulation: encode, build the Davies generator for
    H = -lambda * sum(G) with lambda = gamma * omega_T, evolve, measure."""
    _check_dense_size(code)
    w = _suppressing_weights(code, gamma, bath)
    rho0 = encode_state(rho_L, code, w)
    g = davies_generator(code, w, bath)
    return evolve(rho0, g, t_grid, metrics_fn=_metrics_fn(code, rho_L, rho0, metrics))


def simulate_two_blocks(block_code: SubsystemCode, composite_code: SubsystemCode,
                        rho_L: np.ndarray, gamma: float, bath: BathSpec,
                        t_grid, metrics: str = "logical") -> Trajectory:
    """Two identical code blocks with independent baths.

    The suppressing Hamiltonian and the couplings split across the blocks, so
    the generator is L (x) id + id (x) L and the channel factorizes as
    Phi_t (x) Phi_t; only the single-block propagator is ever integrated.
    """
    if composite_code.n != 2 * block_code.n or composite_code.k != 2 * block_code.k:
        raise OpenSysError("composite code is not two copies of the block code")
    _check_dense_size(composite_code, "two-block composite")
    t_grid = _time_grid(t_grid)
    rho0 = encode_state(rho_L, composite_code,
                        _suppressing_weights(composite_code, gamma, bath))
    g = davies_generator(block_code, _suppressing_weights(block_code, gamma, bath), bath)
    d = g.dim
    U = np.kron(g.basis, g.basis)  # two-block eigenbasis, block 1 on the slow index
    L = lindblad_superoperator(g)
    h_max = _step_bound(g)

    def regroup(rho):
        # rho[a*d+b, c*d+e] <-> M[a*d+c, b*d+e]: block 1 lives on legs (a, c)
        # and block 2 on legs (b, e), so Phi (x) Phi acts as M -> P M P^T
        return rho.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    def states():
        yield rho0
        M0 = regroup(U.conj().T @ rho0 @ U)
        P = np.eye(d * d, dtype=complex)
        for span in np.diff(t_grid):
            P = _rk4_span(L, P, span, h_max)
            yield U @ regroup(P @ M0 @ P.T) @ U.conj().T

    return _sample(t_grid, states(), _metrics_fn(composite_code, rho_L, rho0, metrics))
