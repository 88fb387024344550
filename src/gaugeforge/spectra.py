"""Energy separation of gauge-generator Hamiltonians.

The Hamiltonian H = -sum_G w_G G commutes with every stabilizer, so it block
diagonalizes over stabilizer sectors.  Within a sector each gauge generator
reduces to a signed Pauli word on the auxiliary qubits, giving a dense
2^a x 2^a matrix per sector instead of the full 2^n space.  The full-space
route is kept as an independent cross-check.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .codes import SubsystemCode
from .extraction import ReducedBasis
from .pauli import express_in_basis

THREADS_ENV = "GAUGEFORGE_THREADS"


class SpectraError(Exception):
    pass


class ConvergenceError(SpectraError):
    pass


@dataclass(frozen=True)
class WeightSpec:
    """Real coefficients for the gauge generators, in rad/s (hbar = 1).

    Indexing follows ``code.gauge_generators``: X-type generators first in
    construction order, then Z-type.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0 or not np.all(np.isfinite(w)):
            raise SpectraError("weights must be a nonempty finite sequence")
        if not np.any(w != 0):
            raise SpectraError("at least one weight must be nonzero")

    @classmethod
    def uniform(cls, lam: float, num: int) -> "WeightSpec":
        return cls(tuple([float(lam)] * num))

    @classmethod
    def xz(cls, lam: float, eta: float, num_x: int, num_z: int) -> "WeightSpec":
        return cls(tuple([float(lam)] * num_x + [float(eta)] * num_z))

    @classmethod
    def explicit(cls, values) -> "WeightSpec":
        return cls(tuple(float(v) for v in values))

    def for_code(self, code: SubsystemCode) -> np.ndarray:
        w = np.asarray(self.weights, dtype=float)
        if w.size != len(code.gauge_generators):
            raise SpectraError(
                f"{w.size} weights for {len(code.gauge_generators)} gauge generators"
            )
        return w


@dataclass
class SectorHamiltonian:
    sector: tuple[int, ...]  # +/-1 eigenvalues, X-type stabilizers then Z-type
    matrix: np.ndarray       # dense real symmetric, 2^a x 2^a
    terms: list[dict] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SeparationReport:
    code_sector: tuple[int, ...]
    ground_energies: dict[tuple[int, ...], float]
    e0_code: float
    separation: float
    gauge_gap: float   # first excited minus ground within the code sector
    suppressing: bool  # separation > 0

    def to_dict(self) -> dict:
        return {
            "code_sector": list(self.code_sector),
            "e0_code": self.e0_code,
            "separation": self.separation,
            "gauge_gap": self.gauge_gap,
            "suppressing": self.suppressing,
            "sectors": [
                {"sector": list(s), "ground_energy": e}
                for s, e in self.ground_energies.items()
            ],
        }


def _decompose_terms(code: SubsystemCode, rb: ReducedBasis, weights: np.ndarray) -> list[dict]:
    """Per gauge generator: stabilizer index set, aux-qubit Pauli mask, sign."""
    terms = []
    x_basis = list(rb.x_stabilizers) + rb.aux_x()
    z_basis = list(rb.z_stabilizers) + rb.aux_z()
    n_xs, n_zs = len(rb.x_stabilizers), len(rb.z_stabilizers)
    gens = code.gauge_generators
    for idx, g in enumerate(gens):
        is_x = idx < len(code.x_gauge)
        basis = x_basis if is_x else z_basis
        ns = n_xs if is_x else n_zs
        e, sign = express_in_basis(g, basis)
        terms.append({
            "generator": idx,
            "type": "X" if is_x else "Z",
            "weight": float(weights[idx]),
            "stabilizers": [i for i in range(ns) if e >> i & 1],
            "aux_mask": e >> ns,
            "sign": sign,
        })
    return terms


def _sector_matrix(terms: list[dict], sector: tuple[int, ...], num_x_stabs: int, a: int) -> np.ndarray:
    dim = 1 << a
    H = np.zeros((dim, dim))
    idx = np.arange(dim)
    for t in terms:
        offset = 0 if t["type"] == "X" else num_x_stabs
        scalar = t["sign"]
        for s in t["stabilizers"]:
            scalar *= sector[offset + s]
        c = -t["weight"] * scalar
        m = t["aux_mask"]
        if t["type"] == "X":
            H[idx ^ m, idx] += c
        else:
            signs = (-1.0) ** np.array([(i & m).bit_count() for i in range(dim)])
            H[idx, idx] += c * signs
    return H


def build_sector_hamiltonian(rb: ReducedBasis, code: SubsystemCode,
                             w: WeightSpec, sector) -> SectorHamiltonian:
    sector = tuple(int(s) for s in sector)
    n_stabs = len(rb.x_stabilizers) + len(rb.z_stabilizers)
    if len(sector) != n_stabs or any(s not in (1, -1) for s in sector):
        raise SpectraError(f"sector must be {n_stabs} values of +/-1, got {sector}")
    terms = _decompose_terms(code, rb, w.for_code(code))
    H = _sector_matrix(terms, sector, len(rb.x_stabilizers), rb.num_aux)
    return SectorHamiltonian(sector=sector, matrix=H, terms=terms)


def sector_spectrum(sh: SectorHamiltonian) -> np.ndarray:
    H = sh.matrix
    scale = max(np.abs(H).max(), 1.0)
    if np.abs(H - H.T).max() > 1e-12 * scale:
        raise SpectraError("sector Hamiltonian is not symmetric")
    return np.linalg.eigvalsh((H + H.T) / 2)


def _num_workers() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def energy_separation(code: SubsystemCode, rb: ReducedBasis, w: WeightSpec,
                      code_sector=None) -> SeparationReport:
    n_stabs = len(rb.x_stabilizers) + len(rb.z_stabilizers)
    if n_stabs > 12 or rb.num_aux > 12:
        raise SpectraError("too many stabilizers or auxiliary pairs for dense enumeration")
    if code_sector is None:
        code_sector = tuple([1] * n_stabs)
    else:
        code_sector = tuple(int(s) for s in code_sector)

    terms = _decompose_terms(code, rb, w.for_code(code))
    sectors = list(itertools.product((1, -1), repeat=n_stabs))

    def ground(sector):
        H = _sector_matrix(terms, sector, len(rb.x_stabilizers), rb.num_aux)
        ev = np.linalg.eigvalsh(H)
        return sector, ev

    grounds: dict[tuple[int, ...], float] = {}
    gauge_gap = float("nan")
    with ThreadPoolExecutor(max_workers=_num_workers()) as pool:
        for sector, ev in pool.map(ground, sectors):
            grounds[sector] = float(ev[0])
            if sector == code_sector:
                above = ev[ev > ev[0] + 1e-12 * max(1.0, abs(ev[0]))]
                gauge_gap = float(above[0] - ev[0]) if above.size else 0.0
    e0_code = grounds[code_sector]
    others = [e for s, e in grounds.items() if s != code_sector]
    # a full-rank matrix has a single sector and nothing to separate from
    separation = min(others) - e0_code if others else float("inf")
    return SeparationReport(
        code_sector=code_sector,
        ground_energies=grounds,
        e0_code=e0_code,
        separation=float(separation),
        gauge_gap=gauge_gap,
        suppressing=separation > 0,
    )


# ---------------------------------------------------------------------------
# Full-space cross-check
# ---------------------------------------------------------------------------

class FullHamiltonian(spla.LinearOperator):
    """v -> -sum_G w_G (G v) applied term by term with bit manipulation."""

    def __init__(self, code: SubsystemCode, w: WeightSpec):
        if code.n > 20:
            raise SpectraError(f"full-space operator limited to n <= 20, got {code.n}")
        weights = w.for_code(code)
        self.n = code.n
        dim = 1 << code.n
        idx = np.arange(dim)
        self._terms = []
        for g, wt in zip(code.gauge_generators, weights):
            if wt == 0:
                continue
            if not g.is_hermitian:
                raise SpectraError("gauge generators must be Hermitian")
            # raw X^x Z^z action: P|i> = i^r (-1)^{|i & z|} |i ^ x>
            r = (g.phase + (g.x & g.z).bit_count()) % 4
            coeff = -wt * (1.0 if r == 0 else -1.0 if r == 2 else None)
            if coeff is None:
                raise SpectraError("imaginary raw phase on a Hermitian pure-type term")
            zsigns = (-1.0) ** np.array([(i & g.z).bit_count() for i in idx])
            self._terms.append((coeff, g.x, zsigns))
        super().__init__(dtype=float, shape=(dim, dim))

    def _matvec(self, v):
        v = np.asarray(v).reshape(-1)
        out = np.zeros_like(v, dtype=float)
        dim = v.size
        idx = np.arange(dim)
        for coeff, xmask, zsigns in self._terms:
            out[idx ^ xmask] += coeff * (zsigns * v)
        return out

    def _rmatvec(self, v):
        return self._matvec(v)

    def dense(self) -> np.ndarray:
        dim = self.shape[0]
        H = np.zeros((dim, dim))
        idx = np.arange(dim)
        for coeff, xmask, zsigns in self._terms:
            H[idx ^ xmask, idx] += coeff * zsigns
        return H


def build_full_hamiltonian(code: SubsystemCode, w: WeightSpec) -> FullHamiltonian:
    return FullHamiltonian(code, w)


def full_ground_energy(op: FullHamiltonian, dense_threshold: int = 4096) -> float:
    """Lowest eigenvalue: dense solve for small dimensions, otherwise an
    iterative extremal (Lanczos-type) solve with a deterministic start."""
    dim = op.shape[0]
    if dim <= dense_threshold:
        return float(np.linalg.eigvalsh(op.dense())[0])
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim)
    try:
        vals = spla.eigsh(op, k=1, which="SA", v0=v0, tol=1e-8, maxiter=10000,
                          return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"iterative eigensolver failed to converge: {exc}") from exc
    return float(vals[0])


def full_spectrum(op: FullHamiltonian) -> np.ndarray:
    if op.shape[0] > 4096:
        raise SpectraError("full spectrum only available below the dense threshold")
    return np.linalg.eigvalsh(op.dense())


# ---------------------------------------------------------------------------
# Closed-form oracles for the two small benchmark codes
# ---------------------------------------------------------------------------

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
