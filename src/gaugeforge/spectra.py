"""Energy separation of gauge-generator Hamiltonians.

The Hamiltonian H = -sum_G w_G G commutes with every stabilizer, so it block
diagonalizes over stabilizer sectors.  Within a sector each gauge generator
reduces to a signed Pauli word on the auxiliary qubits, giving a dense
2^a x 2^a matrix per sector instead of the full 2^n space.  The full-space
route is kept as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .codes import SubsystemCode
from .extraction import ReducedBasis
from .pauli import express_in_basis

DENSE_THRESHOLD = 4096  # full-space dimension up to which a dense solve is used


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


def z_signs(z: int, n: int) -> np.ndarray:
    """(-1)^{|i & z|} for every basis index i of n qubits: the diagonal of Z^z."""
    idx = np.arange(1 << n)
    parity = np.zeros_like(idx)
    for q in range(n):
        if z >> q & 1:
            parity ^= idx >> q
    return 1.0 - 2.0 * (parity & 1)


def _dense(terms, dim: int) -> np.ndarray:
    """sum_t c_t X^x_t Z^z_t as a dense matrix, from (c, x, z_signs or 1.0, ...) tuples."""
    H = np.zeros((dim, dim))
    idx = np.arange(dim)
    for c, x, signs, *_ in terms:
        H[idx ^ x, idx] += c * signs
    return H


def _decompose_terms(code: SubsystemCode, rb: ReducedBasis, weights: np.ndarray) -> list[tuple]:
    """Per gauge generator: (-weight * sign, the positions in a sector tuple of
    the stabilizers it decomposes over, its aux-qubit X mask, the diagonal of
    its aux-qubit Z part or 1.0 for an X-type generator)."""
    terms = []
    x_basis = list(rb.x_stabilizers) + rb.aux_x()
    z_basis = list(rb.z_stabilizers) + rb.aux_z()
    n_xs, n_zs = len(rb.x_stabilizers), len(rb.z_stabilizers)
    for idx, g in enumerate(code.gauge_generators):
        is_x = idx < len(code.x_gauge)
        ns = n_xs if is_x else n_zs
        e, sign = express_in_basis(g, x_basis if is_x else z_basis)
        offset = 0 if is_x else n_xs
        aux = e >> ns
        terms.append((-float(weights[idx]) * sign,
                      [offset + i for i in range(ns) if e >> i & 1],
                      aux if is_x else 0,
                      1.0 if is_x else z_signs(aux, rb.num_aux)))
    return terms


def _sector_matrix(terms: list[tuple], sector: tuple[int, ...], a: int) -> np.ndarray:
    return _dense([(c * math.prod(sector[s] for s in stabs), x, signs)
                   for c, stabs, x, signs in terms], 1 << a)


def sector_spectra(code: SubsystemCode, rb: ReducedBasis, w: WeightSpec):
    """Yield (sector, ascending eigenvalues) for every stabilizer sector.

    A sector holds the +/-1 eigenvalues of the X-type stabilizers, then the
    Z-type ones, in ``itertools.product((1, -1), ...)`` order, so the code
    sector (all +1) comes first.  One sector matrix is alive at a time.
    """
    n_stabs = len(rb.x_stabilizers) + len(rb.z_stabilizers)
    if n_stabs > 12 or rb.num_aux > 12:
        raise SpectraError("too many stabilizers or auxiliary pairs for dense enumeration")
    terms = _decompose_terms(code, rb, w.for_code(code))
    for sector in itertools.product((1, -1), repeat=n_stabs):
        H = _sector_matrix(terms, sector, rb.num_aux)
        scale = max(np.abs(H).max(), 1.0)
        if np.abs(H - H.T).max() > 1e-12 * scale:
            raise SpectraError(f"sector {sector} Hamiltonian is not symmetric")
        yield sector, np.linalg.eigvalsh(H)


def energy_separation(code: SubsystemCode, rb: ReducedBasis, w: WeightSpec) -> SeparationReport:
    code_sector = (1,) * (len(rb.x_stabilizers) + len(rb.z_stabilizers))
    grounds: dict[tuple[int, ...], float] = {}
    gauge_gap = float("nan")
    for sector, ev in sector_spectra(code, rb, w):
        grounds[sector] = float(ev[0])
        if sector == code_sector:
            above = ev[ev > ev[0] + 1e-12 * max(1.0, abs(ev[0]))]
            gauge_gap = float(above[0] - ev[0]) if above.size else 0.0
    e0_code = grounds[code_sector]
    others = [e for s, e in grounds.items() if s != code_sector]
    # a full-rank matrix has a single sector and nothing to separate from
    separation = min(others) - e0_code if others else float("inf")
    return SeparationReport(
        code_sector,
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
    """v -> -sum_G w_G (G v) on the full 2^n space, one term c X^x Z^z at a time
    in generator order: multiply v by the Z diagonal (-1)^{|i & z|}, kept only for
    z != 0, flip the axes of x on a ``(2,) * n`` view (qubit q is axis n-1-q) and
    add c times that into the output, through one reused scratch vector."""

    def __init__(self, code: SubsystemCode, w: WeightSpec):
        if code.n > 20:
            raise SpectraError(f"full-space operator limited to n <= 20, got {code.n}")
        weights = w.for_code(code)
        self.n = code.n
        dim = 1 << code.n
        self._terms = []
        for g, wt in zip(code.gauge_generators, weights):
            if wt == 0:
                continue
            if not g.is_hermitian:
                raise SpectraError("gauge generators must be Hermitian")
            # raw X^x Z^z action: P|i> = i^r (-1)^{|i & z|} |i ^ x>
            r = (g.phase + (g.x & g.z).bit_count()) % 4
            if r % 2:
                raise SpectraError("imaginary raw phase on a Hermitian term: no real matrix")
            self._terms.append((-wt * (-1.0) ** (r // 2), g.x, z_signs(g.z, code.n) if g.z else 1.0,
                                tuple(code.n - 1 - q for q in range(code.n) if g.x >> q & 1)))
        super().__init__(dtype=float, shape=(dim, dim))

    def _matvec(self, v):
        v = np.asarray(v).reshape(-1)
        out = np.zeros_like(v, dtype=float)
        tmp = np.empty_like(out)
        for coeff, _, signs, axes in self._terms:
            u = v if isinstance(signs, float) else np.multiply(signs, v, out=tmp)
            np.multiply(np.flip(u.reshape((2,) * self.n), axes), coeff,
                        out=tmp.reshape((2,) * self.n))
            out += tmp
        return out

    def _rmatvec(self, v):
        return self._matvec(v)

    def dense(self) -> np.ndarray:
        return _dense(self._terms, self.shape[0])


def build_full_hamiltonian(code: SubsystemCode, w: WeightSpec) -> FullHamiltonian:
    return FullHamiltonian(code, w)


def full_ground_energy(op: FullHamiltonian) -> float:
    """Lowest eigenvalue: dense solve up to DENSE_THRESHOLD, otherwise an
    iterative extremal (Lanczos-type) solve with a deterministic start."""
    dim = op.shape[0]
    if dim <= DENSE_THRESHOLD:
        return float(np.linalg.eigvalsh(op.dense())[0])
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim)
    try:
        vals = spla.eigsh(op, k=1, which="SA", v0=v0, tol=1e-8, maxiter=10000,
                          return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"iterative eigensolver failed to converge: {exc}") from exc
    return float(vals[0])
