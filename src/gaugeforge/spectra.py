"""Energy separation of gauge-generator Hamiltonians.

The Hamiltonian H = -sum_G w_G G commutes with every stabilizer, so it block
diagonalizes over stabilizer sectors.  Within a sector each gauge generator
reduces to a signed Pauli word on the auxiliary qubits, giving a dense
2^a x 2^a matrix per sector instead of the full 2^n space, solved densely.
The full-space route is kept as an independent cross-check, solved by one
iterative (Lanczos-type) path at every size.  Sector and full-space
Hamiltonians are both a ``PauliSum``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codes import SubsystemCode
from .extraction import ReducedBasis
from .pauli import PauliOp, basis_solver


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
        # eigenvalues lie in [-S, S] for the absolute sum S, so their differences need 2S finite
        if w.size == 0 or not math.isfinite(2 * sum(np.abs(w).tolist())):
            raise SpectraError("weights must be a nonempty sequence with a finite absolute sum "
                               "S and a finite 2S")
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


class PauliSum:
    """sum_t c_t P_t on ``n`` qubits (qubit 0 = fastest bit), from (c, PauliOp) pairs.

    Each term is compiled once into c i^r X^x Z^z, with r the raw phase of P:
    the coefficient with i^r folded in, the X mask, the Z diagonal
    (-1)^{|i & z|} (1.0 when z = 0) and the axes that X flips on a ``(2,) * n``
    view (qubit q is axis n-1-q).  A real sum (``dtype=float``) takes only
    Hermitian terms with an even raw phase, so its matrix is real symmetric."""

    def __init__(self, terms, n: int, dtype=float):
        if n > 20:
            raise SpectraError(f"Pauli sum limited to n <= 20 qubits, got {n}")
        self.n = n
        self._terms = []
        for c, op in terms:
            r = op._raw_phase()
            if dtype is float:
                if not op.is_hermitian:
                    raise SpectraError("a real Pauli sum takes only Hermitian terms")
                if r % 2:
                    raise SpectraError("imaginary raw phase on a Hermitian term: no real matrix")
            self._terms.append((c * (-1.0) ** (r // 2) if dtype is float else c * 1j ** r, op.x,
                                z_signs(op.z, n) if op.z else 1.0,
                                tuple(n - 1 - q for q in range(n) if op.x >> q & 1)))
        self.shape, self.dtype = (1 << n, 1 << n), np.dtype(dtype)

    def matvec(self, v):
        return self._matvec(v)

    def _matvec(self, v):
        """One term at a time, in order: multiply v by the Z diagonal, flip the
        X axes and add c times that into the output, through one scratch vector."""
        v = np.asarray(v).reshape(-1)
        out = np.zeros_like(v, dtype=np.result_type(v, self.dtype))
        tmp = np.empty_like(out)
        for c, _, signs, axes in self._terms:
            u = v if isinstance(signs, float) else np.multiply(signs, v, out=tmp)
            np.multiply(np.flip(u.reshape((2,) * self.n), axes), c,
                        out=tmp.reshape((2,) * self.n))
            out += tmp
        return out

    def dense(self, scale=None) -> np.ndarray:
        """The matrix, with term t's coefficient times ``scale[t]`` when given."""
        H = np.zeros(self.shape, dtype=self.dtype)
        idx = np.arange(self.shape[0])
        for t, (c, x, signs, _) in enumerate(self._terms):
            H[idx ^ x, idx] += (c if scale is None else c * scale[t]) * signs
        return H


def _decompose_terms(code: SubsystemCode, rb: ReducedBasis, weights: np.ndarray) -> list[tuple]:
    """Per gauge generator: (-weight * sign, the positions in a sector tuple of
    the stabilizers it decomposes over, its Pauli factor on the auxiliary
    qubits).  A PauliOp has at least one qubit, so with no auxiliary qubits the
    factor is the identity on one."""
    terms = []
    express_x = basis_solver(list(rb.x_stabilizers) + rb.aux_x())
    express_z = basis_solver(list(rb.z_stabilizers) + rb.aux_z())
    n_xs, n_zs = len(rb.x_stabilizers), len(rb.z_stabilizers)
    for idx, g in enumerate(code.gauge_generators):
        is_x = idx < len(code.x_gauge)
        ns = n_xs if is_x else n_zs
        e, sign = (express_x if is_x else express_z)(g)
        offset = 0 if is_x else n_xs
        aux = e >> ns
        terms.append((-float(weights[idx]) * sign,
                      [offset + i for i in range(ns) if e >> i & 1],
                      PauliOp(max(rb.num_aux, 1), aux if is_x else 0, 0 if is_x else aux, 0)))
    return terms


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
    aux_sum = PauliSum([(c, op) for c, _, op in terms], rb.num_aux)
    for sector in itertools.product((1, -1), repeat=n_stabs):
        H = aux_sum.dense([math.prod(sector[s] for s in stabs) for _, stabs, _ in terms])
        scale = max(np.abs(H).max(), 1.0)
        if not np.abs(H - H.T).max() <= 1e-12 * scale:  # NaN fails too
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

def build_full_hamiltonian(code: SubsystemCode, w: WeightSpec) -> PauliSum:
    """-sum_G w_G G on the full 2^n space, over the nonzero weights in generator order."""
    return PauliSum([(-wt, g) for g, wt in zip(code.gauge_generators, w.for_code(code))
                     if wt != 0], code.n)


def full_ground_energy(op: PauliSum) -> float:
    """Lowest eigenvalue, by an iterative extremal (Lanczos-type) solve with a
    deterministic start.  It reads ``op._matvec`` at the call, so a wrapper set on
    the instance sees every product."""
    import scipy.sparse.linalg as spla  # here, so that importing gaugeforge loads no scipy
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    A = spla.LinearOperator(op.shape, matvec=op._matvec, dtype=op.dtype)
    try:
        vals = spla.eigsh(A, k=1, which="SA", v0=v0, tol=1e-8, maxiter=10000,
                          return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"iterative eigensolver failed to converge: {exc}") from exc
    return float(vals[0])
