"""Phased n-qubit Pauli operators and GF(2) linear algebra.

Operators are stored as packed bit masks (one Python int each for the X and
Z parts) together with a power-of-i phase.  The phase convention is relative
to the Hermitian single-qubit basis {I, X, Y, Z}: an operator is

    P = i^phase * (sigma_1 x ... x sigma_n),

so phase in {0, 2} always means Hermitian.  Internally multiplication
converts to the raw X^x Z^z ordering and back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

MAX_QUBITS = 63


class PauliError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatchError(PauliError):
    pass


class PauliParseError(PauliError):
    pass


class NotInSpanError(PauliError):
    pass


class PhaseConsistencyError(PauliError):
    """A decomposition produced a phase of +/-i where a sign was expected."""


@dataclass(frozen=True)
class PauliOp:
    """Immutable phased Pauli operator on ``n`` qubits."""

    n: int
    x: int  # X-part bit mask, bit j set means X acts on qubit j
    z: int  # Z-part bit mask
    phase: int  # power of i relative to the Hermitian base operator

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise PauliError(f"qubit count {self.n} outside supported range 1..{MAX_QUBITS}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise PauliError("bit mask exceeds qubit count")
        if self.phase not in (0, 1, 2, 3):
            raise PauliError(f"phase must be in 0..3, got {self.phase}")

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, letter: str, qubit: int) -> "PauliOp":
        """Single-qubit X, Y or Z on ``qubit`` (0-based)."""
        if not 0 <= qubit < n:
            raise PauliError(f"qubit {qubit} out of range for n={n}")
        bit = 1 << qubit
        if letter == "X":
            return cls(n, bit, 0, 0)
        if letter == "Z":
            return cls(n, 0, bit, 0)
        if letter == "Y":
            return cls(n, bit, bit, 0)
        raise PauliError(f"unknown Pauli letter {letter!r}")

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def is_hermitian(self) -> bool:
        return self.phase in (0, 2)

    def _raw_phase(self) -> int:
        # exponent of i in the X^x Z^z ordering
        return (self.phase + (self.x & self.z).bit_count()) % 4

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise DimensionMismatchError(f"qubit counts differ: {self.n} vs {other.n}")
        raw = self._raw_phase() + other._raw_phase() + 2 * (self.z & other.x).bit_count()
        x = self.x ^ other.x
        z = self.z ^ other.z
        phase = (raw - (x & z).bit_count()) % 4
        return PauliOp(self.n, x, z, phase)

    def commutes(self, other: "PauliOp") -> bool:
        if self.n != other.n:
            raise DimensionMismatchError(f"qubit counts differ: {self.n} vs {other.n}")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def to_string(self, labels: list[str] | None = None) -> str:
        """Render in the operator text syntax, e.g. ``- X[1,1] X[1,2]``."""
        prefix = {0: "", 1: "i ", 2: "- ", 3: "-i "}[self.phase]
        factors = []
        for j in range(self.n):
            xb = (self.x >> j) & 1
            zb = (self.z >> j) & 1
            if not (xb or zb):
                continue
            letter = {(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(xb, zb)]
            label = labels[j] if labels is not None else str(j + 1)
            factors.append(f"{letter}{label}")
        if not factors:
            return (prefix + "I").strip()
        return (prefix + " ".join(factors)).strip()

    def __str__(self) -> str:
        return self.to_string()


_TOKEN_RE = re.compile(r"^([XYZ])(?:\[(\d+)\s*,\s*(\d+)\]|(\d+))$")
_SIGNS = {"+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}  # leading token -> phase


def pauli_from_string(s: str, n: int, coord_map: dict[tuple[int, int], int] | None = None) -> PauliOp:
    """Parse operator text like ``"X[1,1] X[1,2]"``, ``"-Z3 Z5"`` or ``"-i X1"``.

    Grid coordinates require ``coord_map`` mapping 1-based (row, col) to
    qubit index; linear labels are 1-based qubit indices.
    """
    tokens = s.split()
    start = 1 if tokens and tokens[0] in _SIGNS else 0
    result = PauliOp(n, 0, 0, _SIGNS[tokens[0]] if start else 0)
    for pos, tok in enumerate(tokens[start:], start=start):
        t = tok
        if pos == start and t[:1] in "+-" and len(t) > 1:
            if t[0] == "-":
                result = result * PauliOp(n, 0, 0, 2)
            t = t[1:]
        if t == "I":
            continue
        m = _TOKEN_RE.match(t)
        if m is None:
            raise PauliParseError(f"malformed token {tok!r} at position {pos}")
        letter = m.group(1)
        if m.group(4) is not None:
            idx = int(m.group(4)) - 1
            if not 0 <= idx < n:
                raise PauliParseError(f"qubit index out of range in token {tok!r} at position {pos}")
        else:
            if coord_map is None:
                raise PauliParseError(f"grid coordinates in token {tok!r} but no coordinate map given")
            rc = (int(m.group(2)), int(m.group(3)))
            if rc not in coord_map:
                raise PauliParseError(f"coordinate {rc} in token {tok!r} does not host a qubit")
            idx = coord_map[rc]
        result = result * PauliOp.single(n, letter, idx)
    return result


# ---------------------------------------------------------------------------
# GF(2) linear algebra on packed-int vectors: bit j is coordinate j.  The
# symplectic vector of a PauliOp is ``op.x | op.z << op.n``.
# ---------------------------------------------------------------------------

def _echelon(vectors) -> dict[int, tuple[int, int]]:
    """Lowest set bit -> (reduced vector, mask of the input vectors summed).

    A vector in the span of the earlier ones reduces to zero and is left out,
    so every mask uses only the greedy independent prefix, in input order.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for i, v in enumerate(vectors):
        used = 1 << i
        while v:
            low = v & -v
            if low not in pivots:
                pivots[low] = (v, used)
                break
            pv, pused = pivots[low]
            v ^= pv
            used ^= pused
    return pivots


def gf2_rank(vectors) -> int:
    return len(_echelon(vectors))


def gf2_independent(vectors) -> int:
    """Bit i set when vectors[i] is outside span(vectors[:i]); its pivot's mask has top bit i."""
    return sum(1 << used.bit_length() - 1 for _, used in _echelon(vectors).values())


def gf2_solver(vectors):
    """Factor ``vectors`` once: the returned function maps each target to
    ``gf2_solve(vectors, target)``."""
    pivots = _echelon(vectors)

    def solve(target: int) -> int | None:
        used = 0
        while target:
            low = target & -target
            if low not in pivots:
                return None
            pv, pused = pivots[low]
            target ^= pv
            used ^= pused
        return used
    return solve


def gf2_solve(vectors, target: int) -> int | None:
    """Mask of ``vectors`` summing to ``target`` (bit i set when vectors[i] is
    used), or None when ``target`` is outside their span.  Vectors that depend
    on earlier ones are never used, which makes the solution unique."""
    return gf2_solver(vectors)(target)


def gf2_nullspace(rows, ncols: int) -> list[int]:
    """Basis of {x : row . x = 0 for every row} over ``ncols`` coordinates.

    One vector per free column of the reduced row echelon form, in ascending
    column order; the vector for free column f has bit f set and the pivot
    bits of the rows that contain f."""
    reduced = {low: v for low, (v, _) in _echelon(rows).items()}
    for low in sorted(reduced):
        for other, v in reduced.items():
            if other != low and v & low:
                reduced[other] = v ^ reduced[low]
    basis = []
    for f in range(ncols):
        bit = 1 << f
        if bit in reduced:
            continue
        vec = bit
        for low, v in reduced.items():
            if v & bit:
                vec |= low
        basis.append(vec)
    return basis


def basis_solver(basis: list[PauliOp]):
    """Factor ``basis`` once: the returned function maps each target to
    ``express_in_basis(target, basis)``."""
    ns = {p.n for p in basis}
    solve = gf2_solver([p.x | p.z << p.n for p in basis])
    factors = [(p.x, p.z, p._raw_phase()) for p in basis]

    def express(target: PauliOp) -> tuple[int, int]:
        if not basis:
            raise NotInSpanError("empty basis")
        if ns != {target.n}:
            raise DimensionMismatchError(f"qubit counts differ: {target.n} vs {sorted(ns)}")
        e = solve(target.x | target.z << target.n)
        if e is None:
            raise NotInSpanError("target not in the GF(2) span of the basis")
        # PauliOp.__mul__ on raw phases (X^x Z^z order): they add, plus 2|z & x_p|
        # per step; the product has the target's masks, so only raw phases differ
        z = raw = 0
        for i, (px, pz, praw) in enumerate(factors):
            if e >> i & 1:
                raw += praw + 2 * (z & px).bit_count()
                z ^= pz
        diff = (target._raw_phase() - raw) % 4
        if diff % 2:
            raise PhaseConsistencyError("decomposition differs from target by a factor of +/-i")
        return e, 1 - diff  # diff 0 or 2: sign +1 or -1
    return express


def express_in_basis(target: PauliOp, basis: list[PauliOp]) -> tuple[int, int]:
    """Write ``target = sign * prod basis[i]^(e_i)`` (factors in basis order).

    Returns (e, sign): bit i of the mask ``e`` is the exponent e_i, and the
    sign, +1 or -1, comes from the product of the factors, never from the
    bit solve alone.  Every operator must have the target's qubit count.
    """
    return basis_solver(basis)(target)
