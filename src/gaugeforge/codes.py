"""Generalized-Bacon-Shor subsystem codes defined by binary matrices.

A code is specified by a binary matrix: one physical qubit per nonzero
entry (row-major numbering), weight-2 XX gauge generators along rows and
ZZ generators along columns.  Stabilizers come from linearly dependent
row/column sets, logical operators from the symplectic centralizer of the
gauge group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import MAX_QUBITS, PauliOp, gf2_independent, gf2_nullspace, gf2_rank, gf2_solver, pauli_from_string

DISTANCE_MAX_DIM = 20  # rows or columns; distance enumerates 2^m combinations


class CodeError(Exception):
    pass


class CodeFormatError(CodeError):
    pass


class DistanceSizeError(CodeError):
    pass


@dataclass(frozen=True)
class CodeMatrix:
    """A binary matrix as its shape and the positions of its ones, in
    row-major order: qubit q sits at ``coords[q]``."""

    shape: tuple[int, int]  # (m_r, m_c)
    coords: tuple[tuple[int, int], ...]  # qubit index -> (row, col), 0-based

    def __post_init__(self):
        m_r, m_c = self.shape
        if m_r == 0 or m_c == 0:
            raise CodeFormatError("empty matrix")
        if not all(0 <= i < m_r and 0 <= j < m_c for i, j in self.coords):
            raise CodeFormatError(f"coordinate outside the {m_r}x{m_c} matrix")
        if any(a >= b for a, b in zip(self.coords, self.coords[1:])):
            raise CodeFormatError("coordinates repeated or not in row-major order")
        if len({i for i, _ in self.coords}) < m_r:
            raise CodeFormatError("matrix has an all-zero row")
        if len({j for _, j in self.coords}) < m_c:
            raise CodeFormatError("matrix has an all-zero column")

    @classmethod
    def from_matrix(cls, M) -> "CodeMatrix":
        M = np.asarray(M)
        if M.ndim != 2:
            raise CodeFormatError("expected a 2D binary matrix")
        if not ((M == 0) | (M == 1)).all():
            raise CodeFormatError("matrix entries must be 0 or 1")
        rows, cols = np.nonzero(M)
        return cls(M.shape, tuple(zip(rows.tolist(), cols.tolist())))

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def coord_map(self) -> dict[tuple[int, int], int]:
        """1-based (row, col) -> qubit index, for the operator text syntax."""
        return {(i + 1, j + 1): q for q, (i, j) in enumerate(self.coords)}

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Row i as a GF(2) vector over the columns (bit j = column j)."""
        masks = [0] * self.shape[0]
        for i, j in self.coords:
            masks[i] |= 1 << j
        return tuple(masks)

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        """Column j as a GF(2) vector over the rows (bit i = row i)."""
        masks = [0] * self.shape[1]
        for i, j in self.coords:
            masks[j] |= 1 << i
        return tuple(masks)

    def qubit_labels(self) -> list[str]:
        return [f"[{i + 1},{j + 1}]" for (i, j) in self.coords]

    def row_qubits(self, i: int) -> list[int]:
        return [q for q, (r, _) in enumerate(self.coords) if r == i]

    def col_qubits(self, j: int) -> list[int]:
        return [q for q, (_, c) in enumerate(self.coords) if c == j]

    def parse(self, s: str) -> PauliOp:
        return pauli_from_string(s, self.n, self.coord_map)


def load_code_matrix(text: str) -> CodeMatrix:
    """Parse lines of 0/1 characters (whitespace optional, ``#`` comments)."""
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        data = line.split("#", 1)[0].strip()
        if not data:
            continue
        bits = data.split() if " " in data or "\t" in data else list(data)
        if any(b not in ("0", "1") for b in bits):  # int() would also read "01", "+1", "\u0661"
            raise CodeFormatError(f"line {lineno}: entries must be the characters 0 and 1 "
                                  f"in {data!r}")
        row = [int(b) for b in bits]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CodeFormatError(f"line {lineno}: ragged row (expected {width} entries)")
        rows.append(row)
    if not rows:
        raise CodeFormatError("no data lines found")
    return CodeMatrix.from_matrix(rows)


def _pauli_on(cm: CodeMatrix, letter: str, qubits) -> PauliOp:
    """Product of X (or Z) over ``qubits``."""
    mask = 0
    for q in qubits:
        mask ^= 1 << q
    return PauliOp(cm.n, mask, 0, 0) if letter == "X" else PauliOp(cm.n, 0, mask, 0)


def check_size(cm: CodeMatrix):
    """Raise a CodeError when ``build_code`` cannot take ``cm``: more qubits
    than a PauliOp holds, or more rows or columns than ``distance`` enumerates."""
    if cm.n > MAX_QUBITS:
        raise CodeFormatError(f"{cm.n} qubits, more than the {MAX_QUBITS} supported")
    m_r, m_c = cm.shape
    if m_r > DISTANCE_MAX_DIM or m_c > DISTANCE_MAX_DIM:
        raise DistanceSizeError(
            f"matrix {m_r}x{m_c} too large for exhaustive distance "
            f"(at most {DISTANCE_MAX_DIM} rows and columns)"
        )


def _gray_walk(start: int, masks):
    """``start`` XOR each subset of ``masks``, with the subset as a bit mask, in
    Gray-code order: step g flips the mask at the lowest set bit of g, one XOR."""
    acc = start
    for g in range(1 << len(masks)):
        acc ^= masks[(g & -g).bit_length() - 1] if g else 0
        yield acc, g ^ (g >> 1)


def distance(cm: CodeMatrix) -> int:
    """Minimum distance: least Hamming weight over all nonzero GF(2)
    combinations of rows and of columns, by exhaustive enumeration."""
    check_size(cm)
    return min(acc.bit_count() for masks in (cm.row_masks, cm.col_masks)
               for acc, _ in _gray_walk(0, masks) if acc)


@dataclass(frozen=True)
class SubsystemCode:
    matrix: CodeMatrix
    k: int
    d: int
    x_gauge: tuple[PauliOp, ...]  # nearest-neighbor XX within rows
    z_gauge: tuple[PauliOp, ...]  # nearest-neighbor ZZ within columns
    x_stabilizers: tuple[PauliOp, ...]
    z_stabilizers: tuple[PauliOp, ...]
    logical_pairs: tuple[tuple[PauliOp, PauliOp], ...]

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def gauge_generators(self) -> tuple[PauliOp, ...]:
        return self.x_gauge + self.z_gauge

    @property
    def stabilizer_generators(self) -> tuple[PauliOp, ...]:
        return self.x_stabilizers + self.z_stabilizers

    def to_report(self) -> dict:
        labels = self.matrix.qubit_labels()
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "gauge_generators": [g.to_string(labels) for g in self.gauge_generators],
            "stabilizers": [s.to_string(labels) for s in self.stabilizer_generators],
            "logicals": [[x.to_string(labels), z.to_string(labels)] for x, z in self.logical_pairs],
        }


def _gauge_masks(cm: CodeMatrix, all_pairs: bool) -> tuple[list[PauliOp], list[PauliOp]]:
    """XX on qubit pairs along each row and ZZ along each column: neighbours, or all pairs."""
    x_gauge, z_gauge = [], []
    for gauge, letter, lines in ((x_gauge, "X", map(cm.row_qubits, range(cm.shape[0]))),
                                 (z_gauge, "Z", map(cm.col_qubits, range(cm.shape[1])))):
        for qs in lines:
            for pair in itertools.combinations(qs, 2) if all_pairs else zip(qs, qs[1:]):
                gauge.append(_pauli_on(cm, letter, pair))
    return x_gauge, z_gauge


def _quotient_basis(space: list[int], subspace: list[int]) -> list[int]:
    """Vectors of ``space`` extending a basis of ``subspace``, greedily."""
    keep = gf2_independent(subspace + space) >> len(subspace)
    return [v for i, v in enumerate(space) if keep >> i & 1]


def build_code(cm: CodeMatrix, all_pairs: bool = False) -> SubsystemCode:
    """Construct gauge generators, stabilizers and canonical logical pairs."""
    check_size(cm)
    m_r, m_c = cm.shape
    k = gf2_rank(cm.row_masks)
    x_gauge, z_gauge = _gauge_masks(cm, all_pairs)

    # Z-type stabilizers: Z on every qubit of a dependent row set.
    z_stabs = []
    for v in gf2_nullspace(cm.col_masks, m_r):
        qubits = [q for q, (r, _) in enumerate(cm.coords) if v >> r & 1]
        z_stabs.append(_pauli_on(cm, "Z", qubits))
    # X-type stabilizers: X on every qubit of a dependent column set.
    x_stabs = []
    for u in gf2_nullspace(cm.row_masks, m_c):
        qubits = [q for q, (_, c) in enumerate(cm.coords) if u >> c & 1]
        x_stabs.append(_pauli_on(cm, "X", qubits))

    return SubsystemCode(
        matrix=cm,
        k=k,
        d=distance(cm),
        x_gauge=tuple(x_gauge),
        z_gauge=tuple(z_gauge),
        x_stabilizers=tuple(x_stabs),
        z_stabilizers=tuple(z_stabs),
        logical_pairs=_logical_operators(cm, k, x_gauge, z_gauge),
    )


def _logical_operators(cm, k, x_gauge, z_gauge):
    """Canonical logical pairs via the CSS symplectic centralizer."""
    n = cm.n
    Gx = [g.x for g in x_gauge]
    Gz = [g.z for g in z_gauge]

    # X-type centralizer vectors are orthogonal to every ZZ gauge generator,
    # Z-type ones to every XX; logicals extend the gauge span within them.
    lx = _quotient_basis(gf2_nullspace(Gz, n), Gx)
    lz = _quotient_basis(gf2_nullspace(Gx, n), Gz)
    if len(lx) != k or len(lz) != k:
        raise CodeError(
            f"logical operator count mismatch: got {len(lx)} X / {len(lz)} Z, expected k={k}"
        )
    # Enforce the canonical pairing <X_i, Z_j> = delta_ij: Z_i becomes the sum
    # of the Z_j picked by the solution c of P c = e_i, P[a][j] = <X_a, Z_j>.
    cols = [sum(((x & z).bit_count() & 1) << a for a, x in enumerate(lx)) for z in lz]
    solve = gf2_solver(cols)
    pairs = []
    for i, x in enumerate(lx):
        c = solve(1 << i)
        if c is None:
            raise CodeError("pairing matrix is singular over GF(2)")
        zmask = 0
        for j, z in enumerate(lz):
            if c >> j & 1:
                zmask ^= z
        pairs.append((PauliOp(n, x, 0, 0), PauliOp(n, 0, zmask, 0)))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Logical operators and the encoding of logical Hamiltonians
# ---------------------------------------------------------------------------

def combined_matrix(matrices: list[CodeMatrix]) -> CodeMatrix:
    """Block-diagonal code matrix hosting several independent blocks.  Its
    code's generators and logical pairs are those of the blocks, in block
    order, each shifted by the qubit count of the blocks before it."""
    coords, r, c = [], 0, 0
    for m in matrices:
        coords += [(i + r, j + c) for i, j in m.coords]
        r += m.shape[0]
        c += m.shape[1]
    return CodeMatrix((r, c), tuple(coords))


def logical_operator(code: SubsystemCode, word: PauliOp) -> PauliOp:
    """The encoded form of the k-qubit ``word`` = i^r X^x Z^z (r its raw
    phase): i^r times the logical X of every qubit in x, then the logical Z of
    every qubit in z.  Exact, as the logical pairs are canonical."""
    if word.n != code.k:
        raise CodeError(f"word on {word.n} qubits, but the code has k={code.k}")
    xs = zs = 0
    for i, (lx, lz) in enumerate(code.logical_pairs):
        xs ^= lx.x if word.x >> i & 1 else 0
        zs ^= lz.z if word.z >> i & 1 else 0
    n = code.n
    return PauliOp(n, 0, 0, word._raw_phase()) * PauliOp(n, xs, 0, 0) * PauliOp(n, 0, zs, 0)


def encode_operator(code: SubsystemCode, word: PauliOp) -> tuple[PauliOp, int]:
    """The minimum-weight physical operator of the k-qubit ``word`` and its
    weight: ``logical_operator`` reduced by stabilizer multiplication, ties
    broken by smallest (x, z) bit pattern."""
    op = logical_operator(code, word)
    # (weight, x << n | z) orders the coset totally: keep the best and its subset
    n, stabs = code.n, code.stabilizer_generators
    packed = [s.x << n | s.z for s in stabs]
    _, _, subset = min((((v >> n | v) & ~(-1 << n)).bit_count(), v, subset)
                       for v, subset in _gray_walk(op.x << n | op.z, packed))
    for i, s in enumerate(stabs):
        if subset >> i & 1:
            op = s * op
    return op, op.weight


def encode_ising(
    h: dict[int, float],
    J: dict[tuple[int, int], float],
    assignment: dict[int, int],
    code: SubsystemCode,
    transverse: bool = True,
) -> tuple[list[dict], dict[int, int]]:
    """Encode a logical Ising + transverse-field Hamiltonian term by term.

    ``assignment`` maps logical qubit (0-based) to a logical qubit of ``code``.
    The whole problem is checked, raising ``CodeError``, before any term is
    encoded.  Returns the encoded term list and a histogram of physical weights.
    """
    slots = set(assignment.values())
    if len(slots) < len(assignment) or not slots <= set(range(code.k)):
        raise CodeError(f"assignment is not one-to-one into the k={code.k} logical qubits")
    unassigned = set(h).union(*J) - set(assignment)
    if unassigned:
        raise CodeError(f"h or J names logical qubit {min(unassigned) + 1}, "
                        "which has no assignment")
    if any(a == b for a, b in J):
        raise CodeError("J couples a logical qubit to itself")
    if len({frozenset(pair) for pair in J}) < len(J):
        raise CodeError("J names one coupling twice, in either order")
    if not all(-np.inf < v < np.inf for v in [*h.values(), *J.values()]):  # NaN fails too
        raise CodeError("h and J values must be finite")
    # each term as its coefficient, its text and the X and Z masks of its word
    logical = [(1.0, f"X{q + 1}", 1 << assignment[q], 0) for q in sorted(assignment) if transverse]
    logical += [(hq, f"Z{q + 1}", 0, 1 << assignment[q]) for q, hq in sorted(h.items()) if hq]
    logical += [(j, f"Z{a + 1} Z{b + 1}", 0, 1 << assignment[a] | 1 << assignment[b])
                for (a, b), j in sorted(J.items()) if j]
    terms = []
    counts: dict[int, int] = {}
    for coeff, term, x, z in logical:
        op, w = encode_operator(code, PauliOp(code.k, x, z, 0))
        counts[w] = counts.get(w, 0) + 1
        terms.append({"logical": term, "coefficient": coeff, "physical": op, "weight": w})
    return terms, counts
