"""Pauli algebra checked against dense matrix arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gaugeforge.codes import CodeMatrix
from gaugeforge.opensys import pauli_matrix
from gaugeforge.pauli import (
    DimensionMismatchError,
    NotInSpanError,
    PauliError,
    PauliOp,
    PauliParseError,
    PhaseConsistencyError,
    basis_solver,
    express_in_basis,
    gf2_independent,
    gf2_nullspace,
    gf2_rank,
    gf2_solve,
    gf2_solver,
    pauli_from_string,
)
from gaugeforge.spectra import PauliSum
from tests.oracles import express_by_products

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def dense(op: PauliOp) -> np.ndarray:
    """Independent dense-matrix oracle: qubit 0 is the fastest tensor index."""
    out = np.array([[1]], dtype=complex)
    for j in range(op.n):
        xb = (op.x >> j) & 1
        zb = (op.z >> j) & 1
        sigma = {(0, 0): I2, (1, 0): SX, (0, 1): SZ, (1, 1): SY}[(xb, zb)]
        out = np.kron(sigma, out)
    return (1j) ** op.phase * out


def random_op(rng, n):
    mask = (1 << n) - 1
    return PauliOp(n, int(rng.integers(0, mask + 1)), int(rng.integers(0, mask + 1)),
                   int(rng.integers(0, 4)))


def test_single_qubit_letters_match_dense():
    assert np.array_equal(dense(PauliOp.single(1, "X", 0)), SX)
    assert np.array_equal(dense(PauliOp.single(1, "Y", 0)), SY)
    assert np.array_equal(dense(PauliOp.single(1, "Z", 0)), SZ)
    assert np.array_equal(dense(PauliOp.identity(1)), I2)


@st.composite
def pauli_ops(draw, count, max_n=4):
    """``count`` phased Pauli operators on a common n <= max_n qubits."""
    n = draw(st.integers(1, max_n))
    masks = st.integers(0, (1 << n) - 1)
    return [PauliOp(n, draw(masks), draw(masks), draw(st.integers(0, 3)))
            for _ in range(count)]


@given(pauli_ops(2))
def test_multiplication_matches_dense_oracle(ops):
    # every entry is 0, +/-1 or +/-i, so the phase must match exactly
    a, b = ops
    assert np.array_equal(pauli_matrix(a * b), dense(a) @ dense(b))
    assert np.array_equal(pauli_matrix(a) @ pauli_matrix(b), dense(a) @ dense(b))


@given(pauli_ops(5), st.lists(st.complex_numbers(max_magnitude=3.0), min_size=5, max_size=5),
       st.integers(0, 2**32 - 1))
def test_pauli_sum_matches_dense_oracle(ops, coeffs, seed):
    # every phase and Y appear among the drawn operators
    n = ops[0].n
    psum = PauliSum(list(zip(coeffs, ops)), n, complex)
    want = sum(c * dense(p) for c, p in zip(coeffs, ops))
    assert np.allclose(psum.dense(), want, rtol=0, atol=1e-12)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    assert np.abs(psum.matvec(v) - psum.dense() @ v).max() <= 1e-12
    # the real sum of the Hermitian terms with even raw phase is the same matrix
    real = [(c.real, p) for c, p in zip(coeffs, ops)
            if p.is_hermitian and (p.phase + (p.x & p.z).bit_count()) % 2 == 0]
    want = sum((c * dense(p) for c, p in real), np.zeros((1 << n, 1 << n)))
    assert np.array_equal(PauliSum(real, n).dense(), want.real)
    assert np.abs(want.imag).max() == 0


@given(pauli_ops(3, max_n=8))
def test_multiplication_is_associative(ops):
    a, b, c = ops
    assert (a * b) * c == a * (b * c)


@given(pauli_ops(2))
def test_commutes_matches_dense_oracle(ops):
    a, b = ops
    # symplectic form, one qubit at a time: sum_j x_j(a) z_j(b) + z_j(a) x_j(b)
    form = sum((a.x >> j & 1) * (b.z >> j & 1) + (a.z >> j & 1) * (b.x >> j & 1)
               for j in range(a.n)) % 2
    assert a.commutes(b) == (form == 0)
    assert a.commutes(b) == np.array_equal(dense(a) @ dense(b), dense(b) @ dense(a))


def test_hermitian_phase_convention():
    y = PauliOp.single(3, "Y", 1)
    assert y.is_hermitian and y.phase == 0
    assert np.allclose(dense(y), dense(y).conj().T)
    yy = y * y
    assert yy == PauliOp.identity(3)


def test_weight_and_masks():
    op = PauliOp.single(4, "X", 0) * PauliOp.single(4, "Z", 0) * PauliOp.single(4, "Z", 3)
    assert op.weight == 2
    assert op.x == 0b0001 and op.z == 0b1001


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        PauliOp.identity(2) * PauliOp.identity(3)
    with pytest.raises(DimensionMismatchError):
        PauliOp.identity(2).commutes(PauliOp.identity(3))


def test_constructor_validation():
    with pytest.raises(PauliError):
        PauliOp(0, 0, 0, 0)
    with pytest.raises(PauliError):
        PauliOp(2, 0b100, 0, 0)
    with pytest.raises(PauliError):
        PauliOp(2, 0, 0, 5)


@given(pauli_ops(1, max_n=8))
def test_string_round_trip_linear_labels(ops):
    (op,) = ops
    assert pauli_from_string(op.to_string(), op.n) == op


@st.composite
def grid_ops(draw):
    """A code matrix of at most 3x3 without zero lines and a phased operator on its qubits."""
    m_r, m_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    M = np.array(draw(st.lists(st.booleans(), min_size=m_r * m_c, max_size=m_r * m_c)))
    M = M.reshape(m_r, m_c)
    assume(M.any(axis=0).all() and M.any(axis=1).all())
    cm = CodeMatrix.from_matrix(M.astype(int))
    masks = st.integers(0, (1 << cm.n) - 1)
    return cm, PauliOp(cm.n, draw(masks), draw(masks), draw(st.integers(0, 3)))


@given(grid_ops())
def test_string_round_trip_grid_labels(case):
    cm, op = case
    assert cm.parse(op.to_string(cm.qubit_labels())) == op


def test_parse_grid_coordinates():
    cmap = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    op = pauli_from_string("X[1,1] X[1,2]", 4, cmap)
    assert op == PauliOp(4, 0b0011, 0, 0)
    op = pauli_from_string("- Z[1,1] Z[2,1]", 4, cmap)
    assert op == PauliOp(4, 0, 0b0101, 2)


def test_parse_signed_first_token():
    assert pauli_from_string("-Z3 Z5", 5) == PauliOp(5, 0, 0b10100, 2)
    assert pauli_from_string("+X1", 2) == PauliOp(2, 1, 0, 0)
    for text, phase in (("i", 1), ("+i", 1), ("-", 2), ("-i", 3)):
        assert pauli_from_string(f"{text} X1 Z2 Y3", 3) == PauliOp(3, 0b101, 0b110, phase)
    assert pauli_from_string("-i I", 2) == PauliOp(2, 0, 0, 3)


def test_parse_errors():
    with pytest.raises(PauliParseError):
        pauli_from_string("Q1", 2)
    with pytest.raises(PauliParseError):
        pauli_from_string("X9", 2)
    with pytest.raises(PauliParseError):
        pauli_from_string("X[1,1]", 2)  # no coordinate map
    with pytest.raises(PauliParseError):
        pauli_from_string("X[3,3]", 4, {(1, 1): 0})


# ---------------------------------------------------------------------------
# GF(2) linear algebra on packed ints, cross-checked by span enumeration
# ---------------------------------------------------------------------------

@st.composite
def gf2_matrices(draw):
    """(rows, ncols): up to 8 row vectors over up to 8 coordinates."""
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=8))
    return rows, ncols


def brute_span(vectors) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def brute_rank(vectors) -> int:
    """Oracle: count the elements of the span, rank = log2."""
    return len(brute_span(vectors)).bit_length() - 1


def combine(vectors, mask) -> int:
    out = 0
    for i, v in enumerate(vectors):
        if mask >> i & 1:
            out ^= v
    return out


@given(gf2_matrices())
def test_rank_matches_brute_force(m):
    rows, _ = m
    assert gf2_rank(rows) == brute_rank(rows)


@given(gf2_matrices(), st.data())
def test_solve_and_nullspace(m, data):
    rows, ncols = m
    target = combine(rows, data.draw(st.integers(0, (1 << len(rows)) - 1)))
    used = gf2_solve(rows, target)
    assert used is not None and combine(rows, used) == target
    # only the greedy independent prefix is used: no vector in the span of earlier ones
    for i, v in enumerate(rows):
        if used >> i & 1:
            assert v not in brute_span(rows[:i])

    null = gf2_nullspace(rows, ncols)
    assert len(null) == ncols - brute_rank(rows)
    assert all((r & v).bit_count() % 2 == 0 for r in rows for v in null)
    # canonical basis: one vector per free column, ascending, carrying no other
    # free column; column c is free when it depends on the columns before it
    cols = [sum((r >> c & 1) << i for i, r in enumerate(rows)) for c in range(ncols)]
    free = [c for c in range(ncols) if cols[c] in brute_span(cols[:c])]
    free_bits = sum(1 << c for c in free)
    assert [v & free_bits for v in null] == [1 << c for c in free]


@given(gf2_matrices(), st.integers(0, 255))
def test_solve_inconsistent_returns_none(m, target):
    rows, ncols = m
    target &= (1 << ncols) - 1
    assert (gf2_solve(rows, target) is None) == (target not in brute_span(rows))
    assert gf2_solve([0b11, 0b00], 0b01) is None


@given(gf2_matrices(), st.lists(st.integers(0, 255), max_size=12), st.data())
def test_factored_solver_matches_one_shot_solves(m, targets, data):
    rows, ncols = m
    solve = gf2_solver(rows)
    spanned = [combine(rows, data.draw(st.integers(0, (1 << len(rows)) - 1))) for _ in range(4)]
    for target in [t & (1 << ncols) - 1 for t in targets] + spanned:
        assert solve(target) == gf2_solve(rows, target)
    assert gf2_independent(rows) == sum(1 << i for i, v in enumerate(rows)
                                        if v not in brute_span(rows[:i]))


@st.composite
def phased_bases(draw):
    """(basis, targets) on a common n <= 8: up to 10 phased operators, some of
    them products of earlier ones times a phase, and up to 6 targets, each a
    phased product of basis operators or any operator at all."""
    n = draw(st.integers(1, 8))
    masks, phases = st.integers(0, (1 << n) - 1), st.integers(0, 3)

    def operator(ops):
        """A phased product of some of ``ops`` half the time, else any operator."""
        if not (ops and draw(st.booleans())):
            return PauliOp(n, draw(masks), draw(masks), draw(phases))
        out = PauliOp(n, 0, 0, draw(phases))
        for p in ops:
            if draw(st.booleans()):
                out = out * p
        return out

    basis = []
    for _ in range(draw(st.integers(1, 10))):
        basis.append(operator(basis))
    return basis, [operator(basis) for _ in range(draw(st.integers(1, 6)))]


def outcome(fn, *args):
    """fn's result, or the type of the PauliError it raised."""
    try:
        return fn(*args)
    except PauliError as err:
        return type(err)


@given(phased_bases())
def test_express_in_basis_matches_explicit_products(case):
    basis, targets = case
    express = basis_solver(basis)
    for target in targets:
        want = outcome(express_by_products, target, basis)
        assert outcome(express, target) == want
        assert outcome(express_in_basis, target, basis) == want


def test_express_in_basis_reconstructs_with_sign():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        basis = [random_op(rng, n) for _ in range(int(rng.integers(1, 2 * n + 1)))]
        picks = [i for i in range(len(basis)) if rng.integers(0, 2)]
        target = PauliOp.identity(n)
        for i in picks:
            target = target * basis[i]
        if not target.is_hermitian:
            continue
        try:
            e, sign = express_in_basis(target, basis)
        except PhaseConsistencyError:
            # a dependent basis can route the solve through an i^+-1 product;
            # the error is the documented contract for that case
            continue
        prod = PauliOp.identity(n)
        for i, p in enumerate(basis):
            if e >> i & 1:
                prod = prod * p
        assert prod * PauliOp(n, 0, 0, 0 if sign == 1 else 2) == target


def test_express_in_basis_errors():
    x0 = PauliOp.single(2, "X", 0)
    z1 = PauliOp.single(2, "Z", 1)
    with pytest.raises(NotInSpanError):
        express_in_basis(PauliOp.single(2, "Z", 0), [x0, z1])
    # X*Z = -iY: the bit solve succeeds but the phase is imaginary
    y0 = PauliOp.single(2, "Y", 0)
    with pytest.raises(PhaseConsistencyError):
        express_in_basis(y0, [x0, PauliOp.single(2, "Z", 0)])
    # qubit counts are checked before the solve, used in the product or not
    with pytest.raises(DimensionMismatchError):
        express_in_basis(PauliOp(3, 0, 0, 0), [x0])
    with pytest.raises(DimensionMismatchError):
        express_in_basis(PauliOp.single(3, "Z", 0), [x0, PauliOp.single(2, "X", 1)])
    with pytest.raises(DimensionMismatchError):
        express_in_basis(PauliOp.single(2, "X", 0), [x0, PauliOp.single(3, "X", 1)])
