"""Code construction checked against brute-force and hand-worked oracles."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeforge.codes import (
    CodeError,
    CodeFormatError,
    CodeMatrix,
    DistanceSizeError,
    build_code,
    combined_matrix,
    distance,
    encode_ising,
    encode_operator,
    load_code_matrix,
    logical_operator,
)
from gaugeforge.pauli import PauliOp, express_in_basis, pauli_from_string
from tests.oracles import centralizer_distance, letter_logical_operator, listed_min_weight

M412 = [[1, 1], [1, 1]]
M622 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
M55 = [
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [1, 1, 1, 1, 0],
]


def random_matrix(rng, max_dim=5):
    while True:
        r = int(rng.integers(1, max_dim + 1))
        c = int(rng.integers(1, max_dim + 1))
        M = rng.integers(0, 2, size=(r, c))
        if M.sum(axis=1).all() and M.sum(axis=0).all():
            return M


def test_code_matrix_basics():
    cm = CodeMatrix.from_matrix(M412)
    assert cm.n == 4
    assert cm.shape == (2, 2)
    assert cm.coords == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert cm.coord_map == {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    assert cm.qubit_labels() == ["[1,1]", "[1,2]", "[2,1]", "[2,2]"]
    assert cm.row_qubits(0) == [0, 1]
    assert cm.col_qubits(1) == [1, 3]
    assert CodeMatrix.from_matrix(M622).row_masks == (0b011, 0b110, 0b101)
    assert CodeMatrix.from_matrix(M622).col_masks == (0b101, 0b011, 0b110)


def test_code_matrix_rejects_zero_lines():
    with pytest.raises(CodeFormatError):
        CodeMatrix.from_matrix([[1, 1], [0, 0]])
    with pytest.raises(CodeFormatError):
        CodeMatrix.from_matrix([[1, 0], [1, 0]])


def test_code_objects_compare_and_hash_by_value():
    a, b = CodeMatrix.from_matrix(M622), CodeMatrix.from_matrix(np.array(M622, dtype=bool))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == CodeMatrix((3, 3), ((0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)))
    assert a != CodeMatrix.from_matrix(M412)
    code = build_code(a)
    assert code == build_code(b) and hash(code) == hash(build_code(b))
    wide = CodeMatrix.from_matrix([[1, 1, 1], [1, 1, 1]])
    assert build_code(wide) != build_code(wide, all_pairs=True)
    assert len({code, build_code(b), build_code(CodeMatrix.from_matrix(M412))}) == 2


@pytest.mark.parametrize("shape, coords, message", [
    ((0, 2), (), "empty"),
    ((2, 0), (), "empty"),
    ((1, 2), ((0, 0), (0, 2)), "outside"),
    ((1, 2), ((0, 0), (-1, 1)), "outside"),
    ((1, 2), ((0, 0), (0, 0), (0, 1)), "repeated"),
    ((2, 2), ((0, 1), (0, 0), (1, 0), (1, 1)), "row-major"),
    ((2, 2), ((1, 0), (1, 1), (0, 0), (0, 1)), "row-major"),
    ((2, 2), ((0, 0), (0, 1)), "all-zero row"),
    ((2, 2), ((0, 0), (1, 0)), "all-zero column"),
], ids=["no-rows", "no-columns", "column-past-end", "negative-row", "repeated", "column-order",
        "row-order", "zero-row", "zero-column"])
def test_code_matrix_rejects_inconsistent_coordinates(shape, coords, message):
    with pytest.raises(CodeFormatError, match=message):
        CodeMatrix(shape, coords)


def test_load_code_matrix_formats():
    assert load_code_matrix("11\n11\n").n == 4
    assert load_code_matrix("1 1\n1 1\n").n == 4
    assert load_code_matrix("# header\n1 1\n\n1 1\n").n == 4
    with pytest.raises(CodeFormatError):
        load_code_matrix("1 1\n1\n")
    with pytest.raises(CodeFormatError):
        load_code_matrix("1 2\n")
    with pytest.raises(CodeFormatError):
        load_code_matrix("# only comments\n")


@pytest.mark.parametrize("text", ["\u0661 1\n1 1\n", "\u06611\n11\n", "01 1\n1 1\n",
                                  "+1 1\n1 1\n", "1 -0\n1 1\n", "\uff11 1\n1 1\n"])
def test_load_code_matrix_accepts_only_the_ascii_digits_0_and_1(text):
    """int() also reads other digit scripts, leading zeros and signs as 0 or 1."""
    with pytest.raises(CodeFormatError, match="characters 0 and 1"):
        load_code_matrix(text)


def brute_distance(M):
    """Oracle: enumerate all row and column combinations directly."""
    M = np.asarray(M)
    best = M.size
    for vectors in (M, M.T):
        m = vectors.shape[0]
        for r in range(1, m + 1):
            for combo in itertools.combinations(range(m), r):
                v = np.bitwise_xor.reduce(vectors[list(combo)], axis=0)
                if v.any():
                    best = min(best, int(v.sum()))
    return best


def test_distance_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(60):
        M = random_matrix(rng)
        assert distance(CodeMatrix.from_matrix(M)) == brute_distance(M)


def test_distance_matches_the_centralizer_oracle():
    """The row and column combinations of ``distance`` against the least weight over
    C(S) \\ G, found from the gauge generators alone, on 300 seeded codes with n <= 14."""
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 300:
        M = random_matrix(rng, max_dim=7)
        if M.sum() <= 14:
            assert distance(CodeMatrix.from_matrix(M)) == centralizer_distance(M), M
            checked += 1


def test_distance_size_guard():
    M = np.ones((21, 2), dtype=int)
    with pytest.raises(DistanceSizeError):
        distance(CodeMatrix.from_matrix(M))


def test_four_qubit_code_parameters():
    code = build_code(CodeMatrix.from_matrix(M412))
    assert (code.n, code.k, code.d) == (4, 1, 2)
    assert len(code.x_gauge) == 2 and len(code.z_gauge) == 2
    assert len(code.x_stabilizers) == 1 and len(code.z_stabilizers) == 1
    cm = code.matrix
    assert code.x_stabilizers[0] == cm.parse("X[1,1] X[1,2] X[2,1] X[2,2]")
    assert code.z_stabilizers[0] == cm.parse("Z[1,1] Z[2,1] Z[1,2] Z[2,2]")


def test_six_qubit_code_parameters():
    code = build_code(CodeMatrix.from_matrix(M622))
    assert (code.n, code.k, code.d) == (6, 2, 2)
    assert len(code.x_gauge) == 3 and len(code.z_gauge) == 3
    assert len(code.stabilizer_generators) == 2


def test_sixteen_qubit_code_parameters():
    code = build_code(CodeMatrix.from_matrix(M55))
    assert (code.n, code.k, code.d) == (16, 2, 3)
    # 11 nearest-neighbor XX along rows, 11 ZZ along columns
    assert len(code.x_gauge) == 11 and len(code.z_gauge) == 11
    assert len(code.stabilizer_generators) == 6


def brute_rank(M):
    """Oracle: GF(2) rank as log2 of the number of row combinations."""
    span = {0}
    for row in np.asarray(M):
        v = int("".join(map(str, row)), 2)
        span |= {s ^ v for s in span}
    return len(span).bit_length() - 1


def assert_code_consistent(code):
    assert code.n == code.matrix.n
    M = np.zeros(code.matrix.shape, dtype=int)
    M[tuple(zip(*code.matrix.coords))] = 1
    assert code.k == brute_rank(M)
    for s in code.stabilizer_generators:
        for g in code.gauge_generators:
            assert s.commutes(g)
        assert express_in_basis(s, list(code.gauge_generators))[1] == 1
    for i, (xi, zi) in enumerate(code.logical_pairs):
        assert not xi.commutes(zi)
        for g in code.gauge_generators:
            assert xi.commutes(g) and zi.commutes(g)
        for j, (xj, zj) in enumerate(code.logical_pairs):
            if i != j:
                assert xi.commutes(xj) and xi.commutes(zj) and zi.commutes(zj)


def test_random_codes_are_consistent():
    rng = np.random.default_rng(29)
    for _ in range(40):
        cm = CodeMatrix.from_matrix(random_matrix(rng, max_dim=4))
        assert_code_consistent(build_code(cm))


def test_all_pairs_spans_same_gauge_group():
    for M in (M412, M622, M55):
        cm = CodeMatrix.from_matrix(M)
        nn = build_code(cm)
        ap = build_code(cm, all_pairs=True)
        for a, b in ((nn, ap), (ap, nn)):
            for g in a.gauge_generators:
                express_in_basis(g, list(b.gauge_generators))  # raises outside the span


def test_combined_matrix_is_block_diagonal():
    cm = combined_matrix([CodeMatrix.from_matrix(M412), CodeMatrix.from_matrix(M412)])
    assert cm.shape == (4, 4)
    code = build_code(cm)
    assert (code.n, code.k, code.d) == (8, 2, 2)


@st.composite
def code_matrices(draw, max_rows=3, max_cols=4):
    """Binary matrices without zero rows or columns; k <= max_rows.  A zero row
    or column gets a 1 at a drawn place, so no draw is filtered out."""
    r, c = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    M = np.array(draw(st.lists(st.integers(0, 1), min_size=r * c, max_size=r * c))).reshape(r, c)
    for i in np.flatnonzero(~M.any(axis=1)):
        M[i, draw(st.integers(0, c - 1))] = 1
    for j in np.flatnonzero(~M.any(axis=0)):
        M[draw(st.integers(0, r - 1)), j] = 1
    return CodeMatrix.from_matrix(M)


@given(st.lists(code_matrices(), min_size=1, max_size=3))
def test_composite_code_is_the_shifted_blocks(cms):
    comp = build_code(combined_matrix(cms))
    blocks = [build_code(cm) for cm in cms]
    offsets = np.cumsum([0] + [b.n for b in blocks]).tolist()

    def shifted(attr):
        return tuple(PauliOp(comp.n, op.x << off, op.z << off, op.phase)
                     for b, off in zip(blocks, offsets) for op in getattr(b, attr))

    for attr in ("x_gauge", "z_gauge", "x_stabilizers", "z_stabilizers"):
        assert getattr(comp, attr) == shifted(attr)
    xs = [PauliOp(comp.n, lx.x << off, 0, 0) for b, off in zip(blocks, offsets)
          for lx, _ in b.logical_pairs]
    zs = [PauliOp(comp.n, 0, lz.z << off, 0) for b, off in zip(blocks, offsets)
          for _, lz in b.logical_pairs]
    assert comp.logical_pairs == tuple(zip(xs, zs))


def all_words(k):
    return [PauliOp(k, x, z, p) for x in range(1 << k) for z in range(1 << k) for p in range(4)]


@settings(max_examples=50)
@given(code_matrices())
def test_logical_operator_matches_letter_products(cm):
    code = build_code(cm)
    for word in all_words(code.k):
        assert logical_operator(code, word) == letter_logical_operator(code, word)


@given(code_matrices(), st.data())
def test_logical_operator_is_a_homomorphism(cm, data):
    code = build_code(cm)
    a, b = (data.draw(st.sampled_from(all_words(code.k))) for _ in range(2))
    assert logical_operator(code, a * b) == logical_operator(code, a) * logical_operator(code, b)


def test_to_report_shape():
    rep = build_code(CodeMatrix.from_matrix(M622)).to_report()
    assert rep["n"] == 6 and rep["k"] == 2 and rep["d"] == 2
    assert len(rep["gauge_generators"]) == 6
    assert len(rep["logicals"]) == 2


def test_one_by_one_matrix():
    code = build_code(CodeMatrix.from_matrix([[1]]))
    assert (code.n, code.k, code.d) == (1, 1, 1)
    assert len(code.stabilizer_generators) == 0


# ---------------------------------------------------------------------------
# Logical operator encoding and locality accounting
# ---------------------------------------------------------------------------

def two_m622_blocks():
    cm = CodeMatrix.from_matrix(M622)
    return build_code(combined_matrix([cm, cm]))


def test_intra_block_couplings_stay_two_local():
    block = build_code(CodeMatrix.from_matrix(M622))
    for term in ("X1", "Z1", "X2", "Z2", "Z1 Z2", "X1 X2"):
        _, w = encode_operator(block, pauli_from_string(term, block.k))
        assert w <= 2, f"{term} has weight {w}"


def test_cross_block_couplings_are_four_local():
    code = two_m622_blocks()  # slot 0 of each block: logical qubits 1 and 3 of the composite
    _, w = encode_operator(code, pauli_from_string("Z1 Z3", code.k))
    assert w == 4
    _, w = encode_operator(code, pauli_from_string("X1 X3", code.k))
    assert w == 4


def test_encode_ising_histogram_deterministic():
    code = two_m622_blocks()
    assignment = {0: 0, 1: 1, 2: 2, 3: 3}
    h = {0: 1.0, 1: 0.5, 2: -0.2, 3: 0.1}
    J = {(0, 1): 1.0, (2, 3): 1.0, (1, 2): 1.0}
    runs = [encode_ising(h, J, assignment, code) for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    counts = runs[0][1]
    # 4 transverse + 4 fields + 2 intra-block couplings are weight <= 2,
    # the single cross-block coupling is weight 4
    assert counts == {1: 2, 2: 8, 4: 1} or set(counts) <= {1, 2, 4}
    assert counts.get(4, 0) == 1
    assert sum(c for w, c in counts.items() if w <= 2) == 10


def test_encoded_operators_commute_with_gauge():
    code = two_m622_blocks()  # slot 0 of block 0 and slot 1 of block 1
    op, _ = encode_operator(code, pauli_from_string("Z1 Z4", code.k))
    for g in code.gauge_generators:
        assert op.commutes(g)


@pytest.mark.parametrize("h, J, assignment", [
    pytest.param({0: 1.0}, {}, {0: 0, 1: 0}, id="shared-slot"),
    pytest.param({0: 1.0}, {}, {0: 4}, id="slot-past-k"),  # the composite has k = 4
    pytest.param({1: 1.0}, {}, {0: 0, 2: 1}, id="unassigned"),
    pytest.param({}, {(0, 0): 1.0}, {0: 0}, id="self-coupling"),
    pytest.param({}, {(0, 1): 1.0, (1, 0): 2.0}, {0: 0, 1: 1}, id="pair-twice"),
    pytest.param({0: float("nan")}, {}, {0: 0}, id="nan-field"),
    pytest.param({}, {(0, 1): float("inf")}, {0: 0, 1: 2}, id="infinite-coupling"),
])
def test_encode_ising_rejects_bad_problems(h, J, assignment):
    with pytest.raises(CodeError):
        encode_ising(h, J, assignment, two_m622_blocks())


@settings(max_examples=50)
@given(st.lists(code_matrices(), min_size=1, max_size=2), st.data())
def test_encode_operator_matches_listed_coset(cms, data):
    """The Gray-code walk finds the operator the listed stabilizer group gives,
    phase included, for any word."""
    code = build_code(combined_matrix(cms))
    x, z = (data.draw(st.integers(0, (1 << code.k) - 1)) for _ in range(2))
    word = PauliOp(code.k, x, z, data.draw(st.sampled_from([0, 2])))
    expected = listed_min_weight(logical_operator(code, word), code.stabilizer_generators)
    assert encode_operator(code, word) == (expected, expected.weight)


@settings(max_examples=50)
@given(st.lists(code_matrices(), min_size=1, max_size=2), st.data())
def test_encode_ising_matches_listed_coset(cms, data):
    """For a random one-to-one assignment (labels past 63 included), each term is the
    listed minimum of the word its text names on the assigned slots."""
    code = build_code(combined_matrix(cms))
    slots = data.draw(st.permutations(range(code.k)))[:data.draw(st.integers(1, code.k))]
    qubits = data.draw(st.lists(st.integers(0, 99), min_size=len(slots), max_size=len(slots),
                                unique=True))
    assignment = dict(zip(qubits, slots))
    values = st.sampled_from([0.0, 1.0, -0.5, 2.0])
    h = data.draw(st.dictionaries(st.sampled_from(qubits), values))
    pairs = list(itertools.combinations(qubits, 2))  # each coupling once, in a drawn order
    chosen = sorted(data.draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    J = {tuple(data.draw(st.permutations(p))): data.draw(values) for p in chosen}
    transverse = data.draw(st.booleans())
    terms, counts = encode_ising(h, J, assignment, code, transverse=transverse)
    assert len(terms) == transverse * len(qubits) + sum(map(bool, [*h.values(), *J.values()]))
    for t in terms:
        word = PauliOp.identity(code.k)
        for token in t["logical"].split():
            word = word * PauliOp.single(code.k, token[0], assignment[int(token[1:]) - 1])
        expected = listed_min_weight(logical_operator(code, word), code.stabilizer_generators)
        assert (t["physical"], t["weight"]) == (expected, expected.weight)
    assert counts == {w: sum(t["weight"] == w for t in terms) for w in counts}
    assert sum(counts.values()) == len(terms)


def test_encode_operator_memory_does_not_grow_with_the_stabilizer_group():
    """Four 3 x 3 all-ones blocks have 16 stabilizers: listing the 65,536
    elements of the group took 11 MB, the walk keeps one element."""
    code = build_code(combined_matrix([CodeMatrix.from_matrix(np.ones((3, 3)))] * 4))
    assert len(code.stabilizer_generators) == 16
    word = pauli_from_string("Z1 Z4", code.k)
    tracemalloc.start()
    try:
        op, w = encode_operator(code, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert op == listed_min_weight(op, code.stabilizer_generators) and w == 6
