"""Reduced-basis extraction: hand-worked 16-qubit fixture, regressions and
a randomized property suite."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeforge.codes import CodeMatrix, build_code
from gaugeforge.extraction import (
    ReducedBasis,
    _dependencies,
    extract_reduced_basis,
    verify_reduced_basis,
)

from tests.oracles import dependencies_with_flush

M55 = [
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [1, 1, 1, 1, 0],
]


def test_counts_for_benchmark_codes():
    for M, stabs, aux in (
        ([[1, 1], [1, 1]], (1, 1), 1),
        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], (1, 1), 2),
        (M55, (3, 3), 8),
    ):
        cm = CodeMatrix.from_matrix(M)
        rb = extract_reduced_basis(cm)
        assert (len(rb.x_stabilizers), len(rb.z_stabilizers)) == stabs
        assert rb.num_aux == aux
        assert verify_reduced_basis(build_code(cm), rb).ok


def _col_x(cm, j):
    """Product of X over every qubit of column j (1-based)."""
    return cm.parse(" ".join(f"X[{r},{c}]" for (r, c), q in sorted(
        cm.coord_map.items(), key=lambda kv: kv[1]) if c == j))


def _row_z(cm, i):
    return cm.parse(" ".join(f"Z[{r},{c}]" for (r, c), q in sorted(
        cm.coord_map.items(), key=lambda kv: kv[1]) if r == i))


def hand_listed_basis(cm) -> ReducedBasis:
    """The worked 16-qubit reduction, copied operator by operator."""
    p = cm.parse
    x_aux = [
        p("X[3,2] X[3,4]"),
        p("X[3,2] X[3,5]"),
        p("X[2,1] X[2,3]"),
        p("X[2,1] X[2,5]"),
        p("X[4,1] X[4,3]"),
        p("X[4,1] X[4,5]"),
    ]
    x_aux.append(p("X[1,2] X[1,5]") * x_aux[1] * x_aux[3] * x_aux[5])
    x_aux.append(p("X[1,4] X[1,5]") * x_aux[0] * x_aux[1] * x_aux[3] * x_aux[5])
    z_aux = [
        p("Z[1,4] Z[3,4]"),
        p("Z[1,5] Z[3,5]"),
        p("Z[2,3] Z[5,3]"),
        p("Z[2,5] Z[1,5]"),
        p("Z[4,3] Z[5,3]"),
        p("Z[4,5] Z[1,5]"),
        p("Z[5,2] Z[1,2]"),
        p("Z[5,4] Z[1,4]"),
    ]
    x_stabs = [
        _col_x(cm, 3) * _col_x(cm, 1),
        _col_x(cm, 2) * _col_x(cm, 5) * _col_x(cm, 1),
        _col_x(cm, 5) * _col_x(cm, 1) * _col_x(cm, 4),
    ]
    z_stabs = [
        _row_z(cm, 1) * _row_z(cm, 3),
        _row_z(cm, 2) * _row_z(cm, 5) * _row_z(cm, 1),
        _row_z(cm, 5) * _row_z(cm, 1) * _row_z(cm, 4),
    ]
    return ReducedBasis(
        x_stabilizers=x_stabs,
        z_stabilizers=z_stabs,
        aux_pairs=list(zip(x_aux, z_aux)),
    )


def test_hand_listed_fixture_verifies():
    cm = CodeMatrix.from_matrix(M55)
    code = build_code(cm)
    report = verify_reduced_basis(code, hand_listed_basis(cm))
    assert report.ok, report.violations


def test_extraction_reproduces_hand_listed_fixture():
    cm = CodeMatrix.from_matrix(M55)
    rb = extract_reduced_basis(cm)
    manual = hand_listed_basis(cm)
    assert rb.x_stabilizers == manual.x_stabilizers
    assert rb.z_stabilizers == manual.z_stabilizers
    assert rb.aux_pairs == manual.aux_pairs


def _operator_strings(cm, rb) -> tuple[list, list, list]:
    labels = cm.qubit_labels()
    return ([s.to_string(labels) for s in rb.x_stabilizers],
            [s.to_string(labels) for s in rb.z_stabilizers],
            [(x.to_string(labels), z.to_string(labels)) for x, z in rb.aux_pairs])


def test_regression_pruned_cover_matrix():
    # dependency sets here require discarding free rows from the cover
    cm = CodeMatrix.from_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 1, 1]])
    rb = extract_reduced_basis(cm)
    assert verify_reduced_basis(build_code(cm), rb).ok
    assert _operator_strings(cm, rb) == (
        ["X[1,1] X[1,2] X[2,1] X[2,3] X[3,2] X[3,3] X[4,2] X[4,3]"],
        ["Z[1,1] Z[1,2] Z[2,1] Z[2,3] Z[3,2] Z[3,3]", "Z[3,2] Z[3,3] Z[4,2] Z[4,3]"],
        [("X[2,1] X[2,3]", "Z[2,3] Z[3,3]"),
         ("X[4,2] X[4,3]", "Z[3,3] Z[4,3]"),
         ("X[1,1] X[1,2]", "Z[1,2] Z[3,2]")],
    )


def test_regression_dependent_head_matrix():
    cm = CodeMatrix.from_matrix([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    rb = extract_reduced_basis(cm)
    assert verify_reduced_basis(build_code(cm), rb).ok
    assert _operator_strings(cm, rb) == ([], [], [
        ("X[1,1] X[1,3]", "Z[1,1] Z[3,1]"),
        ("X[2,2] X[2,3]", "Z[2,2] Z[3,2]"),
        ("X[2,2] X[2,3] X[3,2] X[3,3]", "Z[1,1] Z[1,3] Z[2,2] Z[2,3] Z[3,1] Z[3,2]"),
        ("X[1,1] X[1,3] X[2,2] X[2,3] X[3,1] X[3,2]", "Z[2,2] Z[2,3] Z[3,2] Z[3,3]"),
    ])


def test_regression_independent_leading_column():
    # column 2 participates in no dependency until the order is rotated
    cm = CodeMatrix.from_matrix([[1, 0, 1, 1, 1], [1, 1, 0, 1, 0], [0, 0, 1, 1, 1]])
    rb = extract_reduced_basis(cm)
    assert verify_reduced_basis(build_code(cm), rb).ok
    assert _operator_strings(cm, rb) == (
        ["X[1,3] X[1,4] X[2,2] X[2,4] X[3,3] X[3,4]",
         "X[1,4] X[1,5] X[2,2] X[2,4] X[3,4] X[3,5]"],
        [],
        [("X[3,3] X[3,4]", "Z[1,3] Z[3,3]"),
         ("X[3,4] X[3,5]", "Z[1,5] Z[3,5]"),
         ("X[1,1] X[1,4]", "Z[1,4] Z[2,4]"),
         ("X[1,1] X[1,4] X[2,2] X[2,4]", "Z[1,3] Z[1,5] Z[2,4] Z[3,3] Z[3,4] Z[3,5]"),
         ("X[2,1] X[2,2]", "Z[1,1] Z[1,3] Z[1,4] Z[1,5] Z[2,1] Z[3,3] Z[3,4] Z[3,5]")],
    )


def test_regression_first_dependent_row_below_head():
    # three rows below head row 2 meet column 2; its ZZ takes the first of them
    cm = CodeMatrix.from_matrix([[0, 1, 1], [1, 1, 0], [0, 1, 0], [1, 1, 1]])
    rb = extract_reduced_basis(cm)
    assert verify_reduced_basis(build_code(cm), rb).ok
    assert _operator_strings(cm, rb) == (
        [],
        ["Z[1,2] Z[1,3] Z[2,1] Z[2,2] Z[3,2] Z[4,1] Z[4,2] Z[4,3]"],
        [("X[2,1] X[2,2]", "Z[2,2] Z[3,2]"),
         ("X[4,1] X[4,2]", "Z[3,2] Z[4,2]"),
         ("X[1,2] X[1,3]", "Z[1,2] Z[3,2]"),
         ("X[4,1] X[4,3]", "Z[1,2] Z[1,3] Z[3,2] Z[4,3]")],
    )


def test_full_rank_matrix_has_no_stabilizers():
    cm = CodeMatrix.from_matrix([[1, 1], [0, 1]])
    rb = extract_reduced_basis(cm)
    assert len(rb.x_stabilizers) == 0 and len(rb.z_stabilizers) == 0
    assert rb.num_aux == cm.n - build_code(cm).k
    assert verify_reduced_basis(build_code(cm), rb).ok


@st.composite
def code_matrices(draw, max_dim=5):
    """Binary matrices up to max_dim x max_dim with no all-zero row or column."""
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    M = [[draw(st.integers(0, 1)) for _ in range(c)] for _ in range(r)]
    for i in range(r):  # fill an empty line with one entry at a drawn position
        if not any(M[i]):
            M[i][draw(st.integers(0, c - 1))] = 1
    for j in range(c):
        if not any(M[i][j] for i in range(r)):
            M[draw(st.integers(0, r - 1))][j] = 1
    return M


@settings(max_examples=200, deadline=None)
@given(code_matrices())
def test_property_suite_random_matrices(M):
    cm = CodeMatrix.from_matrix(M)
    code = build_code(cm)
    rb = extract_reduced_basis(cm)
    report = verify_reduced_basis(code, rb)
    assert report.ok, report.violations
    assert len(rb.x_stabilizers) == cm.shape[1] - code.k
    assert len(rb.z_stabilizers) == cm.shape[0] - code.k
    assert rb.num_aux == code.n - code.num_stabilizers - code.k


@st.composite
def labelled_vectors(draw):
    """Up to 9 vectors of up to 9 bits, and a random order of some of their labels."""
    bits = draw(st.integers(1, 9))
    vecs = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=9))
    return draw(st.lists(st.sampled_from(range(len(vecs))), unique=True)), vecs


@settings(max_examples=500, deadline=None)
@given(labelled_vectors())
def test_dependencies_match_the_flushing_search(case):
    order, vecs = case
    ref_order, new_order = list(order), list(order)
    assert list(_dependencies(new_order, vecs)) == list(dependencies_with_flush(ref_order, vecs))
    assert new_order == ref_order


def test_verifier_flags_broken_basis():
    cm = CodeMatrix.from_matrix([[1, 1], [1, 1]])
    code = build_code(cm)
    rb = extract_reduced_basis(cm)
    bad = ReducedBasis(
        x_stabilizers=rb.x_stabilizers,
        z_stabilizers=rb.z_stabilizers,
        aux_pairs=[(rb.aux_pairs[0][0], cm.parse("Z[1,1] Z[1,2]"))],
    )
    report = verify_reduced_basis(code, bad)
    assert not report.ok
    # i times a gauge element: recorded as a failed check, not raised
    phased = ReducedBasis(
        x_stabilizers=[cm.parse("Y[1,1] Z[1,1] X[1,2] X[2,1] X[2,2]")],
        z_stabilizers=rb.z_stabilizers,
        aux_pairs=rb.aux_pairs,
    )
    report = verify_reduced_basis(code, phased)
    assert ("membership", "x_stab[0]: phase +/-i") in report.violations


def _checks(*failed: tuple[str, str], counts: str) -> dict:
    """A verification dict whose every check passes except ``failed`` (name, detail)."""
    names = ["counts", "stabilizers_central", "canonical_commutation", "membership",
             "gauge_decomposition", "span_equality"]
    details = dict(failed)
    checks = [{"name": n, "ok": n not in details, "detail": details.get(n, "")} for n in names]
    checks[0]["detail"] = counts
    return {"passed": not failed, "checks": checks}


def test_verifier_details_for_anticommuting_stabilizer():
    cm = CodeMatrix.from_matrix([[1, 1], [1, 1]])
    rb = extract_reduced_basis(cm)
    bad = ReducedBasis([cm.parse("X[1,1] X[1,2]")], rb.z_stabilizers, rb.aux_pairs)
    assert verify_reduced_basis(build_code(cm), bad).to_dict() == _checks(
        ("stabilizers_central",
         "stab 0 vs pair 0; stab 0 vs gauge generator 2; stab 0 vs gauge generator 3"),
        counts="got (1, 1, 1), expected (1, 1, 1)",
    )


def test_verifier_details_for_non_canonical_pairs():
    cm = CodeMatrix.from_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    rb = extract_reduced_basis(cm)
    (x0, z0), (x1, z1) = rb.aux_pairs
    bad = ReducedBasis(rb.x_stabilizers, rb.z_stabilizers, [(x0, z1), (x1, z0)])
    assert verify_reduced_basis(build_code(cm), bad).to_dict() == _checks(
        ("canonical_commutation", "pair 0 commutes; pair 0 vs pair 1; pair 1 commutes"),
        counts="got (1, 1, 2), expected (1, 1, 2)",
    )
