"""Rewrite a gauge group as stabilizers plus canonical auxiliary qubit pairs.

Three passes over the defining matrix:

* row extraction   — eliminate linearly dependent rows, emitting one Z-type
  stabilizer per eliminated dependency plus auxiliary X/Z pairs anchored on
  the eliminated top row;
* column extraction — same for columns of the row-reduced matrix, emitting
  X-type stabilizers built from full original columns, with an
  anticommutation-repair loop against previously extracted operators;
* core extraction  — auxiliary pairs from adjacent qubit pairs of the
  residual full-rank matrix, paired by symplectic Gram-Schmidt.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .codes import CodeMatrix, SubsystemCode, _pauli_on
from .pauli import (
    NotInSpanError,
    PauliOp,
    PhaseConsistencyError,
    express_in_basis,
    gf2_rank,
    gf2_solve,
)


class ExtractionError(Exception):
    pass


@dataclass
class ReducedBasis:
    x_stabilizers: list[PauliOp]
    z_stabilizers: list[PauliOp]
    aux_pairs: list[tuple[PauliOp, PauliOp]]

    @property
    def num_aux(self) -> int:
        return len(self.aux_pairs)

    def aux_x(self) -> list[PauliOp]:
        return [p[0] for p in self.aux_pairs]

    def aux_z(self) -> list[PauliOp]:
        return [p[1] for p in self.aux_pairs]


@dataclass
class VerificationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(c[1] for c in self.checks)

    @property
    def violations(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def to_dict(self) -> dict:
        return {
            "passed": self.ok,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
        }


class _State:
    """Mutable bookkeeping shared by the three extraction passes."""

    def __init__(self, cm: CodeMatrix):
        self.cm = cm
        self.n = cm.n
        self.rows = list(range(cm.shape[0]))       # current row order (labels)
        self.cols = list(range(cm.shape[1]))       # current column order
        self.x_stabs: list[PauliOp] = []
        self.z_stabs: list[PauliOp] = []
        self.aux_x: list[PauliOp] = []
        self.aux_z: list[PauliOp] = []

    # -- views of the current submatrix, as GF(2) vectors ------------------
    def row_vec(self, r: int) -> int:
        return self.cm.row_masks[r] & sum(1 << c for c in self.cols)

    def col_vec(self, c: int) -> int:
        return self.cm.col_masks[c] & sum(1 << r for r in self.rows)

    def entry(self, r: int, c: int) -> int:
        return int(self.cm.matrix[r, c])

    def qubit(self, r: int, c: int) -> int:
        return self.cm.index[(r, c)]

    def pauli(self, letter: str, coords) -> PauliOp:
        return _pauli_on(self.cm, letter, [self.qubit(r, c) for r, c in coords])

    # -- anticommutation repair against the accumulated pairs --------------
    def repair(self, op: PauliOp, against: str) -> PauliOp:
        """Multiply in partner operators until ``op`` commutes with every
        accumulated auxiliary of type ``against`` ('z' fixes an X-type op).
        A single pass suffices: each partner flips exactly its own pairing."""
        others = self.aux_z if against == "z" else self.aux_x
        partners = self.aux_x if against == "z" else self.aux_z
        for other, partner in zip(others, partners):
            if not op.commutes(other):
                op = op * partner
        for other in others:
            if not op.commutes(other):  # pragma: no cover
                raise ExtractionError("anticommutation repair did not reach a fixed point")
        return op

    def add_pair(self, xop: PauliOp, zop: PauliOp, stage: str, detail: str):
        if xop.commutes(zop):
            raise ExtractionError(f"{stage}: auxiliary pair fails to anticommute ({detail})")
        self.aux_x.append(xop)
        self.aux_z.append(zop)


def _minimal_cover_with_free(target: int, candidates: list[int], free: list[int]):
    """Smallest (size, then lex) subset D of ``candidates`` such that
    target + sum(D) lies in span(free).  Returns (D indices, free subset)."""
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            acc = target
            for i in combo:
                acc ^= candidates[i]
            used = gf2_solve(free, acc)
            if used is not None:
                return combo, tuple(i for i in range(len(free)) if used >> i & 1)
    raise NotInSpanError("top row has no dependency over the remaining rows")


def _row_like_extraction(st: _State, axis: str):
    """Row extraction (axis='row') or its column-stage mirror (axis='col').

    For columns the emitted stabilizer is X-type and built from the full
    ORIGINAL columns; auxiliary Z operators pair qubits within the leading
    column and the X partners run along rows with repair.
    """
    order, vec = (st.rows, st.row_vec) if axis == "row" else (st.cols, st.col_vec)

    cur = 0  # length of the leading segment currently under consideration

    def mat(labels):
        return [vec(l) for l in labels]

    while gf2_rank(mat(order)) < len(order):
        if cur > 0:
            head, rest = order[:cur], order[cur:]
            if gf2_rank(mat(head)) + gf2_rank(mat(rest)) == gf2_rank(mat(order)):
                # leading segment can no longer join a dependency: flush it
                order[:] = rest + head
                cur = 0
        if cur == 0:
            cur = 1
        top = order[0]
        others = order[1:cur]
        rest = order[cur:]
        try:
            D, used_free = _minimal_cover_with_free(
                vec(top), [vec(l) for l in rest], [vec(l) for l in others]
            )
        except NotInSpanError:
            # leading label is independent of everything else: it belongs to
            # the full-rank core, so rotate it to the bottom and retry
            order[:] = order[1:] + [top]
            cur = max(cur - 1, 0)
            continue
        dep_set = [rest[i] for i in D] + [top] + [others[i] for i in used_free]
        unused = [o for i, o in enumerate(others) if i not in used_free]
        # reorder: new dependency rows on top, demoted leftovers just below
        moved = [rest[i] for i in D]
        tail = [l for l in rest if l not in moved]
        order[:] = moved + [top] + [others[i] for i in used_free] + unused + tail
        cur = len(dep_set)

        if axis == "row":
            qubits = [(r, c) for r in dep_set for c in st.cols if st.entry(r, c)]
            st.z_stabs.append(st.pauli("Z", qubits))
        else:
            # full original columns, then repair (normally a no-op)
            qubits = [(r, c) for c in dep_set for r in range(st.cm.shape[0]) if st.entry(r, c)]
            stab = st.repair(st.pauli("X", qubits), against="z")
            st.x_stabs.append(stab)

        head = order[0]
        if axis == "row":
            support = [c for c in st.cols if st.entry(head, c)]
            first, others_q = support[0], support[1:]
            new_x = [st.pauli("X", [(head, first), (head, c)]) for c in others_q]
            new_z = []
            for c in others_q:
                below = next(
                    (r for r in order[1:cur] if st.entry(r, c)), None
                )
                if below is None:
                    raise ExtractionError(
                        f"no qubit below ({head + 1},{c + 1}) within the current row set"
                    )
                new_z.append(st.pauli("Z", [(head, c), (below, c)]))
            for xop, zop, c in zip(new_x, new_z, others_q):
                xop = st.repair(xop, against="z")
                zop = st.repair(zop, against="x")
                st.add_pair(xop, zop, "row", f"row {head + 1}, column {c + 1}")
        else:
            support = [r for r in st.rows if st.entry(r, head)]
            first, others_q = support[0], support[1:]
            for r in others_q:
                zop = st.repair(st.pauli("Z", [(first, head), (r, head)]), against="x")
                nxt = next((c for c in st.cols[1:] if c != head and st.entry(r, c)), None)
                if nxt is None:
                    raise ExtractionError(
                        f"no qubit right of ({r + 1},{head + 1}) within the current matrix"
                    )
                xop = st.repair(st.pauli("X", [(r, head), (r, nxt)]), against="z")
                st.add_pair(xop, zop, "column", f"column {head + 1}, row {r + 1}")

        # remove the processed head from the matrix
        order.pop(0)
        cur -= 1


def _core_extraction(st: _State):
    """Auxiliary pairs from the residual full-rank matrix.

    Candidates are ZZ on column-adjacent qubit pairs and XX on row-adjacent
    pairs; pairing and repair follow symplectic Gram-Schmidt in candidate
    order (the pseudocode's in-order pairing, made total)."""
    z_cands = []
    for c in st.cols:
        hosts = [r for r in st.rows if st.entry(r, c)]
        for a, b in zip(hosts, hosts[1:]):
            z_cands.append((st.pauli("Z", [(a, c), (b, c)]), f"column {c + 1}, rows {a + 1},{b + 1}"))
    x_cands = []
    for r in st.rows:
        hosts = [c for c in st.cols if st.entry(r, c)]
        for a, b in zip(hosts, hosts[1:]):
            x_cands.append((st.pauli("X", [(r, a), (r, b)]), f"row {r + 1}, columns {a + 1},{b + 1}"))
    if len(z_cands) != len(x_cands):
        raise ExtractionError("core candidate counts differ; matrix not fully reduced")

    z_ops = [(st.repair(z, against="x"), d) for z, d in z_cands]
    x_ops = [(st.repair(x, against="z"), d) for x, d in x_cands]
    while z_ops:
        zop, zdet = z_ops.pop(0)
        hit = next((i for i, (x, _) in enumerate(x_ops) if not x.commutes(zop)), None)
        if hit is None:
            raise ExtractionError("core extraction found no anticommuting partner")
        xop, xdet = x_ops.pop(hit)
        x_ops = [(x * xop if not x.commutes(zop) else x, d) for x, d in x_ops]
        z_ops = [(z * zop if not z.commutes(xop) else z, d) for z, d in z_ops]
        st.add_pair(xop, zop, "core", f"{xdet} / {zdet}")


def extract_reduced_basis(cm: CodeMatrix) -> ReducedBasis:
    st = _State(cm)
    _row_like_extraction(st, "row")
    _row_like_extraction(st, "col")
    _core_extraction(st)

    m_r, m_c = cm.shape
    k = gf2_rank(cm.row_masks)
    expect_aux = cm.n - (m_r - k) - (m_c - k) - k
    if (len(st.z_stabs), len(st.x_stabs), len(st.aux_x)) != (m_r - k, m_c - k, expect_aux):
        raise ExtractionError(
            f"operator counts off: got {len(st.x_stabs)} X-stab / {len(st.z_stabs)} Z-stab / "
            f"{len(st.aux_x)} pairs, expected {m_c - k}/{m_r - k}/{expect_aux}"
        )
    return ReducedBasis(
        x_stabilizers=st.x_stabs,
        z_stabilizers=st.z_stabs,
        aux_pairs=list(zip(st.aux_x, st.aux_z)),
    )


def _sign_failure(op: PauliOp, basis: list[PauliOp], missing: str) -> str | None:
    """None when ``op`` is +1 times a product of ``basis``, else the reason."""
    try:
        _, sign = express_in_basis(op, basis)
    except NotInSpanError:
        return missing
    except PhaseConsistencyError:
        return "phase +/-i"
    return None if sign == 1 else f"sign {sign}"


def verify_reduced_basis(code: SubsystemCode, rb: ReducedBasis) -> VerificationReport:
    """Executable check of the commutation relations, gauge-group membership,
    decomposition of the gauge generators, span equality and counts."""
    rep = VerificationReport()
    cm = code.matrix
    m_r, m_c = cm.shape
    k = code.k
    expect = (m_c - k, m_r - k, cm.n - (m_r - k) - (m_c - k) - k)
    got = (len(rb.x_stabilizers), len(rb.z_stabilizers), rb.num_aux)
    rep.add("counts", got == expect, f"got {got}, expected {expect}")

    stabs = list(rb.x_stabilizers) + list(rb.z_stabilizers)
    aux = rb.aux_pairs
    ok = True
    bad = []
    for i, s in enumerate(stabs):
        for j, t in enumerate(stabs):
            if j > i and not s.commutes(t):
                ok, bad = False, bad + [f"stab {i} vs stab {j}"]
        for j, (xa, za) in enumerate(aux):
            if not s.commutes(xa) or not s.commutes(za):
                ok, bad = False, bad + [f"stab {i} vs pair {j}"]
        for g in code.gauge_generators:
            if not s.commutes(g):
                ok, bad = False, bad + [f"stab {i} vs gauge generator"]
    rep.add("stabilizers_central", ok, "; ".join(bad))

    ok = True
    bad = []
    for i, (xi, zi) in enumerate(aux):
        if xi.commutes(zi):
            ok, bad = False, bad + [f"pair {i} commutes"]
        for j, (xj, zj) in enumerate(aux):
            if j <= i:
                continue
            if not (xi.commutes(xj) and zi.commutes(zj) and xi.commutes(zj) and zi.commutes(xj)):
                ok, bad = False, bad + [f"pair {i} vs pair {j}"]
    rep.add("canonical_commutation", ok, "; ".join(bad))

    # every element of rb lies in the gauge group with sign +1
    x_basis = list(code.x_gauge)
    z_basis = list(code.z_gauge)
    bad = []
    for name, op, basis in (
        [(f"x_stab[{i}]", s, x_basis) for i, s in enumerate(rb.x_stabilizers)]
        + [(f"z_stab[{i}]", s, z_basis) for i, s in enumerate(rb.z_stabilizers)]
        + [(f"aux_x[{i}]", p[0], x_basis) for i, p in enumerate(aux)]
        + [(f"aux_z[{i}]", p[1], z_basis) for i, p in enumerate(aux)]
    ):
        why = _sign_failure(op, basis, "outside gauge group")
        if why:
            bad.append(f"{name}: {why}")
    rep.add("membership", not bad, "; ".join(bad))

    # every gauge generator decomposes over same-type rb operators, sign +1
    bad = []
    for label, gens, basis in (
        ("X gauge", code.x_gauge, list(rb.x_stabilizers) + rb.aux_x()),
        ("Z gauge", code.z_gauge, list(rb.z_stabilizers) + rb.aux_z()),
    ):
        for i, g in enumerate(gens):
            why = _sign_failure(g, basis, "no decomposition")
            if why:
                bad.append(f"{label} {i}: {why}")
    rep.add("gauge_decomposition", not bad, "; ".join(bad))

    G = [g.x | g.z << g.n for g in code.gauge_generators]
    R = [op.x | op.z << op.n for op in stabs + rb.aux_x() + rb.aux_z()]
    span_equal = gf2_rank(G) == gf2_rank(R) == gf2_rank(G + R)
    rep.add("span_equality", span_equal, "" if span_equal else "generated groups differ")
    return rep
