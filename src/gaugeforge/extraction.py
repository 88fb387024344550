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
        self.rows = list(range(cm.shape[0]))       # current row order (labels)
        self.cols = list(range(cm.shape[1]))       # current column order
        self.x_stabs: list[PauliOp] = []
        self.z_stabs: list[PauliOp] = []
        self.aux_x: list[PauliOp] = []
        self.aux_z: list[PauliOp] = []

    def entry(self, r: int, c: int) -> int:
        return self.cm.row_masks[r] >> c & 1

    def qubit(self, r: int, c: int) -> int:
        return self.cm.index[(r, c)]

    def pauli(self, letter: str, coords) -> PauliOp:
        return _pauli_on(self.cm, letter, [self.qubit(r, c) for r, c in coords])

    # -- anticommutation repair against the accumulated pairs --------------
    def repair(self, op: PauliOp) -> PauliOp:
        """Multiply in partner operators until ``op`` commutes with every
        accumulated auxiliary of the other type: the Z ones for an X-type op,
        else the X ones.  A single pass suffices: each partner flips exactly
        its own pairing."""
        others, partners = (self.aux_z, self.aux_x) if op.z == 0 else (self.aux_x, self.aux_z)
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
    target + sum(D) lies in span(free).  Returns (D indices, free subset).
    Such a D exists exactly when target lies in span(free + candidates)."""
    if gf2_solve(free + candidates, target) is None:
        raise NotInSpanError("label has no dependency over the remaining labels")
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), size):
            acc = target
            for i in combo:
                acc ^= candidates[i]
            used = gf2_solve(free, acc)
            if used is not None:
                return combo, tuple(i for i in range(len(free)) if used >> i & 1)
    raise ExtractionError("dependency search found no cover inside the span")  # pragma: no cover


def _dependencies(order: list[int], vec):
    """Yield the dependencies among the labels ``order``, one per unit of
    nullity of their vectors ``vec[label]``.  Each one leads ``order``,
    reordered in place; its first label, the head, lies in the span of the
    others and leaves ``order`` when the caller resumes."""
    cur = 1  # length of the leading segment: the top label plus the free ones
    for _ in range(len(order) - gf2_rank([vec[l] for l in order])):
        while True:
            top, others, rest = order[0], order[1:cur], order[cur:]
            try:
                D, used_free = _minimal_cover_with_free(
                    vec[top], [vec[l] for l in rest], [vec[l] for l in others]
                )
                break
            except NotInSpanError:
                # top is independent of every other label: it belongs to the
                # full-rank core, so rotate it to the bottom and retry
                order[:] = order[1:] + [top]
                cur = max(cur - 1, 1)
        moved = [rest[i] for i in D]
        dep_set = moved + [top] + [others[i] for i in used_free]
        unused = [o for i, o in enumerate(others) if i not in used_free]
        # reorder: new dependency labels on top, demoted leftovers just below
        order[:] = dep_set + unused + [l for l in rest if l not in moved]
        yield dep_set
        order.pop(0)  # the head leaves
        cur = max(len(dep_set) - 1, 1)


def _row_extraction(st: _State):
    """Per row dependency: a Z-type stabilizer, then for each later qubit of
    the head row an XX along that row and a ZZ down to a dependent row."""
    for deps in _dependencies(st.rows, st.cm.row_masks):
        st.z_stabs.append(st.pauli("Z", [(r, c) for r in deps for c in st.cols if st.entry(r, c)]))
        head = deps[0]
        support = [c for c in st.cols if st.entry(head, c)]
        first = support[0]
        for c in support[1:]:
            below = next((r for r in deps[1:] if st.entry(r, c)), None)
            if below is None:
                raise ExtractionError(
                    f"no qubit below ({head + 1},{c + 1}) within the current row set"
                )
            xop = st.repair(st.pauli("X", [(head, first), (head, c)]))
            zop = st.pauli("Z", [(head, c), (below, c)])
            st.add_pair(xop, zop, "row", f"row {head + 1}, column {c + 1}")


def _column_extraction(st: _State):
    """Per column dependency of the row-reduced matrix: an X-type stabilizer,
    then for each later qubit of the head column a ZZ down it and an XX right."""
    rows = sum(1 << r for r in st.rows)
    for deps in _dependencies(st.cols, [m & rows for m in st.cm.col_masks]):
        # full original columns: a stabilizer, so it commutes with every Z auxiliary
        qubits = [(r, c) for c in deps for r in range(st.cm.shape[0]) if st.entry(r, c)]
        st.x_stabs.append(st.pauli("X", qubits))
        head = deps[0]
        support = [r for r in st.rows if st.entry(r, head)]
        first = support[0]
        for r in support[1:]:
            zop = st.repair(st.pauli("Z", [(first, head), (r, head)]))
            nxt = next((c for c in st.cols[1:] if st.entry(r, c)), None)  # cols[0] is the head
            if nxt is None:
                raise ExtractionError(
                    f"no qubit right of ({r + 1},{head + 1}) within the current matrix"
                )
            xop = st.repair(st.pauli("X", [(r, head), (r, nxt)]))
            st.add_pair(xop, zop, "column", f"column {head + 1}, row {r + 1}")


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

    z_ops = [(st.repair(z), d) for z, d in z_cands]
    x_ops = [(st.repair(x), d) for x, d in x_cands]
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
    _row_extraction(st)
    _column_extraction(st)
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
    bad = []
    for i, s in enumerate(stabs):
        for j, t in enumerate(stabs[i + 1:], i + 1):
            if not s.commutes(t):
                bad.append(f"stab {i} vs stab {j}")
        for j, (xa, za) in enumerate(aux):
            if not s.commutes(xa) or not s.commutes(za):
                bad.append(f"stab {i} vs pair {j}")
        for j, g in enumerate(code.gauge_generators):
            if not s.commutes(g):
                bad.append(f"stab {i} vs gauge generator {j}")
    rep.add("stabilizers_central", not bad, "; ".join(bad))

    bad = []
    for i, (xi, zi) in enumerate(aux):
        if xi.commutes(zi):
            bad.append(f"pair {i} commutes")
        for j, (xj, zj) in enumerate(aux[i + 1:], i + 1):
            if not (xi.commutes(xj) and zi.commutes(zj) and xi.commutes(zj) and zi.commutes(xj)):
                bad.append(f"pair {i} vs pair {j}")
    rep.add("canonical_commutation", not bad, "; ".join(bad))

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
    bad = [] if gf2_rank(G) == gf2_rank(R) == gf2_rank(G + R) else ["generated groups differ"]
    rep.add("span_equality", not bad, "; ".join(bad))
    return rep
