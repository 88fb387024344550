"""Survey of two-local generating sets for the [[16,2,3]] code (matrix M55).

The criterion-3 literature pair (e0, separation) = (-13.83, 0.33) belongs to
one set of two-local gauge generators, and the paper's abstract does not say
which.  Every set surveyed here spans the same gauge group as the code's own
nearest-neighbor generators, so one reduced basis serves them all and only
the Hamiltonian H = -sum_G G (unit weights) changes.  A set *reaches* the
cited pair when both of its values lie within 0.01 of it, the window the
criterion-3 test once asserted.

Families:

* orders      -- nearest-neighbor sets of every row and column order of M55
                 (5! x 5! orders); counted once per distinct set.
* stars       -- one star per row and per column (one qubit joined to every
                 other qubit of its line), with the centers the worked
                 reduction in tests/test_extraction.py pins kept fixed and
                 every other center varied.
* conventions -- single rules applied in the written order: nearest-neighbor,
                 all-pairs, star on the first entry, ring, and the two
                 nearest-neighbor/all-pairs mixtures.

For each family the script prints the number of sets, how many reach the
cited pair, and, as the chance level, how many sets the same window holds
when it is centered on a typical set's own pair (median and quartiles over
the family).  DECISIONS.md records the output.

    PYTHONPATH=src python3 scripts/criterion3_generator_sets.py [FAMILY ...]

The orders family computes 3,600 separations (64 dense 256 x 256 sectors
each) and takes about 20 minutes on two cores; the others take under a
minute.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os

# one BLAS thread, so the recorded values are reproducible: the sector
# eigenvalues differ in their last bits between BLAS thread counts
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from gaugeforge.codes import CodeMatrix, build_code  # noqa: E402
from gaugeforge.extraction import extract_reduced_basis  # noqa: E402
from gaugeforge.pauli import PauliOp  # noqa: E402
from gaugeforge.spectra import WeightSpec, energy_separation  # noqa: E402

M55 = [
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [1, 1, 1, 1, 0],
]
CITED = (-13.83, 0.33)
WINDOW = 0.01

CM = CodeMatrix.from_matrix(M55)
BASE = build_code(CM)
RB = extract_reduced_basis(CM)
ROWS = [CM.row_qubits(i) for i in range(CM.shape[0])]
COLS = [CM.col_qubits(j) for j in range(CM.shape[1])]


def qubit(row: int, col: int) -> int:
    """Qubit at the 1-based matrix entry (row, col)."""
    return CM.coord_map[(row, col)]


def path(qs) -> list[tuple[int, int]]:
    return list(zip(qs, qs[1:]))


def star(qs, center: int) -> list[tuple[int, int]]:
    return [(center, q) for q in qs if q != center]


def all_pairs(qs) -> list[tuple[int, int]]:
    return list(itertools.combinations(qs, 2))


def ring(qs) -> list[tuple[int, int]]:
    return sorted({tuple(sorted(e)) for e in path(qs) + [(qs[-1], qs[0])]})


def separation(x_edges, z_edges) -> tuple[float, float]:
    """(e0_code, separation) of H = -sum XX(x_edges) - sum ZZ(z_edges)."""
    n = CM.n
    code = dataclasses.replace(
        BASE,
        x_gauge=tuple(PauliOp(n, (1 << a) | (1 << b), 0, 0) for a, b in x_edges),
        z_gauge=tuple(PauliOp(n, 0, (1 << a) | (1 << b), 0) for a, b in z_edges),
    )
    rep = energy_separation(code, RB, WeightSpec.uniform(1.0, len(code.gauge_generators)))
    return rep.e0_code, rep.separation


def reaches(pair, target=CITED) -> bool:
    return abs(pair[0] - target[0]) < WINDOW and abs(pair[1] - target[1]) < WINDOW


def order_sets() -> list[tuple[list, list]]:
    """Distinct nearest-neighbor sets over all row and column orders.

    Row edges follow the column order and column edges the row order, so the
    distinct sets are the distinct row-edge sets times the distinct
    column-edge sets.
    """
    def distinct(lines, axis):
        # axis: the coordinate (0 row, 1 column) that orders a line's qubits
        seen = {}
        for order in itertools.permutations(range(5)):
            rank = {v: i for i, v in enumerate(order)}
            edges = sorted(tuple(sorted(e)) for qs in lines for e in path(
                sorted(qs, key=lambda q: rank[CM.coords[q][axis]])))
            seen.setdefault(tuple(edges), edges)
        return list(seen.values())

    return list(itertools.product(distinct(ROWS, 1), distinct(COLS, 0)))


def star_sets() -> list[tuple[list, list]]:
    """Stars with the worked reduction's centers kept where it pins them.

    The auxiliary operators of hand_listed_basis put row centers at [1,5],
    [2,1], [3,2], [4,1] and column centers at [1,4], [5,3], [1,5]; column 2
    holds only the pair [5,2]-[1,2], so its center is [1,2] or [5,2].
    Row 5 and column 1 carry no auxiliary operator, so any center goes.
    """
    x_fixed = [e for r, c in ((1, 5), (2, 1), (3, 2), (4, 1))
               for e in star(ROWS[r - 1], qubit(r, c))]
    z_fixed = [e for r, c in ((1, 4), (5, 3), (1, 5))
               for e in star(COLS[c - 1], qubit(r, c))]
    sets = []
    for row5, col1, col2 in itertools.product(
            ROWS[4], COLS[0], (qubit(1, 2), qubit(5, 2))):
        sets.append((x_fixed + star(ROWS[4], row5),
                     z_fixed + star(COLS[0], col1) + star(COLS[1], col2)))
    return sets


def convention_sets() -> dict[str, tuple[list, list]]:
    def rule(row_rule, col_rule):
        return ([e for qs in ROWS for e in row_rule(qs)],
                [e for qs in COLS for e in col_rule(qs)])

    def first(qs):
        return star(qs, qs[0])

    return {
        "nearest-neighbor": rule(path, path),
        "all-pairs": rule(all_pairs, all_pairs),
        "star on first entry": rule(first, first),
        "ring": rule(ring, ring),
        "rows nearest-neighbor, columns all-pairs": rule(path, all_pairs),
        "rows all-pairs, columns nearest-neighbor": rule(all_pairs, path),
    }


def summarize(name: str, pairs: list[tuple[float, float]]):
    values = np.array(pairs)
    hits = [p for p in pairs if reaches(p)]
    held = [sum(reaches(q, p) for q in pairs) for p in pairs]
    q1, med, q3 = np.percentile(held, [25, 50, 75])
    e0 = np.unique(np.round(values[:, 0], 6))
    print(f"{name}: {len(pairs)} sets, {len(hits)} reach {CITED}; a window on a "
          f"set's own pair holds median {med:g} (quartiles {q1:g}, {q3:g}) sets")
    print(f"  e0: {e0.size} distinct values in [{e0.min():.4f}, {e0.max():.4f}]; "
          f"separation in [{values[:, 1].min():.4f}, {values[:, 1].max():.4f}]")
    for p in sorted({(round(e, 4), round(s, 4)) for e, s in hits}):
        n = sum(1 for e, s in hits if (round(e, 4), round(s, 4)) == p)
        print(f"  reaching pair ({p[0]:.4f}, {p[1]:.4f}): {n} sets")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("families", nargs="*", default=["conventions", "stars", "orders"],
                    choices=["conventions", "stars", "orders"])
    args = ap.parse_args(argv)
    for family in args.families:
        if family == "conventions":
            for name, (xe, ze) in convention_sets().items():
                e0, sep = separation(xe, ze)
                print(f"conventions: {name}: e0={e0:.4f} sep={sep:.4f} "
                      f"{'reaches' if reaches((e0, sep)) else 'misses'} {CITED}")
        elif family == "stars":
            summarize("stars", [separation(xe, ze) for xe, ze in star_sets()])
        else:
            summarize("orders", [separation(xe, ze) for xe, ze in order_sets()])


if __name__ == "__main__":
    main()
