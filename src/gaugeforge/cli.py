"""Command-line front end: code reports, basis reduction, spectra, simulations.

Exit codes: 0 success, 1 computation failure (verification or convergence),
2 input error (missing or malformed files and flags).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import codes, extraction, opensys, spectra
from .codes import CodeMatrix, build_code, combined_matrix
from .pauli import PauliError, gf2_rank

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


class ComputeError(Exception):
    pass


def _read_matrix(path: str) -> tuple[CodeMatrix, str]:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cm = codes.load_code_matrix(raw.decode("utf-8"))
    except (UnicodeDecodeError, PauliError, codes.CodeError, ValueError) as exc:
        raise InputError(f"cannot parse matrix file {path}: {exc}") from exc
    try:
        codes.check_size(cm)
    except codes.CodeError as exc:
        raise InputError(f"matrix file {path}: {exc}") from exc
    return cm, digest


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must be a JSON object")
    return cfg


def _resolve(args, cfg: dict, keys: list[str]) -> dict:
    """Materialize the full config: file values fill in unset flags."""
    out = {}
    for key in keys:
        flag = getattr(args, key.replace("-", "_"), None)
        out[key] = cfg.get(key) if flag is None and key in cfg else flag
    return out


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _parse_weights(spec_str: str, code) -> spectra.WeightSpec:
    if spec_str is None:
        spec_str = "uniform:1"
    try:
        kind, _, rest = spec_str.partition(":")
        if kind == "uniform":
            return spectra.WeightSpec.uniform(float(rest), len(code.gauge_generators))
        if kind == "xz":
            lam_s, eta_s = rest.split(",")
            return spectra.WeightSpec.xz(float(lam_s), float(eta_s),
                                         len(code.x_gauge), len(code.z_gauge))
        if kind == "file":
            with open(rest) as f:
                values = json.load(f)
            return spectra.WeightSpec.explicit(values)
    except (ValueError, TypeError, OSError, json.JSONDecodeError, spectra.SpectraError) as exc:
        raise InputError(f"bad --weights {spec_str!r}: {exc}") from exc
    raise InputError(f"bad --weights {spec_str!r}: expected uniform:L, xz:L,E or file:PATH")


def _parse_bath(spec_str: str | None) -> opensys.BathSpec:
    if spec_str is not None and not isinstance(spec_str, str):
        raise InputError(f"bad --bath {spec_str!r}: expected chi=..,omega_c=..,omega_T=..")
    kwargs = {}
    if spec_str:
        for item in spec_str.split(","):
            key, _, val = item.partition("=")
            if key not in ("chi", "omega_c", "omega_T") or not val:
                raise InputError(f"bad --bath item {item!r}")
            try:
                kwargs[key] = float(val)
            except ValueError as exc:
                raise InputError(f"bad --bath item {item!r}: {exc}") from exc
    try:
        return opensys.BathSpec(**kwargs)
    except opensys.OpenSysError as exc:
        raise InputError(f"bad --bath: {exc}") from exc


def _reduced_basis_report(cm: CodeMatrix, rb: extraction.ReducedBasis) -> dict:
    labels = cm.qubit_labels()
    return {
        "x_stabilizers": [s.to_string(labels) for s in rb.x_stabilizers],
        "z_stabilizers": [s.to_string(labels) for s in rb.z_stabilizers],
        "aux_pairs": [[x.to_string(labels), z.to_string(labels)] for x, z in rb.aux_pairs],
    }


def _reduced_basis_from_report(cm: CodeMatrix, rep: dict) -> extraction.ReducedBasis:
    try:
        return extraction.ReducedBasis(
            x_stabilizers=[cm.parse(s) for s in rep["x_stabilizers"]],
            z_stabilizers=[cm.parse(s) for s in rep["z_stabilizers"]],
            aux_pairs=[(cm.parse(x), cm.parse(z)) for x, z in rep["aux_pairs"]],
        )
    except (KeyError, TypeError, ValueError, PauliError) as exc:
        raise InputError(f"malformed reduced-basis file: {exc}") from exc


def cmd_code_info(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)
    resolved = {"matrix": args.matrix, "all_pairs": bool(args.all_pairs)}
    code = build_code(cm, all_pairs=args.all_pairs)
    report = code.to_report()
    report["config"] = resolved
    report["matrix_sha256"] = digest
    _emit(report, args.out)
    return EXIT_OK


def cmd_reduce(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)
    code = build_code(cm)
    try:
        rb = extraction.extract_reduced_basis(cm)
    except extraction.ExtractionError as exc:
        raise ComputeError(f"extraction failed: {exc}") from exc
    verification = extraction.verify_reduced_basis(code, rb)
    report = _reduced_basis_report(cm, rb)
    report["verification"] = verification.to_dict()
    report["config"] = {"matrix": args.matrix}
    report["matrix_sha256"] = digest
    _emit(report, args.out)
    if not verification.ok:
        sys.stderr.write("verification failed: "
                         + "; ".join(n for n, _ in verification.violations) + "\n")
        return EXIT_COMPUTE
    return EXIT_OK


def cmd_spectrum(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)
    code = build_code(cm, all_pairs=args.all_pairs)
    w = _parse_weights(args.weights, code)
    try:  # a code past the full-space limit is refused before any sector work
        full = spectra.build_full_hamiltonian(code, w) if args.full_check else None
    except spectra.SpectraError as exc:
        raise ComputeError(str(exc)) from exc
    if args.basis:
        try:
            with open(args.basis) as f:
                rb = _reduced_basis_from_report(cm, json.load(f))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot load --basis {args.basis}: {exc}") from exc
        failed = extraction.verify_reduced_basis(code, rb).violations
        if failed:
            raise InputError(f"--basis {args.basis} is not a reduced basis of this code: "
                             + "; ".join(n for n, _ in failed))
    else:
        try:
            rb = extraction.extract_reduced_basis(cm)
        except extraction.ExtractionError as exc:
            raise ComputeError(f"extraction failed: {exc}") from exc
    try:
        sep = spectra.energy_separation(code, rb, w)
        e_full = None if full is None else spectra.full_ground_energy(full)
    except spectra.SpectraError as exc:
        raise ComputeError(str(exc)) from exc
    report = sep.to_dict()
    report["sectors"].sort(key=lambda s: s["sector"], reverse=True)
    report["config"] = {
        "matrix": args.matrix,
        "weights": args.weights or "uniform:1",
        "all_pairs": bool(args.all_pairs),
        "basis": args.basis,
    }
    report["matrix_sha256"] = digest
    if full is not None:
        report["full_ground_energy"] = e_full
    _emit(report, args.out)
    if args.sector_table:
        rows = sorted(sep.ground_energies.items(), reverse=True)
        with open(args.sector_table, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow([f"s{i + 1}" for i in range(len(rows[0][0]))] + ["ground_energy"])
            for sector, energy in rows:
                writer.writerow(list(sector) + [repr(energy)])
    return EXIT_OK


SIM_KEYS = ["initial", "blocks", "gamma", "t-max", "samples", "bath", "metrics"]


def cmd_simulate(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)
    r = _resolve(args, cfg, SIM_KEYS)
    initial = r["initial"] or "plusL"
    blocks = r["blocks"] or "together"
    gammas = r["gamma"] if r["gamma"] is not None else "1.2"
    try:
        # through str, as float(True) is 1.0 and int(2.5) truncates
        t_max = float(str(r["t-max"])) if r["t-max"] is not None else 5e-8
        samples = int(str(r["samples"])) if r["samples"] is not None else 26
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad --t-max or --samples: {exc}") from exc
    metrics = r["metrics"] or "logical"
    if initial not in ("plusL", "bell") or blocks not in ("together", "separate"):
        raise InputError("--initial must be plusL|bell, --blocks together|separate")
    if metrics not in ("logical", "physical"):
        raise InputError("--metrics must be logical or physical")
    if not 0 < t_max < np.inf or samples < 2:
        raise InputError("--t-max must be positive and finite and --samples at least 2")
    bath = _parse_bath(r["bath"])
    try:
        gamma_list = sorted(float(g) for g in str(gammas).split(","))
    except ValueError as exc:
        raise InputError(f"bad --gamma {gammas!r}: {exc}") from exc

    code = build_code(cm)
    rho_L = opensys.PLUS if initial == "plusL" else opensys.BELL
    t_grid = np.linspace(0.0, t_max, samples)
    k = 2 * code.k if blocks == "separate" else code.k
    need = 1 if initial == "plusL" else 2
    if k != need:
        raise InputError(f"--initial {initial} needs {need} logical qubit(s), "
                         f"but the code with --blocks {blocks} has {k}")
    want_eof = metrics == "logical" and k == 2
    if blocks == "separate":
        composite = build_code(combined_matrix([cm, cm]))

    rows = []
    for gamma in gamma_list:
        try:
            if blocks == "together":
                traj = opensys.simulate_code(code, rho_L, gamma, bath, t_grid, metrics=metrics)
            else:
                traj = opensys.simulate_two_blocks(code, composite, rho_L, gamma, bath,
                                                   t_grid, metrics=metrics)
        except opensys.OpenSysError as exc:
            raise ComputeError(f"simulation failed at gamma={gamma}: {exc}") from exc
        for m in traj.metrics:
            row = [repr(gamma), repr(m["t"]),
                   repr(m["trace_distance"]), repr(m["purity"])]
            if want_eof:
                row.append(repr(m["eof"]))
            rows.append(row)

    header = ["gamma", "t", "trace_distance", "purity"] + (["eof"] if want_eof else [])
    resolved = {
        "matrix": args.matrix, "matrix_sha256": digest, "initial": initial,
        "blocks": blocks, "gamma": gamma_list, "t_max": t_max, "samples": samples,
        "bath": {"chi": bath.chi, "omega_c": bath.omega_c, "omega_T": bath.omega_T},
        "metrics": metrics,
    }
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        out.write("# config " + json.dumps(resolved, sort_keys=True) + "\n")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_encode_count(args, cfg) -> int:
    try:
        with open(args.problem) as f:
            prob = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load problem file {args.problem}: {exc}") from exc
    try:
        blocks = [CodeMatrix.from_matrix(m) for m in prob["blocks"]]
        cm = combined_matrix(blocks)
        codes.check_size(cm)
        h = {int(q) - 1: float(v) for q, v in prob.get("h", {}).items()}
        J = {}
        for key, v in prob.get("J", {}).items():
            a, b = key.split(",")
            J[(int(a) - 1, int(b) - 1)] = float(v)
        ks = [gf2_rank(b.row_masks) for b in blocks]
        assignment = {}
        for q, (b, s) in prob["assignment"].items():
            q, b, s = int(q) - 1, int(b), int(s)
            if q < 0 or not (0 <= b < len(ks) and 0 <= s < ks[b]):
                raise InputError(f"assignment {q + 1}: [{b}, {s}] on blocks with k = {ks} "
                                 "(logical qubits count from 1, blocks and slots from 0)")
            assignment[q] = sum(ks[:b]) + s  # slot s of block b on the composite
    except (KeyError, TypeError, ValueError, AttributeError, codes.CodeError) as exc:
        raise InputError(f"bad problem file {args.problem}: {exc}") from exc
    if not np.isfinite([*h.values(), *J.values()]).all():
        raise InputError("h and J values must be finite")
    if len(set(assignment.values())) < len(assignment):
        raise InputError("two logical qubits are assigned to one [block, slot]")
    named = set(h).union(*J)
    if not named <= set(assignment):
        raise InputError(f"h or J names logical qubit {min(named - set(assignment)) + 1}, "
                         "which has no assignment")
    if any(a == b for a, b in J):
        raise InputError("J couples a logical qubit to itself")
    transverse = prob.get("transverse", True)
    if not isinstance(transverse, bool):
        raise InputError(f"transverse must be true or false, got {transverse!r}")
    terms, counts = codes.encode_ising(h, J, assignment, build_code(cm), transverse=transverse)
    report = {
        "num_terms": len(terms),
        "weight_histogram": {str(w): c for w, c in sorted(counts.items())},
        "terms": [
            {"logical": t["logical"], "coefficient": t["coefficient"],
             "physical": str(t["physical"]), "weight": t["weight"]}
            for t in terms
        ],
        "config": {"problem": args.problem},
    }
    _emit(report, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gaugeforge",
                                description="Subsystem codes from binary matrices: "
                                            "spectra and open-system simulation")
    p.add_argument("--config", help="JSON config file; explicit flags override")
    sub = p.add_subparsers(dest="command", required=True)

    code_p = sub.add_parser("code", help="code construction commands")
    code_sub = code_p.add_subparsers(dest="subcommand", required=True)
    info = code_sub.add_parser("info", help="report [[n,k,d]] and generators")
    info.add_argument("matrix")
    info.add_argument("--all-pairs", action="store_true")
    info.add_argument("--out")
    info.set_defaults(func=cmd_code_info)
    red = code_sub.add_parser("reduce", help="extract stabilizers and auxiliary pairs")
    red.add_argument("matrix")
    red.add_argument("--out")
    red.set_defaults(func=cmd_reduce)

    spec_p = sub.add_parser("spectrum", help="sector spectra and energy separation")
    spec_p.add_argument("matrix")
    spec_p.add_argument("--weights", help="uniform:L | xz:L,E | file:PATH")
    spec_p.add_argument("--all-pairs", action="store_true")
    spec_p.add_argument("--basis", help="reduced-basis JSON from 'code reduce'")
    spec_p.add_argument("--sector-table", help="write per-sector ground energies CSV")
    spec_p.add_argument("--full-check", action="store_true",
                        help="cross-check with the full-space ground energy")
    spec_p.add_argument("--out")
    spec_p.set_defaults(func=cmd_spectrum)

    sim = sub.add_parser("simulate", help="open-system evolution of encoded states")
    sim.add_argument("matrix")
    sim.add_argument("--initial", choices=["plusL", "bell"])
    sim.add_argument("--blocks", choices=["together", "separate"])
    sim.add_argument("--gamma", help="comma-separated penalty weights")
    sim.add_argument("--t-max", type=float)
    sim.add_argument("--samples", type=int)
    sim.add_argument("--bath", help="chi=..,omega_c=..,omega_T=..")
    sim.add_argument("--metrics", choices=["logical", "physical"])
    sim.add_argument("--out", help="trajectory CSV path (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    enc = sub.add_parser("encode-count", help="locality statistics of an encoded Ising model")
    enc.add_argument("problem", help="JSON with blocks, h, J, assignment")
    enc.add_argument("--out")
    enc.set_defaults(func=cmd_encode_count)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ComputeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
