"""Command-line front end: code reports, basis reduction, spectra, simulations.

Exit codes: 0 success, 1 computation failure (verification, extraction, a spectrum
or a simulation), 2 input error (missing or malformed files and flags).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import sys

import numpy as np

from . import codes, extraction, opensys, spectra
from .codes import CodeMatrix, build_code, combined_matrix
from .pauli import PauliError, gf2_rank

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2

# simulate holds every CSV row (samples times gamma values) until it writes them; on the
# 4-qubit code a row takes about 0.55 KB and 0.4 ms, so this many is about 0.55 GB and 7 minutes
MAX_ROWS = 10**6


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error: one line and exit 2, no usage block."""

    def error(self, message):
        raise InputError(message)


# The simulate settings and their defaults, as text.  Each takes its flag, else
# its --config value, else this default; a config may hold no other key.
_SETTINGS = {"initial": "plusL", "blocks": "together", "gamma": "1.2", "t-max": "5e-8",
             "samples": "26", "bath": "", "metrics": "logical"}


def _read_matrix(path: str) -> tuple[CodeMatrix, str]:
    try:
        with open(path, "rb") as f:
            raw = f.read()
        cm = codes.load_code_matrix(raw.decode("utf-8"))
        codes.check_size(cm)
    except (OSError, UnicodeDecodeError, PauliError, codes.CodeError, ValueError) as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc
    return cm, hashlib.sha256(raw).hexdigest()


def _load_json(path: str, what: str, kind: type = dict):
    """The JSON document in ``path``: a ``kind`` (dict or list) that names no object key twice,
    where the standard reader would keep the last value."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"key {key!r} given twice in one object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=unique)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot load {what} {path}: {exc}") from exc
    if not isinstance(doc, kind):
        raise InputError(f"{what} {path} must be a JSON {'object' if kind is dict else 'list'}")
    return doc


def _load_config(path: str | None) -> dict:
    cfg = {} if path is None else _load_json(path, "config")
    unknown = set(cfg) - set(_SETTINGS)
    if unknown:
        raise InputError(f"config {path}: unknown key {min(unknown)!r} "
                         f"(the keys are {', '.join(_SETTINGS)})")
    return cfg


def _json_values(values, kind=float) -> list:
    """``values`` as ``kind``, each a JSON value of that kind: a number for float, an integer
    for int, a string for str.  true is none of these, and "1" is no number."""
    types, name = {float: ((int, float), "number"), int: (int, "integer"),
                   str: (str, "string")}[kind]
    bad = [v for v in values if isinstance(v, bool) or not isinstance(v, types)]
    if bad:
        raise ValueError(f"{bad[0]!r} is not a JSON {name}")
    return [kind(v) for v in values]


def _number(text: str, kind: type = float):
    """``text`` as a ``kind`` (float or int), from ASCII only: Python's own readers also
    take any Unicode digit and ``_`` between digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a number in ASCII without '_'")
    return kind(text)


def _qubit(key: str) -> int:
    """The 0-based index of a logical-qubit key, which is 1, 2, ... in ASCII digits."""
    if not (key.isascii() and key.isdigit() and key[0] != "0"):
        raise ValueError(f"logical qubit {key!r} is not 1, 2, ... in ASCII digits")
    return _number(key, int) - 1


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _write(out, text: str):
    """Write a command's whole output at once, to a file ``main`` opened or to stdout."""
    (out or sys.stdout).write(text)


def _write_report(out, report: dict, config: dict, **fields):
    """Write ``report``, its ``config`` and any further ``fields`` as one sorted JSON object."""
    text = json.dumps({**report, **fields, "config": config}, indent=2, sort_keys=True)
    _write(out, text + "\n")


def _parse_weights(spec_str: str, code) -> spectra.WeightSpec:
    try:
        kind, _, rest = spec_str.partition(":")
        if kind == "uniform":
            return spectra.WeightSpec.uniform(_number(rest), len(code.gauge_generators))
        if kind == "xz":
            lam_s, eta_s = rest.split(",")
            return spectra.WeightSpec.xz(_number(lam_s), _number(eta_s),
                                         len(code.x_gauge), len(code.z_gauge))
        if kind == "file":
            w = spectra.WeightSpec.explicit(_json_values(_load_json(rest, "--weights file", list)))
            w.for_code(code)  # a count other than the generators' is malformed input
            return w
    except (ValueError, OverflowError, spectra.SpectraError) as exc:
        raise InputError(f"bad --weights {spec_str!r}: {exc}") from exc
    raise InputError(f"bad --weights {spec_str!r}: expected uniform:L, xz:L,E or file:PATH")


def _parse_bath(spec_str: str) -> opensys.BathSpec:
    kwargs = {}
    try:
        for item in spec_str.split(",") if spec_str else ():
            key, _, val = item.partition("=")
            if key not in ("chi", "omega_c", "omega_T") or not val or key in kwargs:
                raise ValueError(f"item {item!r}: keys chi, omega_c, omega_T, each once")
            kwargs[key] = _number(val)
        return opensys.BathSpec(**kwargs)
    except (ValueError, opensys.OpenSysError) as exc:
        raise InputError(f"bad --bath {spec_str!r}: {exc}") from exc


def _reduced_basis_report(cm: CodeMatrix, rb: extraction.ReducedBasis) -> dict:
    labels = cm.qubit_labels()
    return {
        "x_stabilizers": [s.to_string(labels) for s in rb.x_stabilizers],
        "z_stabilizers": [s.to_string(labels) for s in rb.z_stabilizers],
        "aux_pairs": [[x.to_string(labels), z.to_string(labels)] for x, z in rb.aux_pairs],
    }


def _reduced_basis_from_report(cm: CodeMatrix, rep: dict) -> extraction.ReducedBasis:
    try:  # each stabilizer list and each auxiliary pair is a list of operator strings
        xs, zs, *pairs = ([cm.parse(s) for s in _json_values(ops, str)] for ops in
                          (rep["x_stabilizers"], rep["z_stabilizers"], *rep["aux_pairs"]))
        return extraction.ReducedBasis(xs, zs, [(x, z) for x, z in pairs])
    except (KeyError, TypeError, ValueError, PauliError) as exc:
        raise InputError(f"malformed reduced-basis file: {exc}") from exc


def _gauged_code(cm: CodeMatrix, all_pairs: bool = False):
    """The code of ``cm`` for spectra and simulations, which need a gauge generator."""
    code = build_code(cm, all_pairs=all_pairs)
    if not code.gauge_generators:
        raise InputError("the code has no gauge generators (no row or column of the matrix "
                         "holds two 1s), so it has no suppressing Hamiltonian")
    return code


def cmd_code_info(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)
    _write_report(args.out, build_code(cm, all_pairs=args.all_pairs).to_report(),
                  {"matrix": args.matrix, "all_pairs": bool(args.all_pairs)}, matrix_sha256=digest)
    return EXIT_OK


def cmd_reduce(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)
    code = build_code(cm)
    rb = extraction.extract_reduced_basis(cm)
    verification = extraction.verify_reduced_basis(code, rb)
    _write_report(args.out, _reduced_basis_report(cm, rb), {"matrix": args.matrix},
                  verification=verification.to_dict(), matrix_sha256=digest)
    if not verification.ok:
        sys.stderr.write("verification failed: "
                         + "; ".join(n for n, _ in verification.violations) + "\n")
        return EXIT_COMPUTE
    return EXIT_OK


def cmd_spectrum(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)
    code = _gauged_code(cm, all_pairs=args.all_pairs)
    w = _parse_weights(args.weights, code)
    # a code past the full-space limit is refused before any sector work
    full = spectra.build_full_hamiltonian(code, w) if args.full_check else None
    if args.basis:
        rb = _reduced_basis_from_report(cm, _load_json(args.basis, "--basis"))
        failed = extraction.verify_reduced_basis(code, rb).violations
        if failed:
            raise InputError(f"--basis {args.basis} is not a reduced basis of this code: "
                             + "; ".join(n for n, _ in failed))
    else:
        rb = extraction.extract_reduced_basis(cm)
    sep = spectra.energy_separation(code, rb, w)
    report = sep.to_dict()
    if full is not None:
        report["full_ground_energy"] = spectra.full_ground_energy(full)
    _write_report(args.out, report, {"matrix": args.matrix, "weights": args.weights,
                                     "all_pairs": bool(args.all_pairs), "basis": args.basis},
                  matrix_sha256=digest)
    if args.sector_table:
        header = [f"s{i + 1}" for i in range(len(sep.code_sector))] + ["ground_energy"]
        _write(args.sector_table, _csv([header] + [[*s, repr(e)] for s, e in
                                                   sep.ground_energies.items()]))
    return EXIT_OK


def cmd_simulate(args, cfg) -> int:
    cm, digest = _read_matrix(args.matrix)

    def setting(key: str) -> str:
        return str(getattr(args, key.replace("-", "_"), cfg.get(key, _SETTINGS[key])))

    initial, blocks, metrics, gammas = (setting(key) for key in
                                        ("initial", "blocks", "metrics", "gamma"))
    try:  # from text, as float(True) is 1.0 and int(2.5) truncates
        t_max, samples = _number(setting("t-max")), _number(setting("samples"), int)
    except ValueError as exc:
        raise InputError(f"bad --t-max or --samples: {exc}") from exc
    if initial not in ("plusL", "bell") or blocks not in ("together", "separate"):
        raise InputError("--initial must be plusL|bell, --blocks together|separate")
    if metrics not in ("logical", "physical"):
        raise InputError("--metrics must be logical or physical")
    bath = _parse_bath(setting("bath"))
    code = _gauged_code(cm)
    try:  # the weights each simulation builds: a sum that overflows fails here, not in eigh
        gamma_list = sorted(_number(g) for g in gammas.split(","))
        for g in gamma_list:
            if not g > 0:
                raise ValueError(f"{g} is not positive")
            opensys.suppressing_weights(code, g, bath)
    except (ValueError, spectra.SpectraError) as exc:
        raise InputError(f"bad --gamma {gammas!r}: {exc}") from exc
    most = MAX_ROWS // len(gamma_list)
    if not 0 < t_max < np.inf or not 2 <= samples <= most:
        raise InputError(f"--t-max must be positive and finite and --samples from 2 to {most} "
                         f"({MAX_ROWS} CSV rows over {len(gamma_list)} gamma value(s))")
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

    header = ["gamma", "t", "trace_distance", "purity"] + (["eof"] if want_eof else [])
    table = io.StringIO()  # each trajectory's rows as it ends; the file is written once, at the end
    writer = csv.writer(table)
    writer.writerow(header)
    for gamma in gamma_list:
        try:
            if blocks == "together":
                traj = opensys.simulate_code(code, rho_L, gamma, bath, t_grid, metrics=metrics)
            else:
                traj = opensys.simulate_two_blocks(code, composite, rho_L, gamma, bath,
                                                   t_grid, metrics=metrics)
        except opensys.OpenSysError as exc:
            raise opensys.OpenSysError(f"simulation failed at gamma={gamma}: {exc}") from exc
        writer.writerows([repr(gamma)] + [repr(m[key]) for key in header[1:]] for m in traj.metrics)
    resolved = {
        "matrix": args.matrix, "matrix_sha256": digest, "initial": initial,
        "blocks": blocks, "gamma": gamma_list, "t_max": t_max, "samples": samples,
        "bath": {"chi": bath.chi, "omega_c": bath.omega_c, "omega_T": bath.omega_T},
        "metrics": metrics,
    }
    _write(args.out, "# config " + json.dumps(resolved, sort_keys=True) + "\n" + table.getvalue())
    return EXIT_OK


def cmd_encode_count(args, cfg) -> int:
    prob = _load_json(args.problem, "problem file")
    try:
        blocks = [CodeMatrix.from_matrix([_json_values(r, int) for r in m]) for m in prob["blocks"]]
        cm = combined_matrix(blocks)
        codes.check_size(cm)
        hs, Js = prob.get("h", {}), prob.get("J", {})
        h = {_qubit(q): v for q, v in zip(hs, _json_values(hs.values()))}
        J = {}
        for key, v in zip(Js, _json_values(Js.values())):
            a, b = map(_qubit, key.split(","))  # ValueError unless the key is "a,b"
            J[a, b] = v
        ks = [gf2_rank(b.row_masks) for b in blocks]
        assignment = {}
        for q, pair in prob["assignment"].items():
            (b, s), q = _json_values(pair, int), _qubit(q)
            if not (0 <= b < len(ks) and 0 <= s < ks[b]):
                raise InputError(f"assignment {q + 1}: [{b}, {s}] on blocks with k = {ks} "
                                 "(logical qubits count from 1, blocks and slots from 0)")
            assignment[q] = sum(ks[:b]) + s  # slot s of block b on the composite
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError, codes.CodeError) as exc:
        raise InputError(f"bad problem file {args.problem}: {exc}") from exc
    transverse = prob.get("transverse", True)
    if not isinstance(transverse, bool):
        raise InputError(f"transverse must be true or false, got {transverse!r}")
    code = build_code(cm)  # outside the try: a failed invariant here is no input error
    try:
        terms, counts = codes.encode_ising(h, J, assignment, code, transverse=transverse)
    except codes.CodeError as exc:
        raise InputError(f"bad problem file {args.problem}: {exc}") from exc
    report = {"num_terms": len(terms),
              "weight_histogram": {str(w): c for w, c in sorted(counts.items())},
              "terms": [{**t, "physical": str(t["physical"])} for t in terms]}
    _write_report(args.out, report, {"problem": args.problem})
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gaugeforge", description="Subsystem codes from binary matrices: "
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
    spec_p.add_argument("--weights", default="uniform:1", help="uniform:L | xz:L,E | file:PATH")
    spec_p.add_argument("--all-pairs", action="store_true")
    spec_p.add_argument("--basis", help="reduced-basis JSON from 'code reduce'")
    spec_p.add_argument("--sector-table", help="write per-sector ground energies CSV")
    spec_p.add_argument("--full-check", action="store_true",
                        help="cross-check with the full-space ground energy")
    spec_p.add_argument("--out")
    spec_p.set_defaults(func=cmd_spectrum)

    # an unset setting is absent from the namespace, so --config can fill it in
    sim = sub.add_parser("simulate", help="open-system evolution of encoded states",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("matrix")
    sim.add_argument("--initial", help="plusL | bell")
    sim.add_argument("--blocks", help="together | separate")
    sim.add_argument("--gamma", help="comma-separated penalty weights")
    sim.add_argument("--t-max", help="final time in seconds")
    sim.add_argument("--samples", help="number of time samples, at least 2")
    sim.add_argument("--bath", help="chi=..,omega_c=..,omega_T=..")
    sim.add_argument("--metrics", help="logical | physical")
    sim.add_argument("--out", default=None, help="trajectory CSV path (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    enc = sub.add_parser("encode-count", help="locality statistics of an encoded Ising model")
    enc.add_argument("problem", help="JSON with blocks, h, J, assignment")
    enc.add_argument("--out")
    enc.set_defaults(func=cmd_encode_count)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        with contextlib.ExitStack() as outputs:  # opened before any work, closed on any exit
            for key in ("out", "sector_table"):
                path = getattr(args, key, None)
                if path:
                    try:
                        setattr(args, key, outputs.enter_context(open(path, "w", newline="")))
                    except OSError as exc:
                        raise InputError(f"cannot write {path}: {exc}") from exc
            return args.func(args, cfg)
    except (InputError, extraction.ExtractionError, spectra.SpectraError,
            opensys.OpenSysError) as exc:  # the last three: a computation on valid input failed
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
