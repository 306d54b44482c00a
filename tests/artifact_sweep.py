"""Fingerprint the CLI's artifacts over a fixed list of calls, and compare
two fingerprinted trees.

Runs every subcommand, and each of its `--method`/`--target` choices, on a
fixed set of configs through `bosonloop.cli.main`.  Each call's output files
are kept under `OUT_DIR/calls/<index>/`, and `OUT_DIR/sweep.json` maps every
call to `{"exit": code, "dir": "calls/<index>", "files": {name: sha256}}`.
`manifest.json` is hashed without its `wall_time_s`.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/artifact_sweep.py OUT_DIR
    PYTHONPATH=src python tests/artifact_sweep.py --compare OUT_A OUT_B

The compare mode prints, per call, both exit codes and whether each file's
bytes are equal.  For a JSON or CSV file whose bytes differ it also prints
whether the two have the same shape and keys, the largest absolute and the
largest relative difference of their numbers and where each occurs, and
every non-numeric value that differs, as it is.  It exits 0 when every exit
code and every file is equal, else 1.

Every call exits 0 except the refusals listed as such (unfolding a lossy or
density-matrix config, the stationary routes without a loop).  pytest does
not collect this file.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from bosonloop.cli import main
from bosonloop.fock import FockBasis
from bosonloop.matrixkit import haar_random_unitary
from bosonloop.qstate import random_density_matrix
from fileio import write_dm_json, write_matrix_csv, write_matrix_json

_FOCK = {"schema": 1, "M": 2, "L": 1, "n_max": 10, "iterations": 3,
         "input": {"type": "fock", "occupation": [1]},
         "unitary": {"type": "haar", "seed": 20}, "seed": 3}
_LOSSES = {"t_in": [0.9, 0.8], "t_out": [0.95, 0.85], "loop_T": 0.7}
_L2 = {"schema": 1, "M": 3, "L": 2, "n_max": 9, "iterations": 2,
       "input": {"type": "fock", "occupation": [1]}, "seed": 5}
_LOSSY_L2 = {"schema": 1, "M": 3, "L": 2, "n_max": 6, "iterations": 3,
             "input": {"type": "fock", "occupation": [1]},
             "unitary": {"type": "haar", "seed": 3},
             "losses": {"t_in": [0.9] * 3, "t_out": [0.9] * 3, "loop_T": 0.7}, "seed": 5}
_DM = {**_FOCK, "n_max": 12, "iterations": 2, "input": {"type": "dm", "path": "rho.json"}}
_L0 = {"schema": 1, "M": 3, "L": 0, "iterations": 2,
       "input": {"type": "fock", "occupation": [1, 1, 0]},
       "unitary": {"type": "haar", "seed": 5}, "seed": 2}

CONFIGS = {
    "fock": _FOCK,
    "lossy": {**_FOCK, "losses": _LOSSES, "unitary": {"type": "haar", "seed": 21}},
    "l2_json": {**_L2, "unitary": {"type": "file", "path": "u39.json"}},
    "l2_csv": {**_L2, "unitary": {"type": "file", "path": "u39.csv"}},
    "lossy_l2": _LOSSY_L2,
    # a truncation that leaks: the stationary state holds 2.0e-10 in sector 10
    "m4_leaking": {**_L2, "M": 4, "n_max": 10, "input": {"type": "fock", "occupation": [1, 0]},
                   "unitary": {"type": "haar", "seed": 1}},
    "dm": _DM,
    # the lossy loop-update channel of a mixed input: its core mixes photon-number shifts
    "lossy_dm": {**_DM, "losses": _LOSSES},
    "l0": {**_L0, "n_max": 3},
    "l0_default_n_max": _L0,
    # the single pass with output losses: pdm and kraus evolve it, unfold refuses it
    "lossy_l0": {**_L0, "losses": {"t_out": [0.9, 0.8, 0.7]}},
    "default_n_max": {k: v for k, v in _FOCK.items() if k != "n_max"},
    # the pinned stabilization study: 9 of its 33 rungs fail and climb the
    # truncation ladder, one of them to tau = 441
    "stab_ladder": {"schema": 1, "M": 2, "L": 1, "n_max": 14, "iterations": 1,
                    "input": {"type": "fock", "occupation": [1]},
                    "unitary": {"type": "haar", "seed": 0}},
    # a pure two-photon Fock injection on three external modes; the lossy
    # line keeps the stationary state inside n_max
    "m5_pure": {"schema": 1, "M": 5, "L": 2, "n_max": 6, "iterations": 3,
                "input": {"type": "fock", "occupation": [1, 1, 0]},
                "unitary": {"type": "haar", "seed": 9}, "losses": {"loop_T": 0.2},
                "seed": 4},
    # the first calls whose external loss channels take the Kraus sum on
    # charge-0 states: their G_0 (width 11,934) is past the dense cap
    "m6_lossy_ext": {"schema": 1, "M": 6, "L": 2, "n_max": 6, "iterations": 2,
                     "input": {"type": "fock", "occupation": [1, 1, 1, 0]},
                     "unitary": {"type": "haar", "seed": 3},
                     "losses": {"t_out": [0.95] * 6}, "seed": 4},
}

_EVOLVE = [["evolve", "--method", m] for m in ("unfold", "pdm", "kraus")]
_STATIONARY = [["stationary", "--method", m] for m in ("superop", "iterate", "tensors")]
_SAMPLE = [["sample", "--target", t, "--shots", "500"] for t in ("stationary", "final")]
_RECONSTRUCT = [["reconstruct", "--method", m, "--rank-cap", "3"]
                for m in ("analytic", "convex")]
_LOOPED = _EVOLVE + _STATIONARY + _SAMPLE + _RECONSTRUCT

# (config, argv after the config path); the refusals on purpose are the
# unfold calls on "lossy", "dm" and "lossy_l0" and the stationary route on "l0"
CALLS = (
    [("fock", argv) for argv in _LOOPED]
    + [("fock", ["stabilization", "--samples", "6", "--seed", "11"])]
    + [("lossy", argv) for argv in _LOOPED]
    + [("lossy", ["stabilization", "--samples", "4", "--seed", "12"])]
    + [("l2_json", argv) for argv in _LOOPED]
    # the stationary_l2 benchmark's call shape: Kronecker systems up to 1024 wide
    + [("l2_json", ["reconstruct", "--method", "analytic", "--rank-cap", "5"])]
    + [("l2_csv", argv) for argv in _EVOLVE + _STATIONARY[:1]]
    + [("lossy_l2", argv) for argv in _EVOLVE[1:] + _STATIONARY[:1]]
    + [("m4_leaking", _STATIONARY[0])]
    + [("dm", argv) for argv in _EVOLVE + _STATIONARY + _SAMPLE]
    + [("lossy_dm", argv) for argv in _EVOLVE[1:] + _STATIONARY + _SAMPLE]
    + [("l0", argv) for argv in _EVOLVE + _SAMPLE[1:] + _STATIONARY[:1]]
    + [("l0_default_n_max", argv) for argv in _EVOLVE]
    + [("lossy_l0", argv) for argv in _EVOLVE]
    + [("default_n_max", argv) for argv in _EVOLVE + _SAMPLE[1:]]
    + [("stab_ladder", ["stabilization", "--samples", "24", "--seed", "7"])]
    + [("m5_pure", argv) for argv in (_EVOLVE[2], _STATIONARY[0])]
    + [("m6_lossy_ext", argv) for argv in _EVOLVE[1:]]
)


def _write_inputs(work: Path) -> None:
    u = haar_random_unitary(3, 39)
    write_matrix_json(u, work / "u39.json")
    write_matrix_csv(u, work / "u39.csv")
    write_dm_json(random_density_matrix(FockBasis(1, 2), 4), work / "rho.json")
    for name, cfg in CONFIGS.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))


def _manifest_bytes(data: bytes) -> bytes:
    """manifest.json as it is hashed: without its wall time."""
    manifest = json.loads(data)
    manifest.pop("wall_time_s")
    return json.dumps(manifest, sort_keys=True).encode()


def _fingerprint(out: Path) -> dict:
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _manifest_bytes(data)
        files[path.name] = hashlib.sha256(data).hexdigest()
    return files


def sweep(out_dir: Path) -> dict:
    (out_dir / "calls").mkdir(parents=True)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_inputs(work)
        for i, (name, argv) in enumerate(CALLS):
            out = out_dir / "calls" / f"{i:02d}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([argv[0], str(work / f"{name}.json"), *argv[1:],
                             "--out", str(out)])
            results[" ".join([argv[0], name, *argv[1:]])] = {
                "exit": code, "dir": f"calls/{i:02d}", "files": _fingerprint(out)}
    return results


def _leaves(path: Path) -> dict:
    """{location: value} for every scalar of a JSON or CSV file: a JSON
    location is its key/index path, a CSV one its (row, column); CSV cells
    that parse as floats are numbers."""
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        delimiter = ";" if lines and ";" in lines[0] else ","
        leaves = {}
        for r, row in enumerate(csv.reader(lines, delimiter=delimiter)):
            for c, cell in enumerate(row):
                try:
                    leaves[(r, c)] = float(cell)
                except ValueError:
                    leaves[(r, c)] = cell
        return leaves
    data = path.read_bytes()
    doc = json.loads(_manifest_bytes(data) if path.name == "manifest.json" else data)
    leaves = {}

    def walk(node, at):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, at + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, at + (i,))
        else:
            leaves[at] = node
    walk(doc, ())
    return leaves


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff_file(a: Path, b: Path) -> dict:
    """How two JSON or CSV files with different bytes differ: whether they
    have the same locations (shape and keys), the largest absolute and
    relative difference of the numbers at a shared location with where each
    occurs, and the non-numeric values that differ."""
    la, lb = _leaves(a), _leaves(b)
    report = {"same_shape": la.keys() == lb.keys(), "max_abs": (0.0, None),
              "max_rel": (0.0, None), "other": []}
    for at in la.keys() & lb.keys():
        x, y = la[at], lb[at]
        if _is_number(x) and _is_number(y):
            gap = abs(x - y)
            scale = max(abs(x), abs(y))
            if gap > report["max_abs"][0]:
                report["max_abs"] = (gap, at)
            if scale and gap / scale > report["max_rel"][0]:
                report["max_rel"] = (gap / scale, at)
        elif x != y:
            report["other"].append((at, x, y))
    report["other"].sort(key=repr)
    return report


def compare(dir_a: Path, dir_b: Path) -> dict:
    """{call: {"exit": (a, b), "files": {name: entry}}} over the calls of
    either sweep.  A file present on one side only has entry None; one with
    equal bytes has {"equal": True}; any other has {"equal": False} and,
    for JSON and CSV, `diff_file`'s report."""
    sa = json.loads((dir_a / "sweep.json").read_text())
    sb = json.loads((dir_b / "sweep.json").read_text())
    out = {}
    for call in sorted(sa.keys() | sb.keys()):
        ra, rb = sa.get(call, {}), sb.get(call, {})
        fa, fb = ra.get("files", {}), rb.get("files", {})
        files = {}
        for name in sorted(fa.keys() | fb.keys()):
            if name not in fa or name not in fb:
                files[name] = None
            elif fa[name] == fb[name]:
                files[name] = {"equal": True}
            else:
                files[name] = {"equal": False}
                if name.endswith((".json", ".csv")):
                    files[name].update(diff_file(dir_a / ra["dir"] / name,
                                                 dir_b / rb["dir"] / name))
        out[call] = {"exit": (ra.get("exit"), rb.get("exit")), "files": files}
    return out


def report_lines(result: dict) -> list:
    """The compare result as text: one line per call, one per differing
    file, and a closing count."""
    lines = []
    equal = total = 0
    for call, r in result.items():
        ea, eb = r["exit"]
        lines.append(f"{call}: exit {ea} / {eb}")
        for name, entry in r["files"].items():
            total += 1
            if entry is None:
                lines.append(f"  {name}: on one side only")
            elif entry["equal"]:
                equal += 1
            else:
                lines.append(f"  {name}: bytes differ")
                if "same_shape" in entry:
                    (abs_gap, abs_at), (rel_gap, rel_at) = entry["max_abs"], entry["max_rel"]
                    lines.append(f"    same shape and keys: {entry['same_shape']}; "
                                 f"max abs {abs_gap:.3e} at {abs_at}; "
                                 f"max rel {rel_gap:.3e} at {rel_at}")
                    lines.extend(f"    {at}: {x!r} / {y!r}" for at, x, y in entry["other"])
    same_exit = sum(r["exit"][0] == r["exit"][1] for r in result.values())
    lines.append(f"{len(result)} calls, {same_exit} with equal exit codes; "
                 f"{equal} of {total} files byte-equal")
    return lines


def _all_equal(result: dict) -> bool:
    return all(r["exit"][0] == r["exit"][1]
               and all(e is not None and e["equal"] for e in r["files"].values())
               for r in result.values())


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        result = compare(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(report_lines(result)))
        sys.exit(0 if _all_equal(result) else 1)
    if len(sys.argv) != 2:
        sys.exit("usage: artifact_sweep.py OUT_DIR | --compare OUT_A OUT_B")
    out_dir = Path(sys.argv[1])
    results = sweep(out_dir)
    (out_dir / "sweep.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} calls, {sum(len(r['files']) for r in results.values())} files")
