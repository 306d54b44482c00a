"""Fingerprint the CLI's artifacts over a fixed list of calls.

Runs every subcommand, and each of its `--method`/`--target` choices, on a
fixed set of configs through `bosonloop.cli.main`, and writes
`{call: {"exit": code, "files": {name: sha256}}}` as JSON to the given path.
`manifest.json` is hashed without its `wall_time_s`.  Two trees compare by
the JSON they write: any differing call is a change of exit code or of
artifact bytes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python tests/artifact_sweep.py OUT.json

Every call exits 0 except the refusals listed as such (unfolding a lossy or
density-matrix config, the stationary routes without a loop).  pytest does
not collect this file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from bosonloop.cli import main
from bosonloop.fock import FockBasis
from bosonloop.matrixkit import haar_random_unitary, save_matrix_json
from bosonloop.qstate import random_density_matrix

_FOCK = {"schema": 1, "M": 2, "L": 1, "n_max": 10, "iterations": 3,
         "input": {"type": "fock", "occupation": [1]},
         "unitary": {"type": "haar", "seed": 20}, "seed": 3}
_LOSSES = {"t_in": [0.9, 0.8], "t_out": [0.95, 0.85], "loop_T": 0.7}
_L2 = {"schema": 1, "M": 3, "L": 2, "n_max": 9, "iterations": 2,
       "input": {"type": "fock", "occupation": [1]}, "seed": 5}
_L0 = {"schema": 1, "M": 3, "L": 0, "iterations": 2,
       "input": {"type": "fock", "occupation": [1, 1, 0]},
       "unitary": {"type": "haar", "seed": 5}, "seed": 2}

CONFIGS = {
    "fock": _FOCK,
    "lossy": {**_FOCK, "losses": _LOSSES, "unitary": {"type": "haar", "seed": 21}},
    "l2_json": {**_L2, "unitary": {"type": "file", "path": "u39.json"}},
    "l2_csv": {**_L2, "unitary": {"type": "file", "path": "u39.csv"}},
    "dm": {**_FOCK, "n_max": 12, "iterations": 2, "input": {"type": "dm", "path": "rho.json"}},
    "l0": {**_L0, "n_max": 3},
    "l0_default_n_max": _L0,
    "default_n_max": {k: v for k, v in _FOCK.items() if k != "n_max"},
}

_EVOLVE = [["evolve", "--method", m] for m in ("unfold", "pdm", "kraus")]
_STATIONARY = [["stationary", "--method", m] for m in ("superop", "iterate", "tensors")]
_SAMPLE = [["sample", "--target", t, "--shots", "500"] for t in ("stationary", "final")]
_RECONSTRUCT = [["reconstruct", "--method", m, "--rank-cap", "3"]
                for m in ("analytic", "convex")]
_LOOPED = _EVOLVE + _STATIONARY + _SAMPLE + _RECONSTRUCT

# (config, argv after the config path); the refusals on purpose are the
# unfold calls on "lossy" and "dm" and the stationary route on "l0"
CALLS = (
    [("fock", argv) for argv in _LOOPED]
    + [("fock", ["stabilization", "--samples", "6", "--seed", "11"])]
    + [("lossy", argv) for argv in _LOOPED]
    + [("lossy", ["stabilization", "--samples", "4", "--seed", "12"])]
    + [("l2_json", argv) for argv in _LOOPED]
    + [("l2_csv", argv) for argv in _EVOLVE + _STATIONARY[:1]]
    + [("dm", argv) for argv in _EVOLVE + _STATIONARY + _SAMPLE]
    + [("l0", argv) for argv in _EVOLVE + _SAMPLE[1:] + _STATIONARY[:1]]
    + [("l0_default_n_max", argv) for argv in _EVOLVE]
    + [("default_n_max", argv) for argv in _EVOLVE + _SAMPLE[1:]]
)


def _write_inputs(work: Path) -> None:
    u = haar_random_unitary(3, 39)
    save_matrix_json(u, work / "u39.json")
    (work / "u39.csv").write_text(
        "".join(",".join(repr(complex(x)) for x in row) + "\n" for row in u))
    random_density_matrix(FockBasis(1, 2), 4).to_json(work / "rho.json")
    for name, cfg in CONFIGS.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))


def _fingerprint(out: Path) -> dict:
    files = {}
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.name] = hashlib.sha256(data).hexdigest()
    return files


def sweep() -> dict:
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_inputs(work)
        for i, (name, argv) in enumerate(CALLS):
            out = work / f"out{i}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([argv[0], str(work / f"{name}.json"), *argv[1:],
                             "--out", str(out)])
            results[" ".join([argv[0], name, *argv[1:]])] = {
                "exit": code, "files": _fingerprint(out)}
    return results


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: artifact_sweep.py OUT.json")
    results = sweep()
    Path(sys.argv[1]).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} calls, {sum(len(r['files']) for r in results.values())} files")
