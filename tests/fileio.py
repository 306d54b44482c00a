"""Input files for the CLI tests and the artifact sweep, and a reader of the
distribution CSV the CLI writes.

The package reads its input formats (`matrixkit.load_matrix`,
`DensityMatrix.from_json`) and writes its artifacts (`bosonloop.cli`); the
writers here make small input files the way a user's script would, and the
reader parses `ProbabilityDistribution.to_csv_text` back.
"""

import json
from pathlib import Path

import numpy as np

from bosonloop.fock import FockBasis
from bosonloop.qstate import ProbabilityDistribution


def write_matrix_json(a, path) -> None:
    """A complex matrix as {rows, cols, re, im} with flat row-major lists."""
    a = np.asarray(a, dtype=complex)
    payload = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.flatten().tolist(),
        "im": a.imag.flatten().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def write_matrix_csv(a, path) -> None:
    """A complex matrix as CSV rows of python complex literals like '(0.1+0.2j)'."""
    Path(path).write_text("".join(",".join(repr(complex(x)) for x in row) + "\n" for row in a))


def write_dm_json(rho, path) -> None:
    """A density matrix as an `input.type = dm` file: its `to_payload()` in
    json.dump's compact layout."""
    payload = rho.to_payload()
    payload["re"], payload["im"] = payload["re"].tolist(), payload["im"].tolist()
    with open(path, "w") as fh:
        json.dump(payload, fh)


def read_distribution_csv(path, check: bool = True) -> ProbabilityDistribution:
    """The distribution an `occupation;probability` CSV holds, on the basis
    of its mode count truncated at its largest total."""
    occs, probs = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            occ_str, prob_str = line.split(";")
            occs.append(tuple(int(x) for x in occ_str.split(",")))
            probs.append(float(prob_str))
    modes = len(occs[0])
    n_max = max(sum(o) for o in occs)
    basis = FockBasis(modes, n_max)
    v = np.zeros(basis.size)
    for occ, prob in zip(occs, probs):
        v[basis.index_of(occ)] = prob
    return ProbabilityDistribution(basis, v, check=check)
