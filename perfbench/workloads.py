"""The benchmark's workloads: inputs made from a seed, CLI calls, output checks.

A workload turns its seed into config files and a fixed list of CLI calls,
one *pass*.  Every pass of a run repeats the same calls on the same inputs,
so counts repeat exactly and times differ only by noise.  Each call is
checked against the library's own cross-route agreement as soon as it
returns; the checks read the written artifacts and call nothing in the
package, so they never add spans to a traced pass.
"""

import csv
import json
import math
import os

import numpy as np

CLI_THREADS = 1


def _write_json(path, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def _read_distribution(path) -> dict:
    """occupation -> probability from a `occupation;probability` CSV."""
    with open(path, newline="") as fh:
        return {occ: float(p) for occ, p in csv.reader(fh, delimiter=";")}


class Workload:
    """One workload: `prepare` makes the pass, `check(i)` judges call i."""

    name = ""
    samples_per_pass = 0     # Haar samples per pass (stabilization only)

    def __init__(self, work_dir):
        self.work = work_dir
        self.calls = []      # argv lists for bosonloop.cli.main
        self.config = None   # the config file whose loading setup_s times

    def argv(self, *args) -> list:
        return ["--threads", str(CLI_THREADS), *args]

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def check(self, i: int) -> bool:
        raise NotImplementedError


class StabMC(Workload):
    """`stabilization` over Haar 2x2 samples stratified by loop transmission.

    Per-sample cost is set by r = |U_LL|^2, which is uniform on [0, 1] for
    Haar U(2): the loop mixes slowly as r -> 1, which lengthens the channel
    iteration and sends the sample up the truncation-retry ladder (the
    thresholds sit near r = 0.70 and 0.87).  A plain random draw of 40
    samples varies in cost by tens of percent from seed to seed, so each
    pass takes one sample at the midpoint of each of 24 equal strata of
    [0, R_MAX]; no midpoint lies within 0.015 of a threshold.  The seed
    picks, per stratum, a CLI seed whose first Haar sample lands within
    WINDOW of the midpoint.  Above R_MAX the iteration
    count grows as 1/(1 - r) and the retry ladder can run out, which fails
    the call, so the top 1% of the Haar measure is left out.
    """

    name = "stab_mc"
    samples_per_pass = 24
    R_MAX = 0.99
    WINDOW = 1e-3
    CONFIG = {"schema": 1, "M": 2, "L": 1, "n_max": 14, "iterations": 1,
              "input": {"type": "fock", "occupation": [1]},
              "unitary": {"type": "haar", "seed": 0}}

    def prepare(self, seed: int) -> None:
        from bosonloop.matrixkit import haar_random_unitary

        self.config = _write_json(self.work / "stab.json", self.CONFIG)
        rng = np.random.default_rng(seed)
        self.sample_seeds = []
        for i in range(self.samples_per_pass):
            target = self.R_MAX * (i + 0.5) / self.samples_per_pass
            while True:
                s = int(rng.integers(2 ** 31))
                # the CLI draws sample j from SeedSequence(seed).spawn(samples)[j]
                child = np.random.SeedSequence(s).spawn(1)[0]
                r = abs(haar_random_unitary(2, child)[1, 1]) ** 2
                if abs(r - target) <= self.WINDOW:
                    break
            self.sample_seeds.append(s)
        self.out = self.work / "stab_out"
        self.calls = [
            self.argv("stabilization", self.config, "--samples", "1",
                      "--seed", str(s), "--tolerance", "1e-6", "--out", str(self.out))
            for s in self.sample_seeds
        ]

    def check(self, i: int) -> bool:
        with open(self.out / "summary.json") as fh:
            summary = json.load(fh)
        with open(self.out / "stabilization_histogram.csv", newline="") as fh:
            counts = [int(row[1]) for row in csv.reader(fh, delimiter=";")]
        return (summary["samples"] == 1
                and sum(counts) == summary["samples"] - summary["skipped_degenerate"])


class EvolveM6(Workload):
    """`evolve` by PDM and by Kraus iteration on one config; both must agree.

    The per-iteration joint pass builds the full Kronecker product of the
    injected and loop states and keeps 2.5% of it (34.6M entries for 0.85M
    kept), so this workload is bound by memory and by the `qstate` and `lift`
    kernels.  The M=5, L=2, (1,1,1), k=3 config peaks at 2.46 GB, too much
    for a shared machine run many times; M=6, L=2, (1,1,1,0), k=2 keeps the
    same shape at about 0.66 GB.
    """

    name = "evolve_m6"
    TV_LIMIT = 1e-10

    def prepare(self, seed: int) -> None:
        haar_seed = int(np.random.default_rng(seed).integers(2 ** 31))
        self.config = _write_json(self.work / "evolve.json", {
            "schema": 1, "M": 6, "L": 2, "iterations": 2,
            "input": {"type": "fock", "occupation": [1, 1, 1, 0]},
            "unitary": {"type": "haar", "seed": haar_seed},
        })
        self.outs = [self.work / "pdm", self.work / "kraus"]
        self.calls = [
            self.argv("evolve", self.config, "--method", method, "--out", str(out))
            for method, out in zip(("pdm", "kraus"), self.outs)
        ]

    def _distributions(self, out) -> list:
        names = sorted(n for n in os.listdir(out) if n.startswith("distribution_iter_"))
        return [_read_distribution(out / n) for n in names]

    def check(self, i: int) -> bool:
        dists = self._distributions(self.outs[i])
        if len(dists) != 2 or any(abs(sum(d.values()) - 1.0) > 1e-9 for d in dists):
            return False
        if i == 0:
            return True
        pdm = self._distributions(self.outs[0])
        for p, q in zip(pdm, dists):
            tv = 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
            if not tv < self.TV_LIMIT:
                return False
        return True


class StationaryL2(Workload):
    """`reconstruct --method analytic` on M=3, L=2, input (1,), n_max=7, rank 5.

    Runs both stationary routes on one config: the superoperator dense eig at
    dimension 1296 and the recursive tensor solve to rank 5 (Kronecker systems
    up to 1024, input tensors up to 59k entries), then scores the tensor
    reconstruction against the superoperator state.  The interferometer is
    Haar seed 39, which fits n_max=7 (seed 5, for one, does not); the
    workload seed conjugates it by random mode phases, U -> P U P^dag.  That
    rotates the loop state by a diagonal unitary and leaves its spectrum,
    photon statistics and every fidelity unchanged, so every seed does the
    same work and passes the same gate.
    """

    name = "stationary_l2"
    RANK_CAP = 5
    # measured at 1 - 8.4e-6; rank 5 misses the loop's 6- and 7-photon tail
    MIN_FIDELITY = 1 - 1e-4

    def prepare(self, seed: int) -> None:
        from bosonloop.matrixkit import haar_random_unitary

        phases = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * math.pi, 3))
        u = phases[:, None] * haar_random_unitary(3, 39) * phases.conj()[None, :]
        _write_json(self.work / "u.json", {"rows": 3, "cols": 3,
                                           "re": u.real.ravel().tolist(),
                                           "im": u.imag.ravel().tolist()})
        self.config = _write_json(self.work / "stationary.json", {
            "schema": 1, "M": 3, "L": 2, "n_max": 7, "iterations": 1,
            "input": {"type": "fock", "occupation": [1]},
            "unitary": {"type": "file", "path": "u.json"},
        })
        self.out = self.work / "reconstruct"
        self.calls = [self.argv("reconstruct", self.config, "--method", "analytic",
                                "--rank-cap", str(self.RANK_CAP), "--out", str(self.out))]

    def check(self, i: int) -> bool:
        with open(self.out / "fidelity_vs_rank.csv", newline="") as fh:
            rows = [(int(r), float(f)) for r, f in csv.reader(fh, delimiter=";")]
        with open(self.out / "reconstruction_report.json") as fh:
            report = json.load(fh)
        return ([r for r, _ in rows] == list(range(1, self.RANK_CAP + 1))
                and rows[-1][1] > self.MIN_FIDELITY
                and report["fidelity_vs_reference"] > self.MIN_FIDELITY)


WORKLOADS = {w.name: w for w in (StabMC, EvolveM6, StationaryL2)}
