import builtins
import contextlib
import copy
import hashlib
import io
import itertools
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bosonloop
import bosonloop.cli
from bosonloop.cli import _EXIT_CODES, EXIT_SIZE_CAP, _matrix_text, json_text, main
from bosonloop.errors import (DENSE_DIM_CAP, ConfigError, ConvergenceError,
                              DegenerateFixedPointError, ReconstructionError,
                              SizeCapError, SpectralRadiusError, TruncationError)
from bosonloop.evolve import effective_transfer_matrix
from bosonloop.fock import FockBasis
from bosonloop.matrixkit import haar_random_unitary, save_matrix_json
from bosonloop.qstate import DensityMatrix, ProbabilityDistribution, fock_state_dm
from oracles import coherent_dm, matrix_text_by_entry

BASE = {
    "schema": 1,
    "M": 2,
    "L": 1,
    "n_max": 6,
    "iterations": 3,
    "input": {"type": "fock", "occupation": [1]},
    "unitary": {"type": "haar", "seed": 20},
    "seed": 3,
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {**BASE, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_dist(path):
    return ProbabilityDistribution.from_csv(path, check=False)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(argv, threads=None) -> int:
    """Exit code of the CLI on `argv`.  With `threads` it runs in a fresh
    interpreter with BLAS pinned to that many threads, for artifacts whose
    bytes move with the thread count (a dense eig or solve wide enough for
    OpenBLAS to split)."""
    if threads is None:
        return main(argv)
    env = {**os.environ, "PYTHONPATH": str(Path(bosonloop.__file__).parents[1]),
           **{var: str(threads) for var in BLAS_THREAD_VARS}}
    return subprocess.run([sys.executable, "-m", "bosonloop.cli", *argv], env=env,
                          capture_output=True, timeout=120).returncode


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["evolve", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["code"] == 2


def test_unknown_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, typo_key=1)
    assert main(["evolve", path, "--out", str(tmp_path / "o")]) == 2
    assert "typo_key" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_wrong_schema_rejected(tmp_path, capsys):
    path = write_config(tmp_path, schema=2)
    assert main(["evolve", path, "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_truncation_exit_3(tmp_path, capsys):
    path = write_config(tmp_path, n_max=1, iterations=5)
    assert main(["evolve", path, "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_error_paths_leave_no_partial_files(tmp_path, capsys):
    path = write_config(tmp_path, n_max=1, iterations=5)
    out = tmp_path / "o"
    assert main(["evolve", path, "--out", str(out)]) == 3
    capsys.readouterr()
    assert not out.exists() or not list(out.iterdir())


def test_evolve_pdm_and_kraus_byte_identical(tmp_path):
    path = write_config(tmp_path)
    out_pdm, out_kr = tmp_path / "pdm", tmp_path / "kraus"
    assert main(["evolve", path, "--method", "pdm", "--out", str(out_pdm)]) == 0
    assert main(["evolve", path, "--method", "kraus", "--out", str(out_kr)]) == 0
    for i in (1, 2, 3):
        name = f"distribution_iter_{i:03d}.csv"
        assert (out_pdm / name).read_bytes() == (out_kr / name).read_bytes()


_PINNED_DISTRIBUTIONS = {
    "distribution_iter_001.csv": "65fc740bc532d9cec76402f7eb5c85bbd54fabe5a347c0e6a657c0d4ce1ca911",
    "distribution_iter_002.csv": "ca40498a9aff353f153ef676de5adb2a6363673e930f3dba30ee93eb94d61df1",
    "distribution_iter_003.csv": "11b324df4280278fca03b43641338cfaa2fa4cedcda5a0eeec653f1076ce6628",
}
# sha256 of every output of the kron-based joint pass; artifacts stay
# byte-identical for the same (config, seed)
PINNED_EVOLVE_SHA256 = {
    "pdm": {**_PINNED_DISTRIBUTIONS,
            "rho_det.json": "f3979fc7db951fb8bbc8bfbfc5b9d2e54cd779eea579b3bbf886e580ba600784",
            "run_info.json": "7d43fef3a5062e353519de9ff2911290e2befb351ba3f2ac5d57bf3b70470b8b"},
    "kraus": {**_PINNED_DISTRIBUTIONS,
              "rho_det.json": "087b44d19c89ac2f07e354abf833a9174450bc2abaae679e0cefc525d2f87315",
              "run_info.json": "f6d230b5601356dade1213794a530fccf6e66b2212a314d4aae8cf6bec87f353"},
    "unfold": {**_PINNED_DISTRIBUTIONS,
               "rho_det.json": "ee4359a763e323dcdbbe7b21c2a1315d3d57a18746ef98dd0d7411866d74c0a3",
               "run_info.json": "f13fe811bfbf3fefcb8a759a4cd81254a3c3e6bbde516dc303a674edfca4b482"},
}


@pytest.mark.parametrize("method", ["pdm", "kraus", "unfold"])
def test_evolve_artifacts_pinned(tmp_path, method):
    path = write_config(tmp_path, M=4, L=2, input={"type": "fock", "occupation": [1, 1]},
                        unitary={"type": "haar", "seed": 21})
    out = tmp_path / method
    assert main(["evolve", path, "--method", method, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["path"]: e["sha256"] for e in manifest["outputs"]} == PINNED_EVOLVE_SHA256[method]


# sha256 of every output of the tensor route from its per-entry assembly loop;
# the coherent two-mode input has complex external moments
PINNED_TENSOR_SHA256 = {
    "stationary": {
        "diagnostics.json": "378d0adf3a2bc15f848e055cac1194c8c49da7024b806f29faeff4ffe6718994",
        "rho_stat.json": "1fc79ce8675ec1ef298ae8e6cd9bd46fb5a645027c5f57c2ee84e4ca059b4865",
        "stationary_distribution.csv": "d9bcb334b8a277bc12dee5478551275d083dff03f74a531559ba768ba7fae4e9",
    },
    "reconstruct": {
        "fidelity_vs_rank.csv": "d45d33ac14ab291a0b17d5efb5c7c0d57461ea989011298ef1ef7c3fd699e807",
        "reconstructed_rho.json": "2d9d916e067e9883cf7898c588982e237e2bb081aae46c55bd4162809683c60a",
        "reconstruction_report.json": "9bf8b5e59af2211f57ff99520a6bf02590e9f5dd9c7491563db7f048f5628b6d",
    },
}


_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308,
                                  float("nan"), float("inf"), float("-inf")]))
_FLOAT_ITEMS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_KEYS = st.one_of(st.text(max_size=6),
                  st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\u2028", "é", "😀", "a b"]))
# matrices: signed zeros, subnormals, huge and tiny magnitudes, and repeats
# (few distinct values), mostly finite; some transposed (Fortran order)
_MATRIX_ITEMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False))
_MATRICES = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
               elements=_MATRIX_ITEMS),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=3),
               elements=_FLOATS),
    hnp.arrays(np.float64, (3, 2), elements=_MATRIX_ITEMS).map(np.transpose),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=1), elements=_MATRIX_ITEMS),
    hnp.arrays(np.int64, (2, 2), elements=st.integers(-5, 5)))
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6), _FLOATS,
    st.lists(_FLOAT_ITEMS, max_size=6),
    st.lists(st.one_of(_FLOATS, st.integers(), st.booleans()), max_size=6), _MATRICES)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


def _as_lists(payload):
    """The payload with every numpy array replaced by its `tolist()`."""
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {k: _as_lists(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_as_lists(x) for x in payload]
    return payload


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(payload=_JSON_PAYLOADS)
def test_json_text_is_the_stdlib_indented_text(payload):
    assert json_text(payload) == json.dumps(_as_lists(payload), indent=1, sort_keys=True)


def _signed_zero_blocks(sizes=(1, 2, 3, 4), seed=5) -> np.ndarray:
    """A matrix block-diagonal in sectors of `sizes`, the shape of a detected
    density matrix, with +0 and -0 between the blocks and repeated
    magnitudes (and zeros of both signs) inside them."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    mat = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
    for start, size in zip(np.cumsum((0,) + sizes), sizes):
        block = slice(start, start + size)
        mat[block, block] = rng.standard_normal((size, size)).round(1)
    return mat


@pytest.mark.parametrize("matrix", [
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    np.array([[0.5, -1.5, 2.0], [3.25, -0.5, 1e-9]]),
    np.array([[0.0, -0.0, 0.0], [0.25, -0.0, -3.0], [-0.0, 0.0, -0.0]]),
    np.array([[0.0, 1.5, -2.5, -0.0, 1.5]]),
    np.array([[1.5], [-0.0], [0.0], [-2.5], [1.5]]),
    _signed_zero_blocks(),
    np.array([[5e-324, -5e-324, 2.5e-310], [1e300, -1e-300, 1e-300]]),
    np.array([[0.1, -0.1, 0.1], [-0.1, 0.1, 0.30000000000000004]]),
    np.array([[1.0, float("nan")], [float("inf"), -float("inf")]]),
    np.array([[-0.0]]),
    np.zeros((2, 0)),
    np.zeros((0, 3)),
    coherent_dm([0.6 + 0.4j, -0.3 + 0.5j], 3).mat.imag,
])
def test_json_text_writes_a_matrix_as_its_list(matrix):
    for payload in (matrix, {"m": matrix, "k": [matrix]}):
        assert json_text(payload) == json.dumps(_as_lists(payload), indent=1, sort_keys=True)


def _zero_runs() -> np.ndarray:
    """Rows with leading, trailing and both runs of +0, all-zero rows of
    either sign, and a -0 at each edge of a run."""
    mat = np.zeros((9, 6))
    mat[0, 2:] = [1.5, -2.5, 0.25, 1.5]
    mat[1, :4] = [0.5, -0.5, 3.0, 0.1]
    mat[2, 2:4] = [-1e-17, 2.0]
    mat[4] = -0.0
    mat[5, 0], mat[5, 3] = -0.0, 0.75
    mat[6, 2], mat[6, 5] = 0.75, -0.0
    mat[7, 1:5] = [-0.0, 0.0, 0.0, -0.0]
    mat[8, 0], mat[8, 5] = 1.0, -1.0
    return mat


@pytest.mark.parametrize("matrix", [
    _zero_runs(),
    _zero_runs()[:, ::-1],
    _signed_zero_blocks(sizes=(3, 1, 4, 2)),
    np.array([[0.0, 0.0, 1.5, 0.0, -0.0, 0.0, 0.0]]),
    np.array([[0.0], [0.0], [-2.5], [0.0], [-0.0], [0.0]]),
    np.zeros((1, 5)),
    np.zeros((4, 1)),
    np.zeros((3, 3)),
    np.random.default_rng(3).standard_normal((6, 7)),
])
def test_matrix_text_writes_zero_runs_as_the_per_entry_writer(matrix):
    for newline in ("\n", "\n   "):
        assert _matrix_text(matrix, newline) == matrix_text_by_entry(matrix, newline)
    assert json_text(matrix) == json.dumps(matrix.tolist(), indent=1)


@pytest.mark.parametrize("command", ["stationary", "reconstruct"])
def test_tensor_artifacts_pinned(tmp_path, command):
    if command == "stationary":
        coherent_dm([0.6 + 0.4j, -0.3 + 0.5j], 4).to_json(tmp_path / "in.json")
        path = write_config(tmp_path, M=3, L=1, n_max=8, input={"type": "dm", "path": "in.json"},
                            unitary={"type": "haar", "seed": 11})
        method = "tensors"
    else:
        path = write_config(tmp_path, M=3, L=2, n_max=7, unitary={"type": "haar", "seed": 39})
        method = "analytic"
    out = tmp_path / command
    # the reconstruction was recorded with BLAS at 2 threads
    threads = 2 if command == "reconstruct" else None
    assert run_cli([command, path, "--method", method, "--rank-cap", "4", "--out", str(out)],
                   threads) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["path"]: e["sha256"] for e in manifest["outputs"]} == PINNED_TENSOR_SHA256[command]


# sha256 of the outputs of the superoperator route (lossy, M=3) and of a
# stabilization study, recorded before JSON artifacts were written through the
# C encoder
PINNED_CHANNEL_SHA256 = {
    "stationary": {
        "diagnostics.json": "5300da23355a3114f7df9ec89d534539f1e29a7415bd4b26310e4728d8f2d2e3",
        "rho_stat.json": "18c53608371a90bf3c18734cae31bab8cffd30ddb3bed725f7c8a65ac9421917",
        "stationary_distribution.csv": "06b06570b5d48cdc33146238432d75f34d1f0055c79fd8c3041327081ed5aa4c",
    },
    "stabilization": {
        "stabilization_histogram.csv": "e2e97194715f151538a2c55df19028902910191d5f5bca5962b07312c413e5c6",
        "summary.json": "730dd2c417a0d8c45e8d9f798d12f93153e8467bb631c791c297fee4639dd715",
    },
}


@pytest.mark.parametrize("command", ["stationary", "stabilization"])
def test_channel_artifacts_pinned(tmp_path, command):
    if command == "stationary":
        losses = {"t_in": [0.9, 0.8, 0.95], "t_out": [1.0, 0.9, 1.0], "loop_T": 0.85}
        path = write_config(tmp_path, M=3, L=1, n_max=8, iterations=1, losses=losses,
                            input={"type": "fock", "occupation": [1, 0]},
                            unitary={"type": "haar", "seed": 12})
        argv = ["--method", "superop"]
    else:
        path = write_config(tmp_path, n_max=10, iterations=1)
        argv = ["--samples", "6", "--seed", "5"]
    out = tmp_path / command
    assert main([command, path, *argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["path"]: e["sha256"] for e in manifest["outputs"]} == PINNED_CHANNEL_SHA256[command]


# sha256 of the outputs of the convex reconstruction, the iterated stationary
# state and both sampling targets, recorded before their unused options were
# removed
PINNED_ROUTE_SHA256 = {
    "reconstruct-convex": {
        "fidelity_vs_rank.csv": "d485d383a9fd775f53cbdec8ececfe21700dc97e0822e795d9dd104857dc951c",
        "reconstructed_rho.json": "bb586a5b2a2876fab9a09471ada53c78cac44662bd87f90025a8fb835b02752a",
        "reconstruction_report.json": "60a4aa8c2e6db9ff2bd111bf20555f6540c50e89b66bb80679b1ab2c35cfadd5",
    },
    "stationary-iterate": {
        "diagnostics.json": "e2a9f6cc49c1f825e1227d3f43511b384f3f432305148b65f13e653f03a37c63",
        "rho_stat.json": "112f43e03af59b39a8bd42bd070abb010e93de60cf192c3e388020fa17c6c19d",
        "stationary_distribution.csv": "0c8a6d7d0ef3373ac17da8d1260cd356d07be209bed183217ea1d990b20e37ae",
    },
    "sample-stationary": {
        "counts.csv": "424cee913d91d14daf7fe637010fa4dd8af29fbeddc8ec57a7d532dad28c9e6d",
        "sample_info.json": "d02adec979023eea423c5cf51455b509bffe88f10d51b8258174b22ad1c097a5",
    },
    "sample-final": {
        "counts.csv": "fdb4dbfca80210077c11f0aa31e0072199e5e1cc60501706714aa17192d56f1d",
        "sample_info.json": "6c232cb020b22c9e9b1bf7ea76080f08ad6739d6f0b7b35c7165d804deb9c164",
    },
}


@pytest.mark.parametrize("route", list(PINNED_ROUTE_SHA256))
def test_route_artifacts_pinned(tmp_path, route):
    command, choice = route.split("-")
    if command == "reconstruct":
        path = write_config(tmp_path, M=3, L=2, n_max=7, unitary={"type": "haar", "seed": 39})
        argv = ["--method", choice, "--rank-cap", "3"]
    elif command == "stationary":
        path = write_config(tmp_path)
        argv = ["--method", choice]
    else:
        overrides = {"M": 3, "input": {"type": "fock", "occupation": [1, 0]}} if choice == "final" else {}
        path = write_config(tmp_path, **overrides)
        argv = ["--target", choice, "--shots", "200", "--seed", "7"]
    out = tmp_path / route
    # the reconstruction was recorded with BLAS at 2 threads
    threads = 2 if command == "reconstruct" else None
    assert run_cli([command, path, *argv, "--out", str(out)], threads) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["path"]: e["sha256"] for e in manifest["outputs"]} == PINNED_ROUTE_SHA256[route]


_LOSSY_DISTRIBUTIONS = {
    "distribution_iter_001.csv": "7071be5410c55b05d2101ee92db85f674339a3817db219123e3f25396b1377e2",
    "distribution_iter_002.csv": "f5bfb19528fa1670ffb6e89049482cd6eaee8f93e4b15a4155f0928cd1c87285",
    "distribution_iter_003.csv": "d7ec622a99f8634ae932f2959f06f80fc6de5b356e869eff8d1446949ddfbcde",
}
# sha256 of the outputs of lossy runs (composed loop and loss channels) and of
# a stabilization study whose samples climb the truncation ladder, recorded
# while charge blocks were still built by dense gathers
PINNED_LOSSY_SHA256 = {
    "evolve-pdm": {**_LOSSY_DISTRIBUTIONS,
                   "rho_det.json": "1fa4599eb7a120d2db4a5fced2e8468bba5efd7a142d00251f41c4001bc129ac",
                   "run_info.json": "7d43fef3a5062e353519de9ff2911290e2befb351ba3f2ac5d57bf3b70470b8b"},
    "evolve-kraus": {**_LOSSY_DISTRIBUTIONS,
                     "rho_det.json": "7f3c2983c32f71ae00cb0b90fa8ec586bea02b6e46dfbc3def5a99fcf202cf9b",
                     "run_info.json": "f6d230b5601356dade1213794a530fccf6e66b2212a314d4aae8cf6bec87f353"},
    "stationary-superop": {
        "diagnostics.json": "90d5d13d929b1256e8a572b0a6ed988ba4e94a5ccbc713e1c17efe8777ec103c",
        "rho_stat.json": "7a741b868fff64e4b4489c62f08934b1dd1f23fd059846d6fe8ffb8724a4015d",
        "stationary_distribution.csv": "867da88efedd0bcfb7b06312c5f6f1e2965dc89fbe82d48ce8731787a6ed55a9",
    },
    "stabilization-ladder": {
        "stabilization_histogram.csv": "d82356859407d78c4c9dc44cdbcb1bffeb237b53a30bac7086011719dbe0b632",
        "summary.json": "e6c424fe49a546cd77e62283e360ac15c7e0efdc96a9367174ef48b036d5043f",
    },
}


def _manifest_hashes(out) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    return {e["path"]: e["sha256"] for e in manifest["outputs"]}


@pytest.mark.parametrize("method", ["pdm", "kraus"])
def test_lossy_evolve_artifacts_pinned(tmp_path, method):
    losses = {"t_in": [0.9] * 4, "t_out": [0.9] * 4, "loop_T": 0.7}
    path = write_config(tmp_path, M=4, L=1, losses=losses,
                        input={"type": "fock", "occupation": [1, 1, 0]},
                        unitary={"type": "haar", "seed": 3})
    out = tmp_path / method
    assert main(["evolve", path, "--method", method, "--out", str(out)]) == 0
    assert _manifest_hashes(out) == PINNED_LOSSY_SHA256[f"evolve-{method}"]


def test_lossy_two_loop_stationary_artifacts_pinned(tmp_path):
    # the 140-wide charge-0 eig moves by ulps with the BLAS thread count, so
    # the run is pinned to one thread, in a fresh interpreter
    losses = {"t_in": [0.95] * 3, "t_out": [0.9] * 3, "loop_T": 0.8}
    path = write_config(tmp_path, M=3, L=2, losses=losses, unitary={"type": "haar", "seed": 39})
    out = tmp_path / "stationary"
    assert run_cli(["stationary", path, "--method", "superop", "--out", str(out)], 1) == 0
    assert _manifest_hashes(out) == PINNED_LOSSY_SHA256["stationary-superop"]


def test_ladder_stabilization_artifacts_pinned(tmp_path, monkeypatch):
    path = write_config(tmp_path, n_max=10, iterations=1)
    results = []
    solve = bosonloop.evolve.fixed_point
    monkeypatch.setattr(bosonloop.evolve, "fixed_point",
                        lambda channel: results.append(solve(channel)) or results[-1])
    out = tmp_path / "stabilization"
    assert main(["stabilization", path, "--samples", "4", "--seed", "3",
                 "--out", str(out)]) == 0
    assert _manifest_hashes(out) == PINNED_LOSSY_SHA256["stabilization-ladder"]
    # the samples climbed the truncation ladder and the bordered solve fell back
    assert len(results) > 4 and any(r is None for r in results)


# sha256 of the joint pass's outputs on the branches the pins above leave out,
# recorded while the pass still built the dense injected (x) loop product: an
# injected state with coherences between photon-number sectors, a single pass
# with no looped modes, and a detection pass that drops weight past n_max
_COHERENT_DISTRIBUTIONS = {
    "distribution_iter_001.csv": "d4b8bb7a94d1e7c93592609203b16513b8406de70af95809ccbe40098609dbc1",
    "distribution_iter_002.csv": "3028e3ec4676fdd349b106ec49ae8d7405103d67179d2e5ed9df79b790d6b749",
}
PINNED_JOINT_PASS_SHA256 = {
    "evolve-pdm": {**_COHERENT_DISTRIBUTIONS,
                   "distribution_iter_003.csv": "77b8aca74b7507d816f437802f7d5dc7371c1511137f78681b4731f6d26b4f97",
                   "rho_det.json": "e40ad5e80780cc76244b321a6a08a884559e4a1af332a5837a19c91a0df66e8d",
                   "run_info.json": "01e17dd5ea38ae51e251fca8c6bd15c684265914ca85514367ceddf19b8b24d6"},
    "evolve-kraus": {**_COHERENT_DISTRIBUTIONS,
                     "distribution_iter_003.csv": "d98c02c5b7da79bbf950246289c8bad24f3bacbe5de1199d98a82052fe1130b2",
                     "rho_det.json": "773f89dcff4d0ecb95cf4c32d027af416e12398a3f91c2a18d860526593c4214",
                     "run_info.json": "7f536df9e1d2ef78542a76b78730a0e2c059c902e29a4f9f2a6976beb420e074"},
    "evolve-single": {
        "distribution_iter_001.csv": "7e77f54e56dfe7260d0994925331f649e7212a34a47098c63b05fe59d0992a95",
        "distribution_iter_002.csv": "7e77f54e56dfe7260d0994925331f649e7212a34a47098c63b05fe59d0992a95",
        "rho_det.json": "51d2712b4ef031a60f2651e12071c4ae893f8df161887f782c04ff4e1016bf73",
        "run_info.json": "5315716a49e2ffe1923515ab429b807e255f9a151b0d60e82a83931b2a5dc8ee",
    },
    "stationary-drop": {
        "diagnostics.json": "050c2d451f77c4f447dbe7b870909c11024d4d10852fe5a1b4e4cb48433e193f",
        "rho_stat.json": "a0621c046c34011b24e857f9ccf94a9c1dbbef957496106b2f13c88521b3345d",
        "stationary_distribution.csv": "d36c4b22328f16d7560accea7f0356627e813da4878b9657dea7e6f81e05a571",
    },
}


@pytest.mark.parametrize("method", ["pdm", "kraus"])
def test_coherent_input_evolve_artifacts_pinned(tmp_path, method):
    coherent_dm([0.3 + 0.2j, -0.1 + 0.25j], 4).to_json(tmp_path / "in.json")
    path = write_config(tmp_path, M=3, n_max=10, input={"type": "dm", "path": "in.json"},
                        unitary={"type": "haar", "seed": 17})
    out = tmp_path / method
    assert main(["evolve", path, "--method", method, "--out", str(out)]) == 0
    assert _manifest_hashes(out) == PINNED_JOINT_PASS_SHA256[f"evolve-{method}"]


def test_single_pass_artifacts_pinned(tmp_path):
    coherent_dm([0.4 + 0.2j, -0.3j, 0.5], 3).to_json(tmp_path / "in.json")
    path = write_config(tmp_path, M=3, L=0, n_max=3, iterations=2,
                        input={"type": "dm", "path": "in.json"},
                        unitary={"type": "haar", "seed": 18})
    out = tmp_path / "single"
    assert main(["evolve", path, "--out", str(out)]) == 0
    assert _manifest_hashes(out) == PINNED_JOINT_PASS_SHA256["evolve-single"]


def test_dropping_detection_pass_artifacts_pinned(tmp_path, monkeypatch):
    path = write_config(tmp_path, n_max=8, iterations=1, unitary={"type": "haar", "seed": 6})
    leaks = []
    weigh = bosonloop.evolve.overflow_weight
    monkeypatch.setattr(bosonloop.evolve, "overflow_weight",
                        lambda *args: leaks.append(weigh(*args)) or leaks[-1])
    out = tmp_path / "stationary"
    assert main(["stationary", path, "--method", "superop", "--out", str(out)]) == 0
    assert _manifest_hashes(out) == PINNED_JOINT_PASS_SHA256["stationary-drop"]
    # the one detection pass renormalized after dropping weight past n_max
    assert len(leaks) == 1 and leaks[0] > 0


def test_dm_input_on_a_larger_truncation(tmp_path):
    # |1><1| stored at n_max=5 runs as the Fock input (1,) at the config's n_max=2
    fock_state_dm(FockBasis(1, 5), (1,)).to_json(tmp_path / "in.json")
    path = write_config(tmp_path, n_max=2, iterations=2,
                        input={"type": "dm", "path": "in.json"})
    assert main(["evolve", path, "--out", str(tmp_path / "dm")]) == 0
    path = write_config(tmp_path, n_max=2, iterations=2)
    assert main(["evolve", path, "--out", str(tmp_path / "fock")]) == 0
    for name in ("distribution_iter_002.csv", "rho_det.json"):
        assert (tmp_path / "dm" / name).read_bytes() == (tmp_path / "fock" / name).read_bytes()


def test_evolve_unfold_agrees(tmp_path):
    path = write_config(tmp_path, n_max=3)
    out_u, out_p = tmp_path / "unf", tmp_path / "pdm"
    assert main(["evolve", path, "--method", "unfold", "--out", str(out_u)]) == 0
    assert main(["evolve", path, "--method", "pdm", "--out", str(out_p)]) == 0
    for i in (1, 2, 3):
        name = f"distribution_iter_{i:03d}.csv"
        a = read_dist(out_u / name)
        b = read_dist(out_p / name)
        assert 0.5 * np.abs(a.probabilities - b.probabilities).sum() < 1e-10


def test_evolve_without_loop_matches_single_pass(tmp_path):
    path = write_config(tmp_path, L=0, n_max=1, iterations=2,
                        input={"type": "fock", "occupation": [1, 0]})
    out = tmp_path / "o"
    assert main(["evolve", path, "--out", str(out)]) == 0
    a = read_dist(out / "distribution_iter_001.csv")
    b = read_dist(out / "distribution_iter_002.csv")
    np.testing.assert_array_equal(a.probabilities, b.probabilities)
    # single-pass reference: |U[0,0]|^2 on (1,0), |U[1,0]|^2 on (0,1)
    from bosonloop.matrixkit import haar_random_unitary
    u = haar_random_unitary(2, 20)
    assert a.probability_of((1, 0)) == pytest.approx(abs(u[0, 0]) ** 2, abs=1e-12)
    assert a.probability_of((0, 1)) == pytest.approx(abs(u[1, 0]) ** 2, abs=1e-12)


def test_stationary_methods_agree(tmp_path):
    # moderate losses keep the stationary state narrow so a rank-6 tensor
    # reconstruction reaches the 1e-7 agreement band
    losses = {"t_in": [0.8, 0.8], "t_out": [1.0, 1.0], "loop_T": 0.8}
    path = write_config(tmp_path, n_max=10, iterations=1, losses=losses)
    rhos = {}
    for method in ("superop", "iterate", "tensors"):
        out = tmp_path / method
        code = main(["stationary", path, "--method", method,
                     "--rank-cap", "6", "--out", str(out)])
        assert code == 0
        rhos[method] = DensityMatrix.from_json(out / "rho_stat.json")
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["spectral_radius_u_ll"] < 1.0
    from bosonloop.qstate import trace_distance
    a, b, c = rhos["superop"], rhos["iterate"], rhos["tensors"]
    assert trace_distance(a, b) < 1e-7
    d = min(a.basis.size, c.basis.size)
    top = np.zeros((a.basis.size,) * 2, dtype=complex)
    top[:d, :d] = c.mat[:d, :d]
    assert 0.5 * np.abs(np.linalg.eigvalsh(a.mat - top)).sum() < 1e-7


def test_stationary_decoupled_exits_4(tmp_path, capsys):
    u = np.diag([1.0, np.exp(0.4j)])
    save_matrix_json(u, tmp_path / "u.json")
    path = write_config(tmp_path, unitary={"type": "file", "path": "u.json"},
                        n_max=4, iterations=1)
    for method in ("superop", "tensors", "iterate"):
        out = tmp_path / f"dec_{method}"
        code = main(["stationary", path, "--method", method, "--out", str(out)])
        assert code == 4
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == 4
        assert not out.exists() or not list(out.iterdir())


def test_sample_counts_and_determinism(tmp_path):
    path = write_config(tmp_path, n_max=10, iterations=1)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sample", path, "--shots", "500", "--seed", "9",
                 "--out", str(out1)]) == 0
    assert main(["sample", path, "--shots", "500", "--seed", "9",
                 "--out", str(out2)]) == 0
    counts1 = (out1 / "counts.csv").read_bytes()
    assert counts1 == (out2 / "counts.csv").read_bytes()
    total = sum(int(line.split(";")[1]) for line in counts1.decode().splitlines())
    assert total == 500
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
    assert m1["outputs"] == m2["outputs"]


def test_sample_final_iteration_target(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "fin"
    assert main(["sample", path, "--shots", "50", "--seed", "1",
                 "--target", "final", "--out", str(out)]) == 0
    counts = (out / "counts.csv").read_text().splitlines()
    assert sum(int(line.split(";")[1]) for line in counts) == 50


def test_stabilization_outputs(tmp_path):
    path = write_config(tmp_path, n_max=14, iterations=1)
    out = tmp_path / "st"
    assert main(["stabilization", path, "--samples", "10", "--seed", "4",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == 10
    hist = (out / "stabilization_histogram.csv").read_text().splitlines()
    total = sum(int(line.split(";")[1]) for line in hist)
    assert total + summary["skipped_degenerate"] == 10
    assert summary["median"] is not None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(times=st.lists(st.integers(0, 10 ** 5), min_size=1, max_size=300))
def test_summary_quartiles_and_mean_are_numpys(times):
    # exact arithmetic on the sorted integers gives np.percentile's linear
    # quartiles and np.mean's mean, float for float
    ordered = sorted(times)
    got = [bosonloop.cli._quartile(ordered, k) for k in (1, 2, 3)] + [sum(times) / len(times)]
    want = [float(q) for q in np.percentile(np.array(ordered), [25, 50, 75])]
    want.append(float(np.array(ordered).mean()))
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_reconstruct_report(tmp_path):
    losses = {"t_in": [0.5, 0.5], "t_out": [1.0, 1.0], "loop_T": 0.5}
    path = write_config(tmp_path, n_max=8, iterations=1, losses=losses)
    out = tmp_path / "rec"
    assert main(["reconstruct", path, "--method", "analytic",
                 "--rank-cap", "4", "--out", str(out)]) == 0
    report = json.loads((out / "reconstruction_report.json").read_text())
    assert report["fidelity_vs_reference"] > 0.999
    rows = (out / "fidelity_vs_rank.csv").read_text().splitlines()
    assert len(rows) == 4
    fids = [float(r.split(";")[1]) for r in rows]
    assert fids[-1] > 0.999
    # high-loss fixtures give a monotone non-decreasing rank sweep
    assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:]))


def test_manifest_lists_all_outputs(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "m"
    assert main(["evolve", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {entry["path"] for entry in manifest["outputs"]}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    assert manifest["subcommand"] == "evolve"
    assert manifest["wall_time_s"] >= 0


def test_size_cap_exits_6_with_json_error(tmp_path, capsys):
    # the unfolded 10-iteration interferometer has a 184756-state sector
    path = write_config(tmp_path, n_max=None, iterations=10)
    out = tmp_path / "o"
    assert main(["evolve", path, "--method", "unfold", "--out", str(out)]) == 6
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["code"], err["type"]) == (EXIT_SIZE_CAP, "SizeCapError")
    assert err["cap"] == 100_000 and err["required"] == 184756
    assert captured.err == ""
    assert not out.exists() or not list(out.iterdir())


def test_unfold_size_cap_is_checked_before_unfolding(tmp_path, capsys, monkeypatch):
    # 400 iterations of (1, 1) into M=3, L=1 unfold to 800 photons in 801 modes
    def build(config):
        raise AssertionError("the unfolded transfer matrix was built before the size check")
    monkeypatch.setattr(bosonloop.evolve, "unfold", build)
    path = write_config(tmp_path, M=3, n_max=None, iterations=400,
                        input={"type": "fock", "occupation": [1, 1]})
    out = tmp_path / "o"
    assert main(["evolve", path, "--method", "unfold", "--out", str(out)]) == 6
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"]) == (EXIT_SIZE_CAP, "SizeCapError")
    assert (err["cap"], err["required"]) == (100_000, comb(1600, 800))
    assert not out.exists()


def test_oversized_joint_fock_space_exits_6_before_building_it(tmp_path, capsys):
    # 12 modes up to 33 photons span 28,760,021,745 joint states
    path = write_config(tmp_path, M=12, L=1, n_max=33, iterations=1,
                        input={"type": "fock", "occupation": [1] + [0] * 10})
    out = tmp_path / "o"
    started = time.monotonic()
    assert main(["evolve", path, "--out", str(out)]) == 6
    assert time.monotonic() - started < 1.0
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"]) == (6, "SizeCapError")
    assert (err["cap"], err["required"]) == (DENSE_DIM_CAP, 28760021745)
    assert not out.exists()


@pytest.mark.parametrize("error, code", [
    (ConfigError("bad request"), 2),
    (TruncationError("leak"), 3),
    (DegenerateFixedPointError("degenerate"), 4),
    (SpectralRadiusError("radius"), 4),
    (ReconstructionError("no moments"), 5),
    (SizeCapError("too big", cap=4096, required=5000), 6),
    (ConvergenceError("no convergence"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_package_error_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, error, code):
    def fail(config):
        raise error
    monkeypatch.setattr(bosonloop.cli, "evolve_pdm", fail)
    out = tmp_path / "o"
    assert main(["evolve", write_config(tmp_path), "--out", str(out)]) == code
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"], err["message"]) == (code, type(error).__name__, str(error))
    if isinstance(error, SizeCapError):
        assert (err["cap"], err["required"]) == (4096, 5000)
    else:
        assert "cap" not in err and "required" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, required", [
    ({"iterations": 4, "n_max": 2, "unitary": {"type": "haar", "seed": 3}}, 4),
    ({"M": 3, "iterations": 2, "n_max": 1, "input": {"type": "fock", "occupation": [1, 1]}},
     4),
], ids=["leak", "below-input"])
def test_a_truncation_error_reports_its_required_n_max(tmp_path, capsys, overrides, required):
    out = tmp_path / "o"
    assert main(["evolve", write_config(tmp_path, **overrides), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"]) == (3, "TruncationError")
    assert err["required_n_max"] == required
    assert "cap" not in err and "required" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("argv", [["evolve", "--method", "pdm"],
                                  ["evolve", "--method", "kraus"], ["stationary"]],
                         ids=["pdm", "kraus", "stationary"])
def test_a_non_finite_density_matrix_input_exits_2(tmp_path, capsys, value, argv):
    # json.dumps writes NaN and Infinity, and json.load reads them back
    (tmp_path / "rho.json").write_text(json.dumps(
        {"modes": 1, "n_max": 1, "re": [[value, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0]] * 2}))
    path = write_config(tmp_path, iterations=2, n_max=3,
                        input={"type": "dm", "path": "rho.json"},
                        unitary={"type": "haar", "seed": 3})
    out = tmp_path / "o"
    assert main([argv[0], path, *argv[1:], "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"]) == (2, "ConfigError")
    assert "non-finite" in err["message"]
    assert not out.exists()


def test_samples_above_the_cap_exit_2_before_any_draw(tmp_path, capsys, monkeypatch):
    calls = []

    def fake(args, config, stager):
        calls.append(args.samples)
        stager.add_text("fake.txt", "ok\n")
    monkeypatch.setattr(bosonloop.cli, "cmd_stabilization", fake)
    path = write_config(tmp_path)
    cap = bosonloop.cli.MAX_SAMPLES
    assert cap == 10 ** 5
    assert main(["stabilization", path, "--samples", str(cap),
                 "--out", str(tmp_path / "at")]) == 0
    assert calls == [cap]
    out = tmp_path / "above"
    assert main(["stabilization", path, "--samples", str(cap + 1), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"]) == (2, "ConfigError")
    assert err["message"] == f"--samples must be <= {cap}, got {cap + 1}"
    assert calls == [cap]
    assert not out.exists()


def test_a_memory_error_exits_6_with_a_json_error(tmp_path, capsys, monkeypatch):
    def fail(args, config, stager):
        raise MemoryError("Unable to allocate 14.4 GiB")
    monkeypatch.setattr(bosonloop.cli, "cmd_stationary", fail)
    out = tmp_path / "o"
    assert main(["stationary", write_config(tmp_path), "--out", str(out)]) == EXIT_SIZE_CAP
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": EXIT_SIZE_CAP, "type": "MemoryError",
                   "message": "Unable to allocate 14.4 GiB"}
    assert not out.exists()


# values far past every cap, for the fields whose caps refuse before any work
_OVERSIZED = {"M": 30000, "n_max": 10 ** 6, "iterations": 10 ** 9, "occupation": 10 ** 6,
              "rank_cap": 10 ** 6}
_SWEEP_CHOICES = [("evolve", "--method", "unfold"), ("evolve", "--method", "pdm"),
                  ("evolve", "--method", "kraus"), ("stationary", "--method", "superop"),
                  ("stationary", "--method", "iterate"), ("stationary", "--method", "tensors"),
                  ("stabilization", "--samples", "2"), ("reconstruct", "--method", "analytic"),
                  ("reconstruct", "--method", "convex"), ("sample", "--target", "stationary"),
                  ("sample", "--target", "final")]
# runs each command line through one `main` and prints its exit code, the
# name of anything that escaped `main`, and its last stdout line
_SWEEP_CHILD = r"""
import contextlib, io, json, resource, sys
limit = 5 << 29
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from bosonloop.cli import main
for argv in json.load(sys.stdin):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code, escaped = main(argv), None
    except Exception as exc:
        code, escaped = None, type(exc).__name__
    lines = out.getvalue().splitlines() or [""]
    print(json.dumps({"code": code, "escaped": escaped, "last": lines[-1]}), flush=True)
"""


def _sweep_config(rng, oversized) -> dict:
    """A small random config with at most one field set far past its cap."""
    modes = _OVERSIZED["M"] if oversized == "M" else rng.randint(2, 3)
    looped = rng.randint(0 if rng.random() < 0.2 else 1, min(modes - 1, 2))
    occupation = [rng.randint(0, 1) for _ in range(min(modes - looped, 3))]
    occupation += [0] * (modes - looped - len(occupation))
    if oversized in ("M", "iterations"):  # one photon, so n_max = iterations * N_env
        occupation[0] = 1
    if oversized == "occupation":
        occupation[0] = _OVERSIZED["occupation"]
    cfg = {"schema": 1, "M": modes, "L": looped, "input": {"type": "fock", "occupation": occupation},
           "iterations": _OVERSIZED["iterations"] if oversized == "iterations" else rng.randint(1, 3),
           "unitary": {"type": "haar", "seed": rng.randint(0, 999)}, "seed": rng.randint(0, 99)}
    if oversized == "n_max" or (oversized != "iterations" and rng.random() < 0.7):
        cfg["n_max"] = _OVERSIZED["n_max"] if oversized == "n_max" else rng.randint(1, 8)
    if rng.random() < 0.3:
        cfg["losses"] = {"t_in": [0.9] * modes, "t_out": [0.8] * modes, "loop_T": 0.7}
    return cfg


def _sweep_command_lines(tmp_path, seed: int, per_choice: int) -> list:
    """`per_choice` generated command lines for every subcommand and choice,
    then the three large-M ones, whose M x M draw or unfolded matrix must be
    refused before it is built."""
    rng = random.Random(seed)
    plans = [(choice, rng.choice([None, None, *_OVERSIZED])) for choice in _SWEEP_CHOICES
             for _ in range(per_choice)]
    argvs = []
    for (command, flag, value), oversized in plans:
        path = tmp_path / f"c{len(argvs)}.json"
        path.write_text(json.dumps(_sweep_config(rng, oversized)))
        argv = [command, str(path), flag, value, "--out", str(tmp_path / f"o{len(argvs)}")]
        if command == "sample":
            argv += ["--shots", "10"]
        if value in ("tensors", "analytic", "convex"):
            rank = _OVERSIZED["rank_cap"] if oversized == "rank_cap" else rng.randint(1, 3)
            argv += ["--rank-cap", str(rank)]
        argvs.append(argv)
    large = write_config(tmp_path, "large.json", M=30000, L=1, n_max=2,
                         input={"type": "fock", "occupation": [1] + [0] * 29998})
    for extra in (["stabilization", "--samples", "2"], ["evolve", "--method", "unfold"],
                  ["stationary", "--method", "tensors"]):
        argvs.append([extra[0], large, *extra[1:], "--out", str(tmp_path / f"o{len(argvs)}")])
    return argvs


def test_fuzzed_command_lines_exit_cleanly_under_a_memory_limit(tmp_path):
    # one child under a 2.5 GB address-space limit runs every command line:
    # each exits 0 or prints a JSON error whose code is its type's, and
    # nothing escapes as a traceback
    argvs = _sweep_command_lines(tmp_path, seed=15, per_choice=8)
    env = {**os.environ, "PYTHONPATH": str(Path(bosonloop.__file__).parents[1]),
           **{var: "1" for var in BLAS_THREAD_VARS}}
    proc = subprocess.run([sys.executable, "-c", _SWEEP_CHILD], input=json.dumps(argvs),
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(argvs)
    for argv, result in zip(argvs, results):
        assert result["escaped"] is None, (argv, result)
        if result["code"] != 0:
            error = json.loads(result["last"])["error"]
            kind = getattr(bosonloop.errors, error["type"], None) or getattr(builtins, error["type"])
            expected = next((c for k, c in _EXIT_CODES if issubclass(kind, k)), 1)
            assert result["code"] == error["code"] == expected, (argv, error)
    for result in results[-3:]:
        error = json.loads(result["last"])["error"]
        assert (result["code"], error["type"]) == (EXIT_SIZE_CAP, "SizeCapError")
        assert error["cap"] == DENSE_DIM_CAP


def test_an_oversized_density_matrix_header_exits_2_before_its_basis_is_built(tmp_path):
    # a 1 x 1 matrix under headers whose bases hold 32.8 million states and
    # far more: each file is refused from its header and matrix width, under
    # the sweep's 2.5 GB address-space limit, without enumerating the basis
    argvs = []
    for modes, n_max in ((5, 80), (30000, 10 ** 6)):
        rho = tmp_path / f"rho_{modes}.json"
        rho.write_text(json.dumps({"modes": modes, "n_max": n_max, "re": [[1.0]], "im": [[0.0]]}))
        path = write_config(tmp_path, f"dm_{modes}.json", M=6, L=1, n_max=3,
                            input={"type": "dm", "path": rho.name})
        argvs.append(["evolve", path, "--out", str(tmp_path / f"o{modes}")])
    env = {**os.environ, "PYTHONPATH": str(Path(bosonloop.__file__).parents[1]),
           **{var: "1" for var in BLAS_THREAD_VARS}}
    proc = subprocess.run([sys.executable, "-c", _SWEEP_CHILD], input=json.dumps(argvs),
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    for (modes, n_max), line in zip(((5, 80), (30000, 10 ** 6)), proc.stdout.splitlines()):
        result = json.loads(line)
        assert (result["code"], result["escaped"]) == (2, None)
        error = json.loads(result["last"])["error"]
        assert error["type"] == "ConfigError"
        assert f"modes={modes}, n_max={n_max}" in error["message"]


def test_failed_manifest_write_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == "manifest.json":
            raise OSError("disk full")
        replace(src, dst)
    monkeypatch.setattr(os, "replace", failing_replace)
    out = tmp_path / "o"
    assert main(["evolve", write_config(tmp_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["code"], err["type"]) == (1, "OutputError")
    assert "disk full" in err["message"]
    assert captured.err == ""
    # the data files renamed into place before the manifest failed are gone too
    assert out.is_dir() and not list(out.iterdir())


def test_failed_data_file_write_removes_the_files_before_it(tmp_path, monkeypatch, capsys):
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == "rho_det.json":
            raise PermissionError("read-only")
        replace(src, dst)
    monkeypatch.setattr(os, "replace", failing_replace)
    out = tmp_path / "o"
    assert main(["evolve", write_config(tmp_path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"]) == (1, "OutputError")
    assert not list(out.iterdir())


def test_out_naming_a_file_exits_1_with_json_error(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("keep")
    assert main(["evolve", write_config(tmp_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["code"], err["type"]) == (1, "OutputError")
    assert str(out) in err["message"]
    assert captured.err == ""
    assert out.read_text() == "keep"


def test_a_failed_rewrite_leaves_no_stale_manifest(tmp_path, monkeypatch, capsys):
    config, out = write_config(tmp_path), tmp_path / "o"
    assert main(["evolve", config, "--out", str(out)]) == 0
    replace = os.replace

    def failing_replace(src, dst):
        if os.path.basename(dst) == "rho_det.json":
            raise PermissionError("read-only")
        replace(src, dst)
    monkeypatch.setattr(os, "replace", failing_replace)
    (out / "notes.txt").write_text("keep")
    assert main(["evolve", config, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "OutputError"
    # the distribution files the rerun put in place are removed again, and so
    # are the first run's manifest, which named them, and its run_info.json,
    # after rho_det.json in write order: no output of the command is left
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_rewriting_an_output_directory_renames_onto_no_existing_name(tmp_path, monkeypatch):
    config, out, fresh = write_config(tmp_path), tmp_path / "o", tmp_path / "fresh"
    argv = ["evolve", config, "--method", "kraus"]
    assert main([*argv, "--out", str(fresh)]) == 0
    assert main([*argv, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("keep")
    replace = os.replace

    def checked_replace(src, dst):
        # a rename onto an existing file starts its writeback on ext4
        assert not os.path.lexists(dst), dst
        replace(src, dst)
    monkeypatch.setattr(os, "replace", checked_replace)
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "notes.txt").read_text() == "keep"
    assert _data_files(out) == {**_data_files(fresh), "notes.txt": b"keep"}
    assert _manifest_hashes(out) == {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir() if p.name not in ("manifest.json", "notes.txt")}
    assert not list(out.glob(".*"))


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
def test_outputs_take_the_mode_open_gives_under_the_umask(tmp_path, umask):
    out = tmp_path / "o"
    old = os.umask(umask)
    try:
        assert main(["evolve", write_config(tmp_path), "--out", str(out)]) == 0
        (tmp_path / "plain").write_text("")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert len(modes) == 6
    assert set(modes.values()) == {0o666 & ~umask} == \
        {stat.S_IMODE((tmp_path / "plain").stat().st_mode)}


def test_leftover_temp_names_are_passed_over(tmp_path, monkeypatch):
    # temp files of this pid left by a crashed run: a file, a directory and
    # a symlink to a missing target hold the first counter values of every
    # output name; the run takes the next values and touches none of them
    config, fresh, out = write_config(tmp_path), tmp_path / "fresh", tmp_path / "o"
    assert main(["evolve", config, "--out", str(fresh)]) == 0
    out.mkdir()
    monkeypatch.setattr(bosonloop.cli, "_temp_count", itertools.count())
    target = tmp_path / "not_here"
    leftovers = []
    for name in [p.name for p in fresh.iterdir()]:
        for n in range(8):
            leftover = out / f".{name}.{os.getpid()}.{n}"
            if n % 3 == 0:
                leftover.write_text("old")
            elif n % 3 == 1:
                leftover.mkdir()
            else:
                leftover.symlink_to(target)
            leftovers.append(leftover)
    assert main(["evolve", config, "--out", str(out)]) == 0
    assert set(out.glob(".*")) == set(leftovers)
    assert {p.name: p.read_bytes() for p in out.glob("[!.]*") if p.name != "manifest.json"} \
        == _data_files(fresh)
    assert _manifest_hashes(out) == _manifest_hashes(fresh)
    assert not target.exists()
    assert all(p.read_text() == "old" for p in leftovers if p.is_file() and not p.is_symlink())


class _FailingFile(io.BufferedWriter):
    """A temp file whose bytes never reach the disk: writing them out on
    close fails as a full disk would."""

    def flush(self):
        raise OSError(28, "No space left on device")


def test_a_failed_write_closes_and_removes_its_temp_file(tmp_path, monkeypatch, capsys):
    # the third output's bytes fail to reach the disk
    opened = []

    def recorded_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if mode == "xb":
            if len(opened) == 2:
                fh = _FailingFile(fh.detach())
            opened.append(fh)
        return fh
    monkeypatch.setattr(bosonloop.cli, "open", recorded_open, raising=False)
    out = tmp_path / "o"
    assert main(["evolve", write_config(tmp_path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["code"], err["type"]) == (1, "OutputError")
    assert "No space left" in err["message"]
    assert len(opened) == 3 and all(fh.closed for fh in opened)
    assert not list(out.iterdir())


@pytest.mark.parametrize("name", ["rho_det.json", "manifest.json"])
def test_an_output_name_held_by_a_directory_exits_1(tmp_path, capsys, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    assert main(["evolve", write_config(tmp_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["code"], err["type"]) == (1, "OutputError")
    assert captured.err == ""
    assert [p.name for p in out.iterdir()] == [name]


def test_stationary_superop_two_looped_modes_n_max_10(tmp_path):
    # the whole superoperator has dimension 4356; its largest charge block 506
    path = write_config(tmp_path, M=4, L=2, n_max=10, iterations=1,
                        input={"type": "fock", "occupation": [1, 0]},
                        unitary={"type": "haar", "seed": 1})
    out = tmp_path / "stat"
    assert main(["stationary", path, "--method", "superop", "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert abs(complex(*diag["stationary_eigenvalue"]) - 1.0) < 1e-6
    assert diag["second_largest_eigenvalue_modulus"] < 1.0
    rho = DensityMatrix.from_json(out / "rho_stat.json")
    assert rho.basis.size == 66


def test_import_leaves_scipy_unloaded():
    code = ("import sys, bosonloop.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'concurrent.futures'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(bosonloop.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_import_and_load_config_build_no_parser(tmp_path):
    # setup_s times exactly these two steps; the parser is built on the first main call
    code = ("import sys, bosonloop.cli as cli; cli.load_config(sys.argv[1]); "
            "print(cli._build_parser.cache_info().misses)")
    env = {**os.environ, "PYTHONPATH": str(Path(bosonloop.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, write_config(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("argv, fragment", [
    pytest.param(["evolve", "CONFIG", "--method", "bogus", "--out", "OUT"], "--method",
                 id="unknown-method"),
    pytest.param(["bogus", "CONFIG", "--out", "OUT"], "invalid choice: 'bogus'",
                 id="unknown-subcommand"),
    pytest.param(["evolve", "CONFIG"], "--out", id="missing-out"),
    pytest.param(["stabilization", "CONFIG", "--samples", "abc", "--out", "OUT"],
                 "--samples", id="samples-not-int"),
    pytest.param(["evolve", "CONFIG", "--out", "OUT", "--extra"], "--extra",
                 id="unrecognized-argument"),
    pytest.param([], "command", id="no-subcommand"),
])
def test_bad_command_line_exits_2_with_json_error(tmp_path, capsys, argv, fragment):
    config = write_config(tmp_path)
    subs = {"CONFIG": config, "OUT": str(tmp_path / "o")}
    assert main([subs.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["code"], err["type"]) == (2, "ConfigError")
    assert fragment in err["message"]
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["evolve", "--help"])
    assert info.value.code == 0
    assert "--method" in capsys.readouterr().out


def _data_files(out) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


def test_repeated_calls_in_one_process(tmp_path, capsys):
    stab = write_config(tmp_path, "stab.json", n_max=14, iterations=1)
    stab_argv = ["stabilization", stab, "--samples", "3", "--seed", "5"]
    first, second = tmp_path / "first", tmp_path / "second"
    evolve = write_config(tmp_path)
    assert main([*stab_argv, "--out", str(first)]) == 0
    assert main(["evolve", evolve, "--method", "kraus", "--out", str(tmp_path / "ev")]) == 0
    assert main(["evolve", evolve, "--method", "bogus", "--out", str(tmp_path / "bad")]) == 2
    assert main([*stab_argv, "--out", str(second)]) == 0
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"
    assert _data_files(first) == _data_files(second)
    assert not (tmp_path / "bad").exists()
    assert bosonloop.cli._build_parser.cache_info().misses == 1


def test_rebinding_a_subcommand_after_the_parser_exists_takes_effect(tmp_path, monkeypatch):
    bosonloop.cli._build_parser()
    calls = []

    def fake(args, config, stager):
        calls.append(args.samples)
        stager.add_text("fake.txt", "ok\n")
    monkeypatch.setattr(bosonloop.cli, "cmd_stabilization", fake)
    out = tmp_path / "o"
    assert main(["stabilization", write_config(tmp_path), "--samples", "7",
                 "--out", str(out)]) == 0
    assert calls == [7]
    assert (out / "fake.txt").read_text() == "ok\n"


NON_UNITARY = {"rows": 2, "cols": 2, "re": [1, 1, 0, 1], "im": [0, 0, 0, 0]}
NO_LOOP = {"M": 3, "L": 0, "input": {"type": "fock", "occupation": [1, 0, 0]}}


@pytest.mark.parametrize("overrides, argv", [
    pytest.param({"input": [1]}, ["evolve"], id="input-not-object"),
    pytest.param({"unitary": "haar"}, ["evolve"], id="unitary-not-object"),
    pytest.param({"unitary": {"type": "file", "path": "u.json"}}, ["evolve"],
                 id="non-unitary-file"),
    pytest.param({"losses": {"t_in": [1.5, 1.0]}}, ["evolve"], id="t_in-above-1"),
    pytest.param({"losses": {"loop_T": -0.1}}, ["evolve"], id="loop_T-negative"),
    pytest.param({"losses": {"t_in": [0.5, 1.0]}}, ["evolve", "--method", "unfold"],
                 id="unfold-with-losses"),
    pytest.param(NO_LOOP, ["stationary"], id="L0-stationary"),
    pytest.param(NO_LOOP, ["stationary", "--method", "iterate"], id="L0-iterate"),
    pytest.param(NO_LOOP, ["stationary", "--method", "tensors"], id="L0-tensors"),
    pytest.param(NO_LOOP, ["stabilization", "--samples", "2"], id="L0-stabilization"),
    pytest.param(NO_LOOP, ["reconstruct"], id="L0-reconstruct"),
    pytest.param(NO_LOOP, ["sample"], id="L0-sample"),
    pytest.param({}, ["sample", "--shots", "0"], id="shots-0"),
    pytest.param({}, ["sample", "--shots", str(10 ** 9 + 1)], id="shots-over-cap"),
    pytest.param({"n_max": None, "iterations": 10 ** 9,
                  "input": {"type": "fock", "occupation": [0]}},
                 ["evolve", "--method", "kraus"], id="vacuum-iterations-over-cap"),
    pytest.param({}, ["sample", "--seed", "-1"], id="cli-seed-negative"),
    pytest.param({}, ["reconstruct", "--rank-cap", "0"], id="rank-cap-0"),
    pytest.param({}, ["stationary", "--method", "tensors", "--rank-cap", "0"],
                 id="tensors-rank-cap-0"),
    pytest.param({}, ["stabilization", "--samples", "-1"], id="samples-negative"),
    *(pytest.param({}, ["stabilization", "--samples", "2", "--tolerance", value],
                   id=f"tolerance-{value}") for value in ("nan", "-1", "0", "2")),
    pytest.param({"seed": -1}, ["sample"], id="config-seed-negative"),
    pytest.param({"unitary": {"type": "haar", "seed": -1}}, ["evolve"],
                 id="haar-seed-negative"),
])
def test_invalid_request_exits_2_with_json_error(tmp_path, capsys, overrides, argv):
    (tmp_path / "u.json").write_text(json.dumps(NON_UNITARY))
    path = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main([argv[0], path, *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (err["code"], err["type"]) == (2, "ConfigError")
    assert "Traceback" not in captured.err
    assert not out.exists()


def _write_matrix_csv(matrix, path) -> None:
    path.write_text("".join(",".join(repr(complex(x)) for x in row) + "\n" for row in matrix))


@pytest.mark.parametrize("name, matrix", [
    ("wrong_shape.json", haar_random_unitary(3, 1)),
    ("non_unitary.csv", np.diag([0.5, 1.0])),
    ("non_square.csv", np.eye(2, 3)),
])
def test_malformed_matrix_file_exits_2(tmp_path, capsys, name, matrix):
    path = tmp_path / name
    save_matrix_json(matrix, path) if name.endswith(".json") else _write_matrix_csv(matrix, path)
    config = write_config(tmp_path, unitary={"type": "file", "path": name})
    for method in ("unfold", "pdm"):
        out = tmp_path / method
        assert main(["evolve", config, "--method", method, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["code"], err["type"]) == (2, "ConfigError")
        assert not out.exists()


@pytest.mark.parametrize("method", ["pdm", "kraus", "unfold"])
def test_csv_matrix_gives_the_json_matrix_artifacts(tmp_path, method):
    u = haar_random_unitary(3, 39)
    save_matrix_json(u, tmp_path / "u.json")
    _write_matrix_csv(u, tmp_path / "u.csv")
    outputs = []
    for kind in ("json", "csv"):
        config = write_config(tmp_path, f"{kind}.json", M=3, L=2, n_max=7, iterations=2,
                              unitary={"type": "file", "path": f"u.{kind}"})
        out = tmp_path / kind
        assert main(["evolve", config, "--method", method, "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert outputs[0] == outputs[1] and "rho_det.json" in outputs[0]


@pytest.mark.parametrize("argv", [
    ["stationary", "--method", "superop"], ["stationary", "--method", "iterate"],
    ["stationary", "--method", "tensors"], ["sample", "--target", "stationary"],
    ["sample", "--target", "final"], ["reconstruct", "--rank-cap", "3"],
])
def test_each_request_draws_its_haar_matrix_once(tmp_path, monkeypatch, argv):
    draws = []

    def counted(dim, seed):
        draws.append(seed)
        return haar_random_unitary(dim, seed)
    monkeypatch.setattr(bosonloop.evolve, "haar_random_unitary", counted)
    config = write_config(tmp_path, M=3, L=2, n_max=9, unitary={"type": "haar", "seed": 39})
    assert main([argv[0], config, *argv[1:], "--out", str(tmp_path / "o")]) == 0
    assert draws == [39]


def test_reconstruct_builds_m_eff_once(tmp_path, monkeypatch):
    calls = []

    def counted(u, losses, n_looped):
        calls.append(n_looped)
        return effective_transfer_matrix(u, losses, n_looped)
    # the CLI computes no M_eff of its own
    for module in (bosonloop.evolve, bosonloop.cli):
        monkeypatch.setattr(module, "effective_transfer_matrix", counted, raising=False)
    config = write_config(tmp_path, M=3, L=2, n_max=7, unitary={"type": "haar", "seed": 39},
                          losses={"loop_T": 0.9})
    assert main(["reconstruct", config, "--rank-cap", "2", "--out", str(tmp_path / "o")]) == 0
    assert calls == [2]


# Each mutation makes the BASE config invalid: a wrong-typed or out-of-range
# value, a missing required key or an unknown key.
_NOT_A_COUNT = st.one_of(
    st.booleans(), st.floats(), st.text(max_size=4), st.integers(max_value=-1),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_NOT_A_FRACTION = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.floats().filter(lambda x: not 0 <= x <= 1))
_NOT_AN_OBJECT = st.one_of(st.none(), _NOT_A_COUNT.filter(lambda v: not isinstance(v, dict)),
                           st.integers())
_NOT_A_TYPE = st.one_of(st.none(), _NOT_A_COUNT)
_WRONG_LENGTH = st.lists(st.floats(0, 1), max_size=4).filter(lambda v: len(v) != 2)
_INVALID_VALUES = {
    ("schema",): st.one_of(st.none(), _NOT_A_COUNT).filter(lambda v: v != 1),
    ("M",): st.one_of(st.none(), _NOT_A_COUNT),
    ("L",): st.one_of(st.none(), _NOT_A_COUNT, st.integers(min_value=2)),
    ("n_max",): _NOT_A_COUNT,
    ("iterations",): st.one_of(st.none(), _NOT_A_COUNT, st.just(0)),
    ("seed",): st.one_of(st.none(), _NOT_A_COUNT),
    ("input",): _NOT_AN_OBJECT,
    ("input", "type"): _NOT_A_TYPE,
    ("input", "occupation"): st.one_of(
        st.none(), _NOT_A_COUNT, st.lists(st.integers(0, 3)).filter(lambda v: len(v) != 1),
        st.lists(_NOT_A_COUNT, min_size=1, max_size=1)),
    ("unitary",): _NOT_AN_OBJECT,
    ("unitary", "type"): _NOT_A_TYPE,
    ("unitary", "seed"): st.one_of(st.none(), _NOT_A_COUNT),
    ("unitary", "path"): st.one_of(st.just("u.json"), st.text(max_size=6), _NOT_A_COUNT),
    ("losses",): _NOT_AN_OBJECT,
    ("losses", "t_in"): st.one_of(_NOT_A_COUNT, _WRONG_LENGTH,
                                  st.lists(_NOT_A_FRACTION, min_size=2, max_size=2)),
    ("losses", "t_out"): st.one_of(_NOT_A_COUNT, _WRONG_LENGTH,
                                   st.lists(_NOT_A_FRACTION, min_size=2, max_size=2)),
    ("losses", "loop_T"): _NOT_A_FRACTION,
}
_DELETE = object()
_REQUIRED = [("schema",), ("M",), ("L",), ("input",), ("unitary",), ("input", "type"),
             ("input", "occupation"), ("unitary", "type"), ("unitary", "seed")]
_MUTATIONS = st.one_of(
    st.sampled_from(sorted(_INVALID_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), _INVALID_VALUES[key])),
    st.tuples(st.sampled_from(_REQUIRED), st.just(_DELETE)),
    st.tuples(st.sampled_from([(), ("input",), ("unitary",), ("losses",)]),
              st.text(max_size=5)).map(lambda m: (m[0] + ("typo_" + m[1],), 1)),
)
_SUBCOMMANDS = [["evolve"], ["evolve", "--method", "unfold"], ["stationary"],
                ["stationary", "--method", "tensors", "--rank-cap", "2"],
                ["stabilization", "--samples", "1"], ["reconstruct", "--rank-cap", "2"],
                ["sample", "--shots", "5"]]


def _mutated(key: tuple, value) -> dict:
    cfg = copy.deepcopy({**BASE, "losses": {"t_in": [1.0, 1.0]}})
    if key[0] == "unitary" and key[-1] == "path":
        cfg["unitary"] = {"type": "file"}
    parent = cfg
    for part in key[:-1]:
        parent = parent[part]
    if value is _DELETE:
        del parent[key[-1]]
    else:
        parent[key[-1]] = value
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutation=_MUTATIONS, argv=st.sampled_from(_SUBCOMMANDS))
def test_mutated_config_exits_nonzero_with_json_error(mutation, argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "u.json").write_text(json.dumps(NON_UNITARY))
        path = tmp / "config.json"
        path.write_text(json.dumps(_mutated(*mutation)))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([argv[0], str(path), *argv[1:], "--out", str(tmp / "o")])
        assert code != 0
        assert "error" in json.loads(stdout.getvalue())
        assert not (tmp / "o").exists()
