"""Command-line front end.

`main` runs every subcommand the same way: it checks the request, loads the
config, lets the subcommand stage its output files in memory, writes them
only on success, and finishes with a manifest carrying the config hash and
per-file content hashes, so identical (config, seed) pairs are
byte-reproducible.  The old manifest goes first, and a failed run removes
every file of its output names, so --out holds a whole run or none of it.
Each file is written whole to a temp file, the old file of its name is
removed, and the temp file is renamed in: readers never see a torn file,
though for a moment a name may be missing, and no rename replaces a file,
which on ext4 (`auto_da_alloc`) would start its writeback.  Nothing is
fsynced, so no file is promised to survive a power loss; the manifest
hashes are the check after a crash.

Exit codes: 0 ok, 2 config or request (a bad command line too), 3 truncation,
4 degenerate fixed point, 5 reconstruction failure, 6 size cap or a
MemoryError, 1 any other package error (such as a ConvergenceError from
`stationary --method iterate`, or an OutputError when the files cannot be
written; then no file of the run's output names is left).
"""

import argparse
import collections
import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (BosonLoopError, ConfigError, DegenerateFixedPointError,
                     OutputError, ReconstructionError, SizeCapError,
                     TruncationError)
from .evolve import (ExperimentConfig, LossSpec, detection_pass, evolve_kraus,
                     evolve_pdm, stabilization_samples, stationary_loop_iterate,
                     stationary_loop_state, unfolded_distribution)
from .fock import FockBasis
from .matrixkit import load_matrix, spectral_radius
from .qstate import FLOAT_FMT, DensityMatrix, embed, uhlmann_fidelity
from .reconstruct import (MomentSystem, build_moment_system,
                          reconstruct_analytic, reconstruct_convex)
from .tensors import recursive_stationary

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRUNCATION = 3
EXIT_DEGENERATE = 4
EXIT_RECONSTRUCTION = 5
EXIT_SIZE_CAP = 6
# the exit code of each package error type, and of a MemoryError (an
# allocation the caps let through but the machine refused); any other
# package error exits 1
_EXIT_CODES = ((ConfigError, EXIT_CONFIG), (TruncationError, EXIT_TRUNCATION),
               (DegenerateFixedPointError, EXIT_DEGENERATE),
               (ReconstructionError, EXIT_RECONSTRUCTION), (SizeCapError, EXIT_SIZE_CAP),
               (MemoryError, EXIT_SIZE_CAP))

# the most iterations a config, the most shots `sample` and the most
# samples `stabilization` may ask for: every iteration is one joint pass and
# one output file, shots are drawn one after another, and every sample's
# seed is spawned before the first draw, so time or memory grows with each
MAX_ITERATIONS = 10 ** 5
MAX_SHOTS = 10 ** 9
MAX_SAMPLES = 10 ** 5

_TOP_KEYS = {"schema", "M", "L", "n_max", "iterations", "input", "unitary",
             "losses", "seed"}
_INPUT_KEYS = {"fock": {"type", "occupation"}, "dm": {"type", "path"}}
_UNITARY_KEYS = {"file": {"type", "path"}, "haar": {"type", "seed"}}
_LOSS_KEYS = {"t_in", "t_out", "loop_T"}


def _section(d, allowed, where: str) -> dict:
    """`d` as a JSON object whose keys all lie in `allowed`, a set or a table
    of sets by the object's "type"."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    if isinstance(allowed, dict):
        allowed = allowed.get(d.get("type"), {"type"})
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    return d


def _number(value, where: str, kind=int):
    """A non-negative JSON number of type `kind` (float admits integers);
    booleans, strings, NaN and, for int, floats are rejected."""
    kinds = (int,) if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or not value >= 0:
        raise ConfigError(f"{where} must be a non-negative {kind.__name__}, got {value!r}")
    return kind(value)


def load_config(path) -> tuple:
    """Parse and validate a config file; returns (ExperimentConfig, raw dict)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    schema = _section(raw, _TOP_KEYS, "config").get("schema")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}")
    base = os.path.dirname(os.path.abspath(path))
    try:
        modes = _number(raw["M"], "M")
        looped = _number(raw["L"], "L")
        iterations = _number(raw.get("iterations", 1), "iterations")
        if iterations > MAX_ITERATIONS:
            raise ConfigError(f"iterations must be <= {MAX_ITERATIONS}, got {iterations}")
        n_max = raw.get("n_max")
        n_max = None if n_max is None else _number(n_max, "n_max")

        inp = _section(raw["input"], _INPUT_KEYS, "input")
        occupation = input_state = None
        if inp.get("type") == "fock":
            occupation = tuple(_number(x, "input.occupation") for x in inp["occupation"])
        elif inp.get("type") == "dm":
            input_state = DensityMatrix.from_json(os.path.join(base, inp["path"]))
        else:
            raise ConfigError(f"input.type must be 'fock' or 'dm', got {inp.get('type')!r}")

        uni = _section(raw["unitary"], _UNITARY_KEYS, "unitary")
        unitary = haar_seed = None
        if uni.get("type") == "file":
            unitary = load_matrix(os.path.join(base, uni["path"]))
            if unitary.shape != (modes, modes):
                raise ConfigError(f"unitary file holds a {unitary.shape} matrix for M={modes}")
        elif uni.get("type") == "haar":
            haar_seed = _number(uni["seed"], "unitary.seed")
        else:
            raise ConfigError(f"unitary.type must be 'file' or 'haar', got {uni.get('type')!r}")

        sec = _section(raw.get("losses", {}), _LOSS_KEYS, "losses")
        t_in, t_out = (np.array([_number(x, f"losses.{key}", float) for x in sec[key]])
                       if key in sec else None for key in ("t_in", "t_out"))
        losses = LossSpec(t_in, t_out, _number(sec.get("loop_T", 1.0), "losses.loop_T", float))
        config = ExperimentConfig(
            modes=modes, looped=looped, iterations=iterations,
            unitary=unitary, haar_seed=haar_seed,
            input_occupation=occupation, input_state=input_state,
            n_max=n_max, losses=losses, seed=_number(raw.get("seed", 0), "seed"),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return config, raw


def json_text(payload) -> str:
    """Exactly `json.dumps(payload, indent=1, sort_keys=True)`, with any
    numpy array in the payload read as its `tolist()`.

    `indent` makes the stdlib fall back to its pure-Python encoder, so the
    layout of dicts and lists is rebuilt here and every list that holds only
    floats goes to the C encoder in one call, its item separator carrying
    the newline and indent; both encoders print floats with `float.__repr__`
    and the same NaN/Infinity spellings.  A finite 2-D float64 array is
    written straight from its values (`_matrix_text`).  A scalar takes the
    C encoder as well.  Anything else is encoded by the stdlib itself, its
    newlines shifted to the current indent (JSON text has no raw newline
    inside a string).
    """
    return _json_text(payload, "\n")


def _json_text(o, newline: str) -> str:
    inner = newline + " "
    if isinstance(o, np.ndarray):
        if o.ndim == 2 and o.dtype == np.float64 and o.size and np.isfinite(o).all():
            return _matrix_text(o, newline)
        o = o.tolist()
    if isinstance(o, (list, tuple)) and o:
        if all(type(x) is float for x in o):
            body = json.dumps(o, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(_json_text(x, inner) for x in o)
        return "[" + inner + body + newline + "]"
    if isinstance(o, dict) and o and all(isinstance(k, str) for k in o):
        body = ("," + inner).join(json.dumps(k) + ": " + _json_text(v, inner)
                                  for k, v in sorted(o.items()))
        return "{" + inner + body + newline + "}"
    if o is None or isinstance(o, (str, int, float)):
        # a scalar's text does not depend on the indent: the C encoder's
        return json.dumps(o)
    return json.dumps(o, indent=1, sort_keys=True).replace("\n", newline)


def _matrix_text(a: np.ndarray, newline: str) -> str:
    """The indented JSON text of a finite, nonempty 2-D float64 array's rows.
    `float.__repr__` runs once per distinct nonzero magnitude; a zero is
    "0.0" or "-0.0" by its sign bit, and a negative value is its
    magnitude's text after a minus sign.  A row's leading and trailing runs
    of "0.0" are slices of one all-"0.0" row text; words are looked up and
    joined only between them (an all-"0.0" row keeps its first word)."""
    inner = newline + " "
    cols = a.shape[1]
    nonzero = a != 0
    negative = np.signbit(a)
    mags, inv = np.unique(np.abs(a[nonzero]), return_inverse=True)
    reprs = list(map(float.__repr__, mags.tolist()))
    codes = negative.astype(np.intp)
    codes[nonzero] = 2 + inv + negative[nonzero] * len(reprs)
    written = codes != 0
    lo = written.argmax(axis=1)
    hi = np.where(written.any(axis=1), cols - written[:, ::-1].argmax(axis=1), 1)
    col = np.arange(cols)
    words = list(map((["0.0", "-0.0"] + reprs + ["-" + r for r in reprs]).__getitem__,
                     codes[(col >= lo[:, None]) & (col < hi[:, None])].tolist()))
    sep = "," + inner + " "
    zeros = sep.join(["0.0"] * cols)
    unit = len(sep) + len("0.0")
    ends = np.cumsum(hi - lo).tolist()
    texts = [zeros[:lo_r * unit] + sep.join(words[end - (hi_r - lo_r):end])
             + zeros[len(zeros) - (cols - hi_r) * unit:]
             for lo_r, hi_r, end in zip(lo.tolist(), hi.tolist(), ends)]
    body = (inner + "]," + inner + "[" + inner + " ").join(texts)
    return "[" + inner + "[" + inner + " " + body + inner + "]" + newline + "]"


# the per-process counter a temp file's name carries after the pid
_temp_count = itertools.count()


def _write_atomic(out_dir, name: str, data: bytes) -> None:
    """Write `out_dir/name` whole to a temp file, remove the old file, then
    rename the temp file in; a failed write or rename removes the temp file.
    The temp file is `.<name>.<pid>.<n>`, `n` counting this process's temp
    files, opened with `open(tmp, "xb")`: a name that exists (left by a
    crashed run under a reused pid) is passed over for the next `n`, and
    the file gets mode 0o666 less the umask like any `open()`, where
    `tempfile.mkstemp` gave every output 0600.  A rename onto an existing
    name would start the new file's writeback on ext4 (`auto_da_alloc`), a
    flush worth nothing without an fsync: no file is promised to survive a
    power loss, the manifest hashes are the check.
    A failed run leaves no manifest: `_write_manifest` removes every name."""
    for n in _temp_count:
        tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.{n}")
        try:
            fh = open(tmp, "xb")
        except FileExistsError:
            continue
        break
    try:
        with fh:
            fh.write(data)
        path = os.path.join(out_dir, name)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class _Stager:
    """Collects output files in memory; flushes atomically on success only."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.files = {}

    def add_text(self, name: str, text: str) -> None:
        self.files[name] = text

    def add_json(self, name: str, payload) -> None:
        self.files[name] = json_text(payload) + "\n"

    def flush(self) -> list:
        os.makedirs(self.out_dir, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):  # it names the old files
            os.unlink(os.path.join(self.out_dir, "manifest.json"))
        entries = []
        for name in sorted(self.files):
            data = self.files[name].encode()
            _write_atomic(self.out_dir, name, data)
            entries.append({"path": name,
                            "sha256": hashlib.sha256(data).hexdigest()})
        return entries


def _write_manifest(stager: _Stager, raw_config: dict, subcommand: str,
                    seed, started: float) -> None:
    """Flush the staged files and write the manifest; an OSError on the way
    removes every file of the output names, old or new, and becomes an
    OutputError."""
    canon = json.dumps(raw_config, sort_keys=True, separators=(",", ":")).encode()
    try:
        outputs = stager.flush()
        manifest = {
            "subcommand": subcommand,
            "artifact_version": __version__,
            "config_hash": hashlib.sha256(canon).hexdigest(),
            "seed": seed,
            "outputs": outputs,
            "wall_time_s": round(time.monotonic() - started, 6),
        }
        _write_atomic(stager.out_dir, "manifest.json",
                      (json_text(manifest) + "\n").encode())
    except OSError as exc:
        for name in [*stager.files, "manifest.json"]:
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(stager.out_dir, name))
        raise OutputError(f"cannot write outputs to {stager.out_dir}: {exc}") from exc


def _counts_csv(counts: dict) -> str:
    return "".join(
        ",".join(str(x) for x in occ) + ";" + str(n) + "\n"
        for occ, n in sorted(counts.items())
    )


def _load(args) -> tuple:
    """`load_config` plus the subcommand's preconditions on its counts and
    config; a missing --seed becomes the config's seed."""
    for name, low in (("samples", 1), ("shots", 1), ("rank_cap", 1), ("seed", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, got {value}")
    for name, cap in (("samples", MAX_SAMPLES), ("shots", MAX_SHOTS)):
        value = getattr(args, name, None)
        if value is not None and value > cap:
            raise ConfigError(f"--{name} must be <= {cap}, got {value}")
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not 0 < tolerance < 1:
        raise ConfigError(f"--tolerance must lie strictly between 0 and 1, got {tolerance}")
    config, raw = load_config(args.config)
    needs_loop = args.needs_loop or getattr(args, "target", None) == "stationary"
    if needs_loop and config.looped == 0:
        raise ConfigError(f"{args.command} needs at least one looped mode (L >= 1)")
    if getattr(args, "seed", None) is None:
        args.seed = config.seed
    return config, raw


def cmd_evolve(args, config, stager) -> None:
    if args.method == "unfold":
        result = unfolded_distribution(config)
        dists, rho_det = result.iteration_distributions, result.rho_det
        leak = 0.0
        n_max = sum(result.input_occupation)
    else:
        engine = evolve_pdm if args.method == "pdm" else evolve_kraus
        trace = engine(config)
        dists, rho_det = trace.iteration_distributions, trace.rho_det
        leak = trace.max_leaked_weight
        n_max = trace.n_max
    for i, dist in enumerate(dists, start=1):
        stager.add_text(f"distribution_iter_{i:03d}.csv", dist.to_csv_text())
    stager.add_json("rho_det.json", rho_det.to_payload())
    stager.add_json("run_info.json", {
        "method": args.method, "iterations": config.iterations,
        "n_max": n_max, "max_leaked_weight": leak,
    })


def cmd_stationary(args, config, stager) -> None:
    result = None
    if args.method == "superop":
        result = stationary_loop_state(config)
        rho_stat = result.rho
    elif args.method == "iterate":
        rho_stat = stationary_loop_iterate(config)
    else:  # tensors
        rho_stat, _ = reconstruct_analytic(_stationary_moments(config, args.rank_cap))
    if result is None:
        # diagnostics still come from the superoperator spectrum when feasible
        try:
            result = stationary_loop_state(config)
        except BosonLoopError:
            pass
    diagnostics = {}
    if result is not None:
        diagnostics["stationary_eigenvalue"] = [result.eigenvalue.real,
                                                result.eigenvalue.imag]
        diagnostics["second_largest_eigenvalue_modulus"] = result.second_modulus
    ext = config.n_external
    diagnostics["spectral_radius_u_ll"] = spectral_radius(config.transfer_matrix()[ext:, ext:])
    rho_det, _ = detection_pass(config, rho_stat)
    stager.add_json("rho_stat.json", rho_stat.to_payload())
    stager.add_text("stationary_distribution.csv",
                    rho_det.diagonal_distribution().to_csv_text())
    stager.add_json("diagnostics.json", {"method": args.method, **diagnostics})


def cmd_stabilization(args, config, stager) -> None:
    study = stabilization_samples(config, args.samples, args.seed, tolerance=args.tolerance)
    times = sorted(study.times)
    stager.add_text("stabilization_histogram.csv",
                    "".join(f"{tau};{n}\n" for tau, n in collections.Counter(times).items()))
    # the quartiles and the mean in exact arithmetic on the integer times:
    # numpy's linear percentiles and mean, float for float
    q25, median, q75 = ([_quartile(times, k) for k in (1, 2, 3)] if times else [None] * 3)
    stager.add_json("summary.json", {
        "samples": args.samples,
        "skipped_degenerate": study.skipped,
        "median": median,
        "mean": sum(times) / len(times) if times else None,
        "iqr": [q25, q75] if times else None,
        "tolerance": args.tolerance,
    })


def _quartile(times: list, k: int) -> float:
    """Quartile k of sorted integers by np.percentile's linear rule: the
    value at position k (n - 1) / 4, interpolated.  Integers and quarters
    are exact in binary, so numpy's float is this exact value."""
    lo, rem = divmod(k * (len(times) - 1), 4)
    if not rem:
        return float(times[lo])
    return (4 * times[lo] + rem * (times[lo + 1] - times[lo])) / 4


def cmd_reconstruct(args, config, stager) -> None:
    truth = stationary_loop_state(config).rho
    system = _stationary_moments(config, args.rank_cap)
    method = reconstruct_analytic if args.method == "analytic" else reconstruct_convex

    rows = []
    final = None
    for rank in range(1, args.rank_cap + 1):
        rho_rec, info = method(system, n_max=rank)
        fidelity = _padded_fidelity(rho_rec, truth)
        rows.append((rank, fidelity))
        final = (rho_rec, info, fidelity)
    stager.add_text("fidelity_vs_rank.csv",
                    "".join(f"{r};{FLOAT_FMT % f}\n" for r, f in rows))
    rho_rec, info, fidelity = final
    stager.add_json("reconstructed_rho.json", rho_rec.to_payload())
    stager.add_json("reconstruction_report.json", {
        "method": args.method,
        "rank_cap": args.rank_cap,
        "fidelity_vs_reference": fidelity,
        "residuals": info.residual,
        "negativity_before_projection": info.negativity_before_projection,
        "converged": info.converged,
    })


def _stationary_moments(config: ExperimentConfig, rank_cap: int) -> MomentSystem:
    """The stationary loop moments up to `rank_cap` on FockBasis(L, rank_cap), from the
    tensors of M_eff and the injected state before losses (they sit in M_eff)."""
    tensor_set = recursive_stationary(config.m_eff, config.injected_state, rank_cap)
    return build_moment_system(FockBasis(config.looped, rank_cap), tensor_set)


def _padded_fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity after zero-padding the smaller-truncation state."""
    big = a.basis if a.basis.n_max >= b.basis.n_max else b.basis
    return uhlmann_fidelity(embed(a, big), embed(b, big))


def cmd_sample(args, config, stager) -> None:
    if args.target == "stationary":
        rho_stat = stationary_loop_state(config).rho
        rho_det, _ = detection_pass(config, rho_stat)
        dist = rho_det.diagonal_distribution()
    else:
        dist = evolve_pdm(config).iteration_distributions[-1]
    counts = dist.sample(args.shots, args.seed)
    stager.add_text("counts.csv", _counts_csv(counts))
    stager.add_json("sample_info.json", {
        "target": args.target, "shots": args.shots, "seed": args.seed,
    })


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 2, a JSON error) instead of
    exiting; subparsers inherit this, and `--help` still exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process, on the first `main` call.  It holds no
    functions: `main` looks up `cmd_<command>` at call time, so rebinding a
    `cmd_*` module attribute (a test, a tracer) takes effect."""
    parser = _Parser(
        prog="bosonloop",
        description="Simulate boson sampling interferometers with optical feedback",
    )
    # accepted for old command lines and ignored: the Monte Carlo runs serially
    parser.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run one evolution engine for k iterations")
    p.add_argument("config")
    p.add_argument("--method", choices=["unfold", "pdm", "kraus"], default="pdm")
    p.add_argument("--out", required=True)
    p.set_defaults(needs_loop=False)

    p = sub.add_parser("stationary", help="compute the stationary loop state")
    p.add_argument("config")
    p.add_argument("--method", choices=["superop", "iterate", "tensors"],
                   default="superop")
    p.add_argument("--rank-cap", type=int, default=6, dest="rank_cap")
    p.add_argument("--out", required=True)
    p.set_defaults(needs_loop=True)

    p = sub.add_parser("stabilization", help="histogram stabilization times over Haar samples")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(needs_loop=True)

    p = sub.add_parser("reconstruct", help="reconstruct the stationary state from tensors")
    p.add_argument("config")
    p.add_argument("--method", choices=["analytic", "convex"], default="analytic")
    p.add_argument("--rank-cap", type=int, default=4, dest="rank_cap")
    p.add_argument("--out", required=True)
    p.set_defaults(needs_loop=True)

    p = sub.add_parser("sample", help="draw counts from an output distribution")
    p.add_argument("config")
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--target", choices=["stationary", "final"], default="stationary")
    p.add_argument("--out", required=True)
    p.set_defaults(needs_loop=False)  # unless --target stationary
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a usage error, package error or MemoryError prints
    a JSON error object and returns its exit code.  The object carries `cap`
    and `required` for a SizeCapError, and `required_n_max` for a
    TruncationError that knows it.  Safe to call repeatedly in one
    process."""
    try:
        args = _build_parser().parse_args(argv)
        config, raw = _load(args)
        started = time.monotonic()
        stager = _Stager(args.out)
        globals()[f"cmd_{args.command}"](args, config, stager)
        _write_manifest(stager, raw, args.command, args.seed, started)
        return EXIT_OK
    except (BosonLoopError, MemoryError) as exc:
        code = next((c for kind, c in _EXIT_CODES if isinstance(exc, kind)), 1)
        error = {"code": code, "type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SizeCapError):
            error.update(cap=exc.cap, required=exc.required)
        elif isinstance(exc, TruncationError) and exc.required_n_max is not None:
            error["required_n_max"] = exc.required_n_max
        print(json.dumps({"error": error}))
        return code


if __name__ == "__main__":
    sys.exit(main())
