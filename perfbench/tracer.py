"""Spans around calls into bosonloop's modules, recorded from outside the package.

`Tracer.patched()` swaps chosen functions and methods of the package for
wrappers that record one span per call: the wrapped name, start, end, the
enclosing span, and the top-level call the span belongs to.  Spans stay in
memory; `summary()` turns them into per-layer self times and per-function
metrics, and `dump()` writes them out once the benchmark is done.

A layer is a package module.  A span's self time is its duration minus the
durations of its direct children, so self times of all spans add up to the
durations of the top-level spans.  Functions that are not wrapped count
towards the self time of the nearest wrapped caller; trivial accessors such
as `FockBasis.index_of` are left unwrapped because a wrapper would cost more
than the call.
"""

import contextlib
import json
import sys
import time
from math import comb

PACKAGE = "bosonloop"
LAYERS = ("fock", "lift", "matrixkit", "qstate", "channels", "evolve",
          "tensors", "reconstruct", "cli")

# attribute paths of the wrapped callables, by layer (module)
TARGETS = {
    "fock": ["FockBasis.__init__", "tensor_index_map"],
    "lift": ["lift", "lift_apply_fock", "LiftedUnitary.block",
             "LiftedUnitary.full", "LiftedUnitary.conjugate",
             "LiftedUnitary.apply_pure"],
    "matrixkit": ["haar_random_unitary", "spectral_radius", "load_matrix",
                  "permanent", "Interferometer.__init__"],
    "qstate": ["DensityMatrix.__init__", "DensityMatrix.sector_weights",
               "DensityMatrix.to_payload", "tensor_product", "partial_trace",
               "trace_distance", "uhlmann_fidelity", "diagonal_distribution",
               "ProbabilityDistribution.to_csv_text"],
    "channels": ["QuantumChannel.__init__", "QuantumChannel.apply",
                 "loop_channel", "loss_channel", "compose", "to_superoperator",
                 "fixed_point", "stationary_state"],
    "evolve": ["effective_transfer_matrix", "evolve_pdm", "evolve_kraus",
               "unfolded_distribution", "stationary_loop_state",
               "stationary_loop_iterate", "detection_pass",
               "stabilization_time", "stabilization_samples"],
    "tensors": ["recursive_stationary", "stationary_order", "transform",
                "stationary_output_tensor", "moments_from_tensor_set",
                "tensor_set_from_dm"],
    "reconstruct": ["build_moment_system", "reconstruct_analytic",
                    "reconstruct_convex", "reconstruct_distribution",
                    "project_psd"],
    "cli": ["main", "load_config", "cmd_evolve", "cmd_stationary",
            "cmd_stabilization", "cmd_reconstruct", "cmd_sample",
            "_Stager.flush", "_write_manifest"],
}


def _joint_kept(a_basis, b_basis, joint) -> int:
    """Joint basis states reachable by concatenating A and B states (computed)."""
    def sec(modes, n):
        return comb(modes + n - 1, n)
    return sum(
        sec(a_basis.modes, na) * sec(b_basis.modes, nb)
        for na in range(a_basis.n_max + 1)
        for nb in range(b_basis.n_max + 1)
        if na + nb <= joint.n_max
    )


def _sizes_tensor_product(counters, args, kwargs, result):
    rho_a, rho_b = args[0], args[1]
    joint = args[2] if len(args) > 2 else kwargs["joint"]
    counters["qstate.kron_entries"] += (rho_a.basis.size * rho_b.basis.size) ** 2
    counters["qstate.kept_entries"] += _joint_kept(rho_a.basis, rho_b.basis, joint) ** 2


def _sizes_superop(counters, args, kwargs, result):
    dim = result.matrix.shape[0]
    counters["channels.superop_dim_max"] = max(counters["channels.superop_dim_max"], dim)


def _sizes_loop_channel(counters, args, kwargs, result):
    counters["channels.kraus_ops"] += len(result.kraus)


def _sizes_fixed_point(counters, args, kwargs, result):
    if result is None:
        counters["channels.fixed_point_fallbacks"] += 1


def _sizes_stab_time(counters, args, kwargs, result):
    counters["evolve.tau_sum"] += int(result)


def _sizes_stationary_order(counters, args, kwargs, result):
    k, l, matrix, rho_ext = args[0], args[1], args[2], args[3]
    modes = matrix.shape[0]
    looped = modes - rho_ext.basis.modes
    counters["tensors.system_dim_max"] = max(counters["tensors.system_dim_max"],
                                             looped ** (k + l))
    counters["tensors.assembly_entries"] += modes ** (k + l)


# kernel sizes computed from argument and result shapes, per wrapped name
SIZE_HOOKS = {
    "qstate.tensor_product": _sizes_tensor_product,
    "channels.to_superoperator": _sizes_superop,
    "channels.loop_channel": _sizes_loop_channel,
    "channels.fixed_point": _sizes_fixed_point,
    "evolve.stabilization_time": _sizes_stab_time,
    "tensors.stationary_order": _sizes_stationary_order,
}
COMPUTED = ("qstate.kron_entries", "qstate.kept_entries", "qstate.kept_ratio",
            "channels.superop_dim_max", "channels.kraus_ops",
            "tensors.system_dim_max", "tensors.assembly_entries")

# per-function metrics: metric -> (wrapped name, "s" for self time or "calls")
FUNCTION_METRICS = {
    "lift.conjugate_s": ("lift.LiftedUnitary.conjugate", "s"),
    "lift.conjugate_calls": ("lift.LiftedUnitary.conjugate", "calls"),
    "lift.full_s": ("lift.LiftedUnitary.full", "s"),
    "lift.block_s": ("lift.LiftedUnitary.block", "s"),
    "qstate.tensor_product_s": ("qstate.tensor_product", "s"),
    "qstate.tensor_product_calls": ("qstate.tensor_product", "calls"),
    "qstate.partial_trace_s": ("qstate.partial_trace", "s"),
    "qstate.fidelity_s": ("qstate.uhlmann_fidelity", "s"),
    "qstate.fidelity_calls": ("qstate.uhlmann_fidelity", "calls"),
    "fock.index_map_s": ("fock.tensor_index_map", "s"),
    "fock.index_map_calls": ("fock.tensor_index_map", "calls"),
    "channels.apply_s": ("channels.QuantumChannel.apply", "s"),
    "channels.apply_calls": ("channels.QuantumChannel.apply", "calls"),
    "channels.fixed_point_s": ("channels.fixed_point", "s"),
    "channels.fixed_point_calls": ("channels.fixed_point", "calls"),
    "channels.superop_s": ("channels.to_superoperator", "s"),
    "channels.superop_calls": ("channels.to_superoperator", "calls"),
    "channels.eig_s": ("channels.stationary_state", "s"),
    "channels.eig_calls": ("channels.stationary_state", "calls"),
    "channels.loop_channel_s": ("channels.loop_channel", "s"),
    "evolve.stab_time_calls": ("evolve.stabilization_time", "calls"),
    "tensors.recursive_s": ("tensors.recursive_stationary", "s"),
    "tensors.order_s": ("tensors.stationary_order", "s"),
    "tensors.orders": ("tensors.stationary_order", "calls"),
    "tensors.transform_s": ("tensors.transform", "s"),
    "reconstruct.analytic_s": ("reconstruct.reconstruct_analytic", "s"),
    "reconstruct.analytic_calls": ("reconstruct.reconstruct_analytic", "calls"),
    "reconstruct.build_s": ("reconstruct.build_moment_system", "s"),
    "cli.load_config_s": ("cli.load_config", "s"),
}


class Tracer:
    """In-memory span recorder for one process; patch with `patched()`.

    Spans accumulate for the life of the tracer; `start_pass()` and
    `summary(since=)` split them into passes.  Counters hold the computed
    kernel sizes of the current pass and are cleared by `start_pass()`.
    """

    def __init__(self):
        self.names = []          # span name table, index = name id
        self.spans = []          # [name id, start, end, parent index, call id]
        self._stack = []
        self._call = -1
        self.counters = {}
        self.start_pass()

    def start_pass(self) -> int:
        """Clear the counters; returns the index of the pass's first span."""
        self.counters = {name: 0 for name in (
            "qstate.kron_entries", "qstate.kept_entries",
            "channels.superop_dim_max", "channels.kraus_ops",
            "channels.fixed_point_fallbacks", "evolve.tau_sum",
            "tensors.system_dim_max", "tensors.assembly_entries")}
        return len(self.spans)

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        fid = self.names.index(name)
        hook = SIZE_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                tracer._call += 1
            row = [fid, clock(), 0.0, parent, tracer._call]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every target for the duration of the block, then restore."""
        restore = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for layer, targets in TARGETS.items():
                mod = sys.modules[f"{PACKAGE}.{layer}"]
                for target in targets:
                    name = f"{layer}.{target}"
                    if "." in target:
                        cls_name, attr = target.split(".")
                        owner = getattr(mod, cls_name)
                        orig = owner.__dict__[attr]
                        restore.append((owner, attr, orig))
                        setattr(owner, attr, self._wrap(name, orig))
                        continue
                    orig = getattr(mod, target)
                    wrapped = self._wrap(name, orig)
                    # rebind every module-level reference, including
                    # `from .x import f` copies in sibling modules
                    for other in modules:
                        for key, value in list(vars(other).items()):
                            if value is orig:
                                restore.append((other, key, orig))
                                setattr(other, key, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)

    def summary(self, wall: float, since: int = 0, samples: int = 0) -> dict:
        """Per-layer self times, per-function metrics and the accounting check
        over the spans recorded from index `since` on.

        `wall` is the traced wall time those spans ran inside; the part of it
        not covered by any top-level span is reported as `other.self_s`.  The
        check fails when a span's self time or `other` comes out negative,
        i.e. when spans do not nest or stick out of the timed calls.
        `samples` is the number of stabilization samples the spans cover.
        """
        spans = self.spans[since:]
        child = [0.0] * len(spans)
        top = 0.0
        for _, start, end, parent, _ in spans:
            if parent >= since:
                child[parent - since] += end - start
            else:
                top += end - start
        self_by_name = [0.0] * len(self.names)
        calls_by_name = [0] * len(self.names)
        worst_self = 0.0
        for i, (fid, start, end, _, _) in enumerate(spans):
            own = (end - start) - child[i]
            worst_self = min(worst_self, own)
            self_by_name[fid] += own
            calls_by_name[fid] += 1
        by_name = {name: (self_by_name[i], calls_by_name[i])
                   for i, name in enumerate(self.names)}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (own, _) in by_name.items():
            layer_self[name.split(".")[0]] += own
        other = wall - top
        accounted = sum(layer_self.values()) + other
        ok = (abs(accounted - wall) <= 1e-9 * max(wall, 1.0)
              and worst_self >= -1e-9 and other >= -1e-9)

        metrics = {f"{layer}.self_s": value for layer, value in layer_self.items()}
        metrics["other.self_s"] = other
        for metric, (name, kind) in FUNCTION_METRICS.items():
            own, calls = by_name.get(name, (0.0, 0))
            metrics[metric] = own if kind == "s" else calls
        metrics.update(self.counters)
        kron = self.counters["qstate.kron_entries"]
        metrics["qstate.kept_ratio"] = (self.counters["qstate.kept_entries"] / kron
                                        if kron else 0.0)
        stab_calls = metrics["evolve.stab_time_calls"]
        metrics["evolve.retry_ratio"] = samples / stab_calls if stab_calls else 0.0
        metrics["trace.spans"] = len(spans)
        return {"metrics": metrics, "accounting_ok": ok, "accounted_s": accounted}

    def dump(self, path, extra: dict | None = None) -> None:
        """Write the recorded spans as rows plus the name table."""
        payload = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "call"],
            "spans": self.spans,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
