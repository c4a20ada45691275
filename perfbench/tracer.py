"""Span wrappers installed from outside the package, for the traced run.

Only public module-level names (and one public method) are replaced, each at
the place where its caller looks it up, so the package's code is unchanged.
A span is ``[name, start_ns, end_ns, parent_index]``; ``parent_index`` is -1
for a span opened while no other span was open. Spans stay in memory until
the child writes them out. A target that does not exist is recorded in
``absent`` and its layer is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# Array attributes the estimator kernels read from their Dataset,
# NuisanceValues and IfComponents arguments.
_KERNEL_ARRAYS = ("y", "a", "pi_hat", "mu0_hat", "mu1_hat", "sigma0_hat",
                  "sigma1_hat", "psi_y", "psi_a", "psi_x", "tau_y")

KERNELS = ("estimate_psi_hat", "if_components", "var_patt", "var_actt",
           "var_catt", "var_matt", "var_satt", "var_sigma_bound", "var_fh_binary")

# (module where the caller looks the name up, name, span name)
HOOKS = [
    ("treated.cli", "read_csv_dataset", "cli.read_csv_dataset"),
    ("treated.cli", "dumps_canonical", "cli.dumps_canonical"),
    ("treated.cli", "Dataset", "data_model.Dataset"),
    ("treated.simulation", "Dataset", "data_model.Dataset"),
    ("treated.cli", "NuisanceValues", "data_model.NuisanceValues"),
    ("treated.simulation", "NuisanceValues", "data_model.NuisanceValues"),
    ("treated.nuisance", "NuisanceValues", "data_model.NuisanceValues"),
    ("treated.estimator", "compute_nuisances", "nuisance.compute_nuisances"),
    ("treated.cli", "estimate_all", "estimator.estimate_all"),
    ("treated.simulation", "estimate_all", "estimator.estimate_all"),
    *[("treated.estimator", name, "estimator." + name) for name in KERNELS],
    ("treated.cli", "run_monte_carlo", "simulation.run_monte_carlo"),
    ("treated.cli", "oracle_asymptotic_variances", "simulation.oracle_asymptotic_variances"),
    ("treated.simulation", "generate", "simulation.generate"),
    ("treated.simulation", "true_sample_estimands", "simulation.true_sample_estimands"),
    ("treated.simulation", "psi_tilde", "simulation.psi_tilde"),
    ("treated.simulation", "psi_patt_true", "simulation.psi_patt_true"),
    ("treated.simulation", "DgpSpec.propensity", "simulation.DgpSpec.propensity"),
    ("treated.simulation", "expit", "mathutil.expit"),
    ("treated.nuisance", "expit", "mathutil.expit"),
]


def kernel_input_bytes(args, kwargs) -> int:
    """Bytes of the arrays a kernel call reads, computed from their sizes."""
    total = 0
    for arg in (*args, *kwargs.values()):
        for attr in _KERNEL_ARRAYS:
            arr = getattr(arg, attr, None)
            total += getattr(arr, "nbytes", 0)
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._installed = []

    def wrap(self, owner, attr, name, count_bytes=False):
        """Replace ``owner.attr`` by a span wrapper around the original."""
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        def span(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(record)
            if count_bytes:
                counts[name + ".bytes"] += kernel_input_bytes(args, kwargs)
            stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()

        setattr(owner, attr, span)
        self._installed.append((owner, attr, original))

    def hook(self, module_name, target, name):
        """Wrap ``module.target`` (``target`` may be ``Class.method``)."""
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *path, attr = target.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.absent.append(f"{module_name}.{target}")
            return
        self.wrap(owner, attr, name, count_bytes=name.split(".")[-1] in KERNELS)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def install_package_hooks(tracer: Tracer):
    for module_name, target, name in HOOKS:
        tracer.hook(module_name, target, name)
