"""Simulated architectures: device specs, roofline, energy, compilers.

The paper ran on real Haswell/Broadwell CPUs and K40m/K6000/P100/TITAN X
GPUs.  We do not have that hardware, so — per the reproduction's
substitution rule — this subpackage models it:

* :mod:`repro.machine.specs` — a database of each device's *published*
  single/double-precision peak Gflop/s, memory bandwidth, and TDP (the same
  nominal specifications the paper itself used for its power estimates);
* :mod:`repro.machine.counters` — instrumentation that counts the floating
  point operations and bytes moved by the mini-app kernels as they run;
* :mod:`repro.machine.roofline` — converts counted work + a device spec
  into a predicted runtime via the roofline model, with SIMD-width and
  precision-throughput effects;
* :mod:`repro.machine.energy` — the paper's own energy arithmetic
  ("multiplying nominal power specifications by runtimes");
* :mod:`repro.machine.compiler` — GNU/Intel compiler models reproducing the
  Table IV anomaly (GNU scalar single precision slower than double).

The model's purpose is the *shape* of Tables I/II/IV/V/VI — orderings and
approximate speedup factors — not absolute seconds.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "DeviceSpec": "repro.machine.specs",
    "DEVICES": "repro.machine.specs",
    "device": "repro.machine.specs",
    "DeviceKind": "repro.machine.specs",
    "KernelCounters": "repro.machine.counters",
    "CountedWorkload": "repro.machine.counters",
    "WorkloadProfile": "repro.machine.counters",
    "RooflineModel": "repro.machine.roofline",
    "predict_runtime": "repro.machine.roofline",
    "arithmetic_intensity": "repro.machine.roofline",
    "estimate_energy": "repro.machine.energy",
    "EnergyEstimate": "repro.machine.energy",
    "OperationCosts": "repro.machine.opcost",
    "DEFAULT_COSTS": "repro.machine.opcost",
    "estimate_energy_bottomup": "repro.machine.opcost",
    "CompilerModel": "repro.machine.compiler",
    "GNU": "repro.machine.compiler",
    "INTEL": "repro.machine.compiler",
    "scalar_kernel_time": "repro.machine.compiler",
})
