#!/usr/bin/env python
"""Bit-level precision analysis of CLAMR, CRAFT-style (§III-B, §VIII).

How many mantissa bits does the dam break actually need?  This script
sweeps the state arrays' effective mantissa width (quantizing through the
emulation ladder after every step), plots the error-vs-bits curve, finds
the minimum safe width for an error bound, and shows what stochastic
rounding buys at the ragged edge.

    python examples/bit_sweep.py [--bound 1e-4]
"""

import argparse

import numpy as np

from repro.clamr import ClamrSimulation, DamBreakConfig
from repro.clamr.kernels import FaceLists, compute_timestep, finite_diff_vectorized
from repro.harness.report import Table
from repro.precision.bitsweep import minimum_safe_bits, sweep_mantissa_bits
from repro.precision.emulation import truncate_mantissa
from repro.precision.stochastic import stochastic_truncate

CFG = DamBreakConfig(nx=24, ny=24, max_level=0, start_refined=False)
STEPS = 150


def run_quantized(quantize) -> np.ndarray:
    sim = ClamrSimulation(CFG, policy="full")
    faces = FaceLists.from_mesh(sim.mesh)
    for _ in range(STEPS):
        dt = compute_timestep(sim.mesh, sim.state, CFG.courant)
        finite_diff_vectorized(sim.mesh, sim.state, dt, faces=faces)
        if quantize is not None:
            for arr in (sim.state.H, sim.state.U, sim.state.V):
                arr[...] = quantize(arr)
    field = sim.mesh.sample_to_uniform(sim.state.H.astype(np.float64))
    return field[:, field.shape[1] // 2]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=float, default=1e-4, help="max allowed |ΔH|")
    args = parser.parse_args()

    print(f"Reference run ({CFG.nx}^2 uniform, {STEPS} steps, float64)...")
    reference = run_quantized(None)

    def error_at(width: int) -> float:
        line = run_quantized(lambda a: truncate_mantissa(a, width))
        return float(np.max(np.abs(line - reference)))

    print("Sweeping mantissa widths...")
    result = sweep_mantissa_bits(error_at, widths=(7, 10, 13, 16, 19, 23, 29, 36), error_bound=args.bound)

    table = Table(
        title="CLAMR state-array mantissa sweep (round-toward-zero per step)",
        headers=["Mantissa bits", "max |ΔH|", f"meets {args.bound:.0e}"],
    )
    for row in result.to_rows():
        table.add_row(*row)
    print()
    print(table.render())
    print(f"\n  monotone curve : {result.monotone}")
    print(f"  recommended    : {result.recommended_bits} bits (coarsest swept width under the bound)")

    bits = minimum_safe_bits(error_at, error_bound=args.bound, lo=6, hi=36)
    print(f"  binary search  : {bits} bits is the minimum safe width")

    # the stochastic-rounding coda: at a width where truncation fails the
    # bound, does unbiased rounding recover it?
    edge = max(6, bits - 3)
    rng = np.random.default_rng(0)
    trunc_err = error_at(edge)
    stoch_line = run_quantized(lambda a: stochastic_truncate(np.asarray(a, dtype=np.float64), edge, rng))
    stoch_err = float(np.max(np.abs(stoch_line - reference)))
    print(f"\nAt {edge} bits: truncation error {trunc_err:.3e}, "
          f"stochastic-rounding error {stoch_err:.3e}")
    print(
        "Stochastic rounding removes the systematic drift of truncation —\n"
        "the rounding mode the paper's §VIII hardware menu would add."
    )


if __name__ == "__main__":
    main()
