"""Root water uptake from a loam soil column.

A synthetic taproot-plus-laterals network hangs in an 8 x 8 x 15 cm soil
column with Van Genuchten-Mualem loam. The sides and bottom hold the soil
at the pressure matching 40 percent water saturation; the collar pressure
is swept towards stronger suction and the transpiration rate (total
segment uptake) is reported together with the collar flux it must balance.

By default only the coarse 16x16x30 grid is run (about a second); pass
--fine to add the 32x32x60 grid. Pass --vtk to write ParaView files for
the soil field and the root network.
"""

import argparse
import os

from mdtube.scenarios import (ScenarioConfig, emit_outputs, run_root_soil)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fine", action="store_true",
                    help="also run the refined 32x32x60 grid")
    ap.add_argument("--vtk", action="store_true",
                    help="write soil.vtk / root.vtk")
    ap.add_argument("--out", default="out_root")
    args = ap.parse_args()

    grids = ((16, 16, 30), (32, 32, 60)) if args.fine else ((16, 16, 30),)
    config = ScenarioConfig(kind="root_soil", delta_correction=True,
                            write_vtk=args.vtk, grids=grids,
                            out_dir=args.out)
    result = run_root_soil(config)

    print(f"far-field soil pressure: {result.boundary_pressure:.1f} Pa")
    print(f"{'grid':>9} {'p_collar [Pa]':>14} {'r_T [m^3/s]':>14} "
          f"{'balance defect':>15}")
    for d in result.transpiration:
        defect = abs(d["r_t"] + d["collar_flux"]) / max(abs(d["r_t"]), 1e-300)
        print(f"{d['grid']:>9} {d['collar_pressure']:14.3g} "
              f"{d['r_t']:14.5e} {defect:15.2e}")

    emit_outputs(config, result, args.out)
    print(f"\nwrote transpiration.csv / segments.csv to {args.out}{os.sep}")


if __name__ == "__main__":
    main()
