"""Three parallel tubes in a square cross-section.

Three tubes of different radii pierce the square [-1,1]^2 orthogonally.
The semi-analytical reference superposes radial solutions and closes the
system with perimeter-averaged interface conditions; two averaging
variants exist (average the unknown, or average its Kirchhoff transform)
and the discrete solution is measured against both. The gap between the
two is the model error of the averaging approximation and shows up as a
plateau in the source error.

Run with a larger --k to make the diffusion law stiffer and watch the
plateau grow; several values (--k 1 5) print one table per k from one run,
which builds each level once for all of them.
"""

import argparse

from mdtube.scenarios import ScenarioConfig, run_parallel_tubes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, nargs="+", default=[1.0],
                    help="exponential-law stiffness, one or more values")
    ap.add_argument("--levels", type=int, default=6)
    ap.add_argument("--r-max", type=float, default=0.2,
                    help="radius of the largest tube")
    ap.add_argument("--delta-correction", action="store_true")
    args = ap.parse_args()

    config = ScenarioConfig(kind="parallel_tubes", levels=args.levels,
                            delta_correction=args.delta_correction)
    reports = run_parallel_tubes(config, ks=args.k, r_max=args.r_max)

    for n, report in enumerate(reports):
        if n:
            print()
        print(f"# {report.label}")
        print(f"{'h':>9} {'E_q (plain)':>12} {'E_q (transf)':>13} "
              f"{'E_ub':>11} {'Et_ub':>11}")
        for row in report.rows:
            print(f"{row.h:9.4f} {row.e_q:12.4e} {row.et_q:13.4e} "
                  f"{row.e_ub:11.4e} {row.et_ub:11.4e}")
        print("\nobserved orders (transformed reference):")
        print("  u_b :", " ".join(f"{o:5.2f}"
                                  for o in report.orders("et_ub")))
        print("  q   :", " ".join(f"{o:5.2f}"
                                  for o in report.orders("et_q")))


if __name__ == "__main__":
    main()
