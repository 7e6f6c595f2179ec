#!/usr/bin/env python3
"""Scatter of the homogenized stress across random voxel-cell realizations.

Prints, per cell resolution, the chi-squared statistic of
:func:`matmine.homogenization.rve_size_study`: several random fiber
placements at a fixed volume fraction are stretched uniaxially along the
fiber direction and the axial stress is compared across them.  Bigger cells
carry more microstructure per realization, so the statistic shrinks as the
cell grows.
"""

import argparse

from matmine import homogenization


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 6, 8, 12])
    ap.add_argument("--seeds", type=int, default=8,
                    help="random placements per size")
    ap.add_argument("--volume-fraction", type=float, default=0.3)
    ap.add_argument("--stretch", type=float, default=1.2,
                    help="axial stretch along the fibers")
    args = ap.parse_args()

    chi2 = homogenization.rve_size_study(args.sizes, args.volume_fraction,
                                         args.seeds, stretch=args.stretch)
    print(f"stretch {args.stretch:g} along the fiber axis, "
          f"volume fraction {args.volume_fraction:g}, "
          f"{args.seeds} placements per size")
    print("cells  chi2 P33")
    for n, value in chi2.items():
        print(f"{n:5d}  {value:9.4g}")


if __name__ == "__main__":
    main()
