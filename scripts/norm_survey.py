#!/usr/bin/env python3
"""Survey the norm-equivalence chain over random instances.

For each draw, prints the Luxemburg and Orlicz norms, the ratio (always in
[1, 2]), and where the Amemiya minimizer sits.  Useful for eyeballing how
the ratio moves across families.  Instances come from the selftest's
builders with criterion 1's distribution (2-8 atoms, seven families with
random parameters, values in [-2.5, 2.5]).
"""

import argparse
import random

from monorm import (
    KSetNonEmpty,
    luxemburg_norm,
    orlicz_amemiya_norm,
)
from monorm.selfcheck import random_function, random_generator, random_space


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'family':<12} {'atoms':>5} {'luxemburg':>12} {'orlicz':>12} "
          f"{'ratio':>8}  k-interval")
    for _ in range(args.count):
        space = random_space(rng, rng.randint(2, 8))
        gen = random_generator(rng, space)
        u = random_function(rng, space)
        lux = luxemburg_norm(gen, space, u)
        orl, ks = orlicz_amemiya_norm(gen, space, u)
        ratio = orl / lux if lux > 0 else float("nan")
        if isinstance(ks, KSetNonEmpty):
            kdesc = f"[{ks.k_star:.4f}, {ks.k_double_star:.4f}]"
        else:
            kdesc = "degenerate"
        print(f"{gen.family:<12} {len(space):>5} {lux:>12.6f} {orl:>12.6f} "
              f"{ratio:>8.4f}  {kdesc}")


if __name__ == "__main__":
    main()
