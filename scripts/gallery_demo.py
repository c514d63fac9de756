#!/usr/bin/env python3
"""Print the divergence gallery: modulars of the two variable-exponent
grid functions across scalings and a refinement ladder.

The low function keeps a bounded modular for scalings <= 1 while the
modular at 1.01 blows up as the grid refines; the high function's modular
already grows without bound at scaling 1.
"""

import argparse
import math

from monorm.gallery import gallery_report


def fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x >= 1e4:
        return f"{x:.2e}"
    return f"{x:.4f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ladder", default="256,1024,4096")
    args = parser.parse_args()
    ladder = tuple(int(x) for x in args.ladder.split(","))
    report = gallery_report(ladder)
    print(report["note"])
    print(f"exponent: {report['exponent']}")
    scalings = list(report["ladder"][0]["modular_low"])
    header = f"{'resolution':>10} {'blocks':>6} | " + " ".join(
        f"{s:>10}" for s in scalings
    )
    for label in ("modular_low", "modular_high"):
        print(f"\n{label}:")
        print(header)
        for entry in report["ladder"]:
            row = " ".join(f"{fmt(entry[label][s]):>10}" for s in scalings)
            print(f"{entry['resolution']:>10} {entry['blocks']:>6} | {row}")


if __name__ == "__main__":
    main()
