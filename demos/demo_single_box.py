"""Single-box collapse walkthrough.

A box holds a latent outcome drawn from a prior P0. When queried at the
trigger time its internal state starts to collapse toward a point mass
on the latent outcome; before every outcome has finished collapsing, the
output marginal can deviate from the prior. This script builds a few
collapse families, tabulates the marginal over elapsed time, and prints
the single-box witness (total variation distance from the prior).

Run:  python3 demos/demo_single_box.py
"""

import numpy as np

from collapsebox import (
    make_distribution,
    make_family,
    marginal_at,
    tv_distance,
    validate_family,
)

P0 = make_distribution([0.3, 0.7])

FAMILIES = {
    "instantaneous": make_family("instantaneous", P0),
    "linear, equal durations": make_family("linear", P0, dt=(1.0, 1.0)),
    "linear, unequal durations": make_family("linear", P0, dt=(0.25, 1.0)),
    "hold-then-jump (0, 1)": make_family("frozen", P0, dt=(0.0, 1.0)),
    "exponential, rates (2, 3)": make_family("exponential", P0, rates=(2.0, 3.0)),
}


def main():
    print(f"prior P0 = {P0.weights}")
    print()
    for label, fam in FAMILIES.items():
        rep = validate_family(fam, fam.check_times)
        print(f"--- {label} ---")
        print(f"    collapse durations: dt_min={fam.dt_min:.4g}, "
              f"dt_max={fam.dt_max:.4g};  boundary check: "
              f"{'ok' if rep.passed else 'FAILED'}")
        print(f"    {'elapsed':>8} {'P(0)':>8} {'P(1)':>8} {'witness':>9}")
        for s in np.linspace(0.0, fam.dt_max, 5):
            m = marginal_at(fam, float(s))
            w = tv_distance(m, P0)
            print(f"    {s:8.3f} {m[0]:8.4f} {m[1]:8.4f} {w:9.5f}")
        print()

    print("Note how the witness vanishes identically for the instantaneous")
    print("family and for equal collapse durations, while unequal durations")
    print("make the marginal drift away from the prior mid-collapse.")


if __name__ == "__main__":
    main()
