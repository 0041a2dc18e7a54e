"""Timing-window experiment: random query times on both boxes.

Both parties draw their query times independently from a density g on a
window of width W. The chance that the two queries land within
the shortest collapse duration of each other is Theta; Omega is the
one-sided version weighting the ordered time difference. This script
evaluates Theta, Omega and two window-averaged marginals: the exact
mixture over the input-time difference, and the paper's two-term
formula. It checks both against a seeded simulation of the full
experiment.

Run:  python3 demos/demo_window_experiment.py
"""

import numpy as np

from collapsebox import (
    SimConfig,
    TimeDensity,
    make_distribution,
    make_family,
    omega,
    simulate_window,
    theta,
    window_marginal,
)
from collapsebox.scenarios import window_marginal_two_term

P0 = make_distribution([0.3, 0.7])


def main():
    fam = make_family("linear", P0, dt=(0.25, 1.0))

    print(f"prior P0 = {P0.weights}, collapse durations dt = {fam.dt}")
    print()
    print("window      density    Theta     Omega     exact marginal      two-term formula")
    windows = [
        ("width 1.0", TimeDensity("uniform", 1.0)),
        ("width 2.0", TimeDensity("uniform", 2.0)),
        ("width 1.0", TimeDensity("truncexp", 1.0, rate=2.0)),
    ]
    for label, w in windows:
        th = theta(w, fam.dt_min)
        om = omega(w, fam.dt_min)
        exact = window_marginal(fam, w).weights
        two_term = window_marginal_two_term(fam, w).weights
        print(f"{label}   {w.kind:8}  {th:8.5f}  {om:8.5f}  "
              f"{np.array2string(exact, precision=5)}  {np.array2string(two_term, precision=5)}")

    print()
    print("Monte Carlo check (uniform window, width 1.0, n = 400000):")
    w = windows[0][1]
    emp = simulate_window(fam, w, SimConfig(n=400_000, seed=7))
    lo, hi = emp.wilson_interval()
    print(f"  empirical freqs   : {emp.freqs}")
    for k in range(2):
        print(f"  outcome {k}: 95% CI [{lo[k]:.5f}, {hi[k]:.5f}]")
    for name, ana in (("exact marginal", window_marginal(fam, w)),
                      ("two-term formula", window_marginal_two_term(fam, w))):
        gap = float(np.abs(emp.freqs - ana.weights).max())
        print(f"  |empirical - {name}| = {gap:.4f}")
    prior_gap = float(np.abs(emp.freqs - P0.weights).max())
    print(f"  |empirical - prior| = {prior_gap:.4f}")

    print()
    print("The exact mixture averages Bob's mid-collapse marginal over the")
    print("input-time difference: Bob acting first, or acting after a latent's")
    print("collapse time, leaves the prior. It matches the simulation within its")
    print("confidence intervals. The paper's two-term formula weights the")
    print("mid-collapse term by Theta / Omega = 2 and stops at the shortest")
    print("collapse time, so it misses the simulation whenever the collapse")
    print("times differ. Both reduce to the prior when collapse is instantaneous.")


if __name__ == "__main__":
    main()
