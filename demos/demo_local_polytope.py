"""Box behaviors, the local polytope, and CHSH.

A behavior P(a, b | x, y) is local iff it is a convex mixture of
deterministic strategies; the CHSH value separates local behaviors
(|S| <= 2) from stronger-than-classical ones (up to 4 for the PR box).
This script checks non-signaling, tests local-polytope membership by
linear feasibility, and walks the PR-box/uniform-noise mixture across
the CHSH threshold. For a non-local box it prints the violation of the
separating functional h . p <= c0 that the feasibility LP's dual gives:
h has l1-norm at most 1, so the violation is the box's infinity-norm
distance from the local polytope (1/8 for the PR box).

Run:  python3 demos/demo_local_polytope.py
"""

from collapsebox import (
    chsh_value,
    is_local,
    is_nonsignaling,
    make_distribution,
    pr_box,
    uniform_box,
)
from collapsebox.behaviors import BoxBehavior, deterministic_box, product_box


def mix(p, q, lam):
    return BoxBehavior(lam * p.table + (1 - lam) * q.table)


def describe(label, box):
    ns = is_nonsignaling(box)
    loc = is_local(box)
    s = chsh_value(box)
    tag = "local" if loc.member else "NON-LOCAL"
    print(f"{label:28} CHSH = {s:+.4f}  non-signaling: {ns.passed}  {tag}")
    if not loc.member and loc.facet is not None:
        _, _, viol = loc.facet
        print(f"{'':28} separating functional violated by {viol:.4f} "
              "(infinity-norm distance to the local polytope)")


def main():
    pr = pr_box()
    noise = uniform_box()

    describe("PR box", pr)
    describe("uniform noise", noise)
    describe("deterministic a=b=0", deterministic_box([0, 0], [0, 0]))
    describe("product of biased coins",
             product_box(make_distribution([0.3, 0.7]),
                         make_distribution([0.6, 0.4])))

    print()
    print("PR box mixed with uniform noise, weight lam on the PR box:")
    print("the local boundary sits at lam = 1/2 (CHSH = 2).")
    for lam in (0.0, 0.25, 0.5, 0.51, 0.75, 1.0):
        box = mix(pr, noise, lam)
        loc = is_local(box)
        print(f"  lam = {lam:4.2f}: CHSH = {chsh_value(box):.4f}  "
              f"member = {loc.member}  (residual {loc.residual:.2e})")


if __name__ == "__main__":
    main()
