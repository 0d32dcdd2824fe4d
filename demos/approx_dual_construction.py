"""Constructing approximate and generalized duals from operator parameters.

Every approximate dual of a frame is reached by exactly one pair
(whitened factor, annihilator); this script builds one, recovers the
parameters, and prescribes approximation rates directly.

Run:  python demos/approx_dual_construction.py
"""

import numpy as np

import dualframes as df


def main():
    rng = np.random.default_rng(2024)
    syn = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    phi = df.Frame(syn)

    # Start from the exact inverse root and push it off-center a little.
    w = df.frame_operator_inv_sqrt(phi) + 0.05 * rng.standard_normal((4, 4))
    check = df.whitened_admissibility(phi, w)
    print(f"distance to inverse root: {check.distance:.4f} "
          f"(threshold {check.threshold:.4f}, admissible: {check.admissible})")
    print(f"implied rate bound: {check.implied_rate_bound:.4f}")

    theta = df.random_annihilator(phi, seed=5, scale=0.4)
    built = df.approx_dual_from_whitened(phi, w, theta)
    rate = df.approximation_rate(phi, built)
    print(f"measured rate: {rate:.4f}")

    # The construction is a bijection: the parameters come back exactly.
    w_back, theta_back = df.recover_parameters(phi, built)
    print("parameter recovery errors:",
          df.operator_norm(w - w_back), df.operator_norm(theta.map - theta_back.map))

    # Prescribing the mixed operator directly: rate 0.25 on the nose.
    target = 0.75 * np.eye(4)
    shrunk = df.approx_dual_from_mixed(phi, target, theta)
    print("prescribed-rate construction:", df.approximation_rate(phi, shrunk))

    # g-duals have merely invertible mixed operators; reconstruction still
    # works once the corresponding operator is applied.
    gd = df.gdual_from_corresponding(phi, 3.0 * np.eye(4), theta)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rec = df.reconstruct(phi, gd, f)
    print("g-dual reconstruction error:", np.linalg.norm(rec - f))

    # Equivalent frames (equal analysis ranges) are automatically g-dual.
    recombined = df.Frame((np.eye(4) + 0.3 * rng.standard_normal((4, 4))) @ syn)
    print("range relation:", df.range_compare(phi, recombined).value)
    inv = df.equivalence_inverse(phi, recombined)
    print("two-sided inverse check:",
          df.operator_norm(df.mixed_operator(phi, recombined) @ inv - np.eye(4)))


if __name__ == "__main__":
    main()
