"""A walking tour of finite frames and their duals.

Run:  python demos/dual_frame_tour.py
"""

import numpy as np

import dualframes as df


def main():
    # A redundant frame of the plane: three vectors, two dimensions.
    phi = df.Frame.from_vectors([(1, 0), (0, 1), (1, 1)])
    print("frame:", phi)
    print("frame operator:\n", df.frame_operator(phi).real)

    lower, upper = df.frame_bounds(phi)
    print(f"optimal bounds: ({lower:g}, {upper:g})  (redundant, so not Riesz:",
          df.is_riesz(phi), ")")

    # The canonical dual reconstructs exactly.
    dual = df.canonical_dual(phi)
    print("canonical dual vectors:\n", np.round(dual.synthesis.real, 4))
    f = np.array([0.3, -1.2])
    rec = df.synthesis(phi, df.analysis(dual, f))
    print("reconstruction error:", np.linalg.norm(rec - f))

    # Pair classification: dual implies approximately dual implies g-dual.
    report = df.classify_pair(phi, dual)
    print("pair kind:", report.kind, "| rate:", report.rate)

    # A frame is always a g-dual of itself; the corresponding operator is
    # the inverse of its frame operator.
    self_report = df.classify_pair(phi, phi)
    print("self pair kind:", self_report.kind,
          "| corresponding operator:\n", np.round(np.asarray(self_report.corresponding_op).real, 4))

    # Annihilators add kernel content without touching the mixed operator.
    theta = df.random_annihilator(phi, seed=7, scale=1.0)
    shifted_dual = df.Frame(dual.synthesis + theta.map.conj().T)
    print("shifted dual still exact? rate =",
          df.approximation_rate(phi, shifted_dual))


if __name__ == "__main__":
    main()
