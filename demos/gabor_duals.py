"""Gabor frames on the sampled periodic line: exact and approximate duals.

Covers the painless (diagonal frame operator) case, the explicit
B-spline dual generators, prescribed-rate approximate duals through
commuting operators, the indicator-window duality criterion, and the
Gaussian-vs-spline pair with its small approximation rate.

Run:  python demos/gabor_duals.py
"""

from fractions import Fraction

import numpy as np

import dualframes as df


def main():
    # --- painless case: compact support + small frequency step -> diagonal S
    grid = df.GridSpec(8, 2)
    window = df.sample_char(1, grid)
    lat = df.GaborLattice(Fraction(1, 2), 1)
    report = df.painless_check(window, lat, 1)
    print("painless diagonal constant:", report.diagonal[0],
          "| matched formula:", report.matched_formula,
          "| bounds:", tuple(round(b, 12) for b in report.bounds))

    # --- explicit dual generators for the order-2 B-spline
    grid = df.GridSpec(10, 20)
    b = Fraction(1, 10)
    lat = df.GaborLattice(1, b)
    b2 = df.sample_bspline(2, grid)
    g1 = df.ck_dual1(b2, 2, b)
    print("dual generator residual:", df.janssen_residual(b2, g1, lat))
    g2 = df.ck_dual2(b2, 2, b, [0.05, 0.1, 0.15])  # any a_n + a_{-n} = 2b works
    print("coefficient-family residual:", df.janssen_residual(b2, g2, lat))

    # duality certified two independent ways: lattice sums and the mixed
    # operator of the two systems
    rate = df.approximation_rate(df.gabor_frame(b2, lat), df.gabor_frame(g1, lat))
    print("mixed-operator duality gap:", rate)

    # --- prescribe an approximation rate through a commuting operator
    a_op = df.scaled_gabor_operator(df.sample_bspline(3, grid), lat)
    print("operator commutes with the lattice:",
          df.commutation_check(a_op, lat, grid) < 1e-9)
    gad = df.approx_dual_window(b2, g1, a_op, lat)
    achieved = df.approximation_rate(df.gabor_frame(b2, lat), df.gabor_frame(gad, lat))
    print("prescribed rate:", df.operator_norm(np.eye(grid.total) - a_op),
          "achieved:", achieved)

    # --- indicator windows: dual exactly when the step is the smaller width
    grid_c = df.GridSpec(4, 3)
    for c, cp, a in [("1/2", "1/2", "1/2"), ("1/2", "3/4", "1/2"), ("1/2", "3/4", "3/4")]:
        verdict = df.char_dual_check(Fraction(c), Fraction(cp), Fraction(a), grid_c)
        print(f"indicator pair c={c}, c'={cp}, a={a}: dual={verdict}")

    # --- Gaussian analyzed against a scaled order-8 spline synthesizer
    grid_g = df.GridSpec(16, 32)
    lat_g = df.GaborLattice(1, Fraction(1, 10))
    gaussian = df.sample_function(lambda x: np.exp(-4.0 * x**2), grid_g, centered=True)
    x = grid_g.centered_points()
    spline = df.bspline_value(8, 2.36 * x + 4.0)
    energy = np.zeros_like(x)
    for n in range(-40, 41):
        energy += df.bspline_value(8, 2.36 * (x + n) + 4.0) ** 2
    partner = df.SampledWindow(grid_g, (15.1 / 315.0) * spline / energy)
    rate = df.approximation_rate(
        df.gabor_frame(gaussian, lat_g), df.gabor_frame(partner, lat_g)
    )
    print(f"gaussian / spline approximation rate: {rate:.4f}")


if __name__ == "__main__":
    main()
