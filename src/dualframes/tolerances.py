"""Every verdict threshold of the library, each named once.

A verdict (frame, dual, approximately dual, g-dual, a Gabor hypothesis) is
decided by comparing one measured quantity with one of the values below.  Each
entry says what it decides, the scale of the quantity it is compared with, and
why it has its value.  A threshold on a quantity that scales with the input is
relative to that scale; one on a bounded or dimensionless quantity is absolute,
and the entry says why no scale enters.

Two rules decide whether S = T T* can be inverted: the frame test, which decides
every S^{-1/2} and S^{-1} the library forms, and the painless weight floor, which
decides the hypothesis of :func:`dualframes.gabor.painless_check` on the diagonal
of S before any S is formed.  A mixed operator is judged by ``COND_CUTOFF``.

Not here, as they decide no verdict: the numerical guards where they act (the
rank cutoff ``s_max * eps * max(d, n)``, the Frobenius norm's rounding slack, the
1e-300 floors under a norm, 2**-1074) and the command line's size budget
(``dualframes.cli.SIZE_BUDGET``).  This module imports nothing from the package.
"""

# -- conditioning ------------------------------------------------------------

# The frame test: lambda_min(S) > FRAME_THRESHOLD_REL * lambda_max(S), read on T as
# s_min > sqrt(FRAME_THRESHOLD_REL) * s_max = 1e-5 s_max, a ratio no scaling of T
# changes.  It decides is_frame, require_frame, the lower frame bound (0.0 when it
# fails), and whether S^{-1/2} exists.  Why 1e-10: the thin SVD of T carries
# kappa(T) = 1e5 at the threshold, so S^{-1} T and S^{-1/2} are exact to about
# 1e5 eps = 2e-11 relative, inside the 1e-10 of DUAL_TOL and the acceptance checks.
FRAME_THRESHOLD_REL = 1e-10

# Invertibility of a mixed operator, a corresponding operator or a corrector:
# s_min > s_max / COND_CUTOFF, a ratio of its singular values, compared in one guard,
# that of oplin.LatticeOperator.inverse/solve, which every inverse and solve runs
# (certified near the identity with no SVD).  A g-dual only needs its mixed operator
# invertible, and a caller may prescribe one far worse conditioned than any frame's S,
# so this is not the frame test.  Why 1e12: the inverse keeps about kappa eps = 2e-4
# relative accuracy, the least a reconstruction can use.
COND_CUTOFF = 1e12

# A strict "x < bound" (rate < 1, ||Id - A|| < 1, whitened admissibility) holds when
# x < bound * STRICT_FACTOR: relative to the bound.  A rate of exactly 1 (A = 0,
# A = 2 Id, a pair built on the boundary) is computed with an error of about
# d eps = 1e-13 at the sizes here; 1e-12 rejects it deterministically.
STRICT_FACTOR = 1.0 - 1e-12

# The transfer's smallness sqrt(M_diff) * ||theta|| * ||mixed^{-1}|| must stay below
# 1 - SMALLNESS_MARGIN: dimensionless.  Wider than STRICT_FACTOR because it bounds a
# product of three computed norms, each from its own SVD.  At the margin the
# corrector Id + E with ||E|| <= 1 - 1e-9 has kappa below 2e9, inside COND_CUTOFF,
# so its solve never rejects a transfer this test admits.
SMALLNESS_MARGIN = 1e-9

# -- duality -----------------------------------------------------------------

# Exact duality, one verdict read two ways: ||Id - mixed|| <= DUAL_TOL (classify_pair's
# "dual", the exact pair approx_dual_via_dual needs), and the lattice-sum residual
# max |sum_k conj(g(x - r/b - k a)) h(x - k a) - b delta_r0| <= DUAL_TOL (janssen_residual,
# char_dual_check, the CLI's Gabor verdicts, the pair approx_dual_window needs).  It
# also bounds a dual-generator window's partition-of-unity residual
# max |sum_n g(x - n) - 1|, which the explicit dual generators need to hold exactly.
# Absolute: the distance to the identity has no scale.  Why 1e-10: the acceptance criteria
# pin it, and the canonical dual of a 2x3 or 7x13 frame reads "dual" up to kappa(S) = 10^9.5.
DUAL_TOL = 1e-10

# An annihilator's range lies in ker T when ||T theta|| <= ANNIHILATOR_TOL ||T|| ||theta||:
# relative to both norms.  The kernel projection, applied twice, leaves about d eps of
# that; 1e-10 keeps theta's effect on a mixed operator below DUAL_TOL relative.
ANNIHILATOR_TOL = 1e-10

# random_annihilator carries the norm it scaled to unless rounding and underflow of
# the scaled entries (sqrt(size) * 2**-1074 absolute) could move it by this much
# relative; then it measures the norm.  A decade below the 1e-12 relative accuracy a
# carried norm keeps.
NORM_CARRY_TOL = 1e-13

# gdual_factorization's check lambda_max(W W*) <= upper(psi) * (1 + BESSEL_CHECK_TOL):
# relative to psi's bound, as both sides scale with it (about 1e10 for a canonical
# dual of a frame scaled by 1e-5, where any absolute slack is exceeded by rounding).
# Both sides are read from separate SVDs, each exact to about kappa(S) eps.
BESSEL_CHECK_TOL = 1e-9

# range_compare: one analysis range lies in another when the sine of the largest
# principal angle from it is at most RANGE_TOL.  A sine is dimensionless; orthonormal
# bases from two SVDs agree to about kappa(T) eps, below 1e-10 for every frame.
RANGE_TOL = 1e-9

# equivalence_inverse: both products of the mixed operator and its claimed inverse
# are within EQUIVALENCE_TOL of the identity.  The identity gap has no scale; each
# product carries the rounding of two canonical duals, about kappa(S) eps, so the
# check holds for kappa(S) up to about 1e6.
EQUIVALENCE_TOL = 1e-9

# -- Gabor hypotheses ----------------------------------------------------------

# A window sample at most SUPPORT_TOL * peak counts as zero: the support hypotheses,
# and an imaginary part that small reads as a real window.  Relative to the peak;
# 1e-14 is about 45 eps, the rounding of a sample formed from O(peak) terms.
SUPPORT_TOL = 1e-14

# painless_check's hypothesis: the shift-energy weight G = sum_n |g(x - n a)|^2 is
# bounded away from 0 when min G > PAINLESS_WEIGHT_FLOOR * max G, relative to its
# peak.  S = diag(G / b) under the hypothesis, so this is a floor on lambda(S) read
# before S is formed.  Its value is 1 / COND_CUTOFF: diag(G / b) passes the guard of
# oplin.inverse exactly when G passes this floor.  It is looser than the frame test
# on purpose, as the painless report also describes systems with lambda ratio in
# (1e-12, 1e-10] that are not frames (their bounds read lower 0.0).
PAINLESS_WEIGHT_FLOOR = 1e-12

# painless_check: the diagonal of S matches weight / b (or b / weight) when the largest
# deviation is at most PAINLESS_MATCH_TOL * ||S||.  Relative to ||S||; the identity
# diag(S) = G / b holds to rounding, and the two forms differ by O(||S||) unless G = b.
PAINLESS_MATCH_TOL = 1e-9

# ck_dual2's coefficients: |a_0 - b| <= CK_COEFF_TOL * b and
# |a_n + a_{-n} - 2b| <= CK_COEFF_TOL * 2b, relative to b.  Written as the repr of b
# and 2b they parse exactly, and a sum of two rounds by eps; relative, so that zero
# coefficients fail for any b > 0, and never looser than an absolute 1e-12, as b <= 1.
CK_COEFF_TOL = 1e-12

# approx_dual_window: a dense operator commutes with the lattice generators when both
# commutator norms are at most COMMUTATOR_TOL.  Absolute: the operator must also
# satisfy ||Id - A|| < 1, which bounds ||A|| below 2 and each commutator below 4.  An
# operator built to commute (a frame operator scattered dense) has commutators of
# about L eps ||A||, below 1e-9 for every L <= 2^20 the size budget admits.
COMMUTATOR_TOL = 1e-9
