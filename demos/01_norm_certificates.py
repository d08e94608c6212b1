"""Certified two-sided brackets for two NP-hard operator norms.

The (inf->2) norm maximizes ||Bx||_2 over sign vectors, the (inf->1) norm
maximizes ||Gx||_1.  Exact computation enumerates 2^s sign patterns, so it
only works for narrow matrices; the factorization route instead returns a
bracket [lower, upper] whose upper end is guaranteed within the
factorization constant of the truth.  Here we compare both on matrices
small enough that the truth is known.
"""

import numpy as np

import colsel as cs

rng = np.random.default_rng(7)

print("== (inf->2) norm of random standardized 8x12 matrices ==")
print(f"   guarantee: upper/exact <= K_P = {cs.PIETSCH_CONSTANT:.4f}")
for trial in range(5):
    a = cs.standardize(rng.standard_normal((8, 12)))
    exact, _ = cs.norm_inf2_exact(a)          # 2^12 sign patterns
    bracket = cs.pietsch_optimal_alpha(a, rel_tol=0.05, emd_budget=800)
    print(
        f"   exact {exact:7.4f}   bracket [{bracket.alpha_lo:7.4f}, "
        f"{bracket.alpha_hi:7.4f}]   upper/exact {bracket.alpha_hi / exact:.4f}"
        f"   probes {bracket.probes}"
    )

print()
print("== (inf->1) norm of random symmetric 10x10 matrices ==")
print(f"   guarantee: upper/exact <= K_G <= {cs.GROTHENDIECK_UPPER:.4f}")
for trial in range(5):
    g = rng.standard_normal((10, 10))
    g = (g + g.T) / 2
    exact, witness = cs.norm_inf1_exact(g)
    bracket = cs.groth_optimal_alpha(g, rel_tol=0.05, emd_budget=800)
    print(
        f"   exact {exact:8.4f}   bracket [{bracket.alpha_lo:8.4f}, "
        f"{bracket.alpha_hi:8.4f}]   upper/exact {bracket.alpha_hi / exact:.4f}"
    )

print()
print("probes 0: the start's uniform factorization already certifies the ratio.")
print("The lower end is always attained by an explicit sign vector,")
print("so both ends of the bracket are certificates, not estimates.")
