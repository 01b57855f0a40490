"""Exact fBM sampling on a grid: paths, variance scaling, spectrum shape.

Draws two-sided fractional Brownian motion paths for several roughness
exponents, verifies the Var B(t) = |t|^alpha scaling law empirically, and
shows what the circulant-embedding eigenvalues look like.  Saves a figure to
fbm_paths.png when matplotlib is available.

Run:  python demos/01_fbm_sampling.py
"""

import numpy as np

from piterbarg import circulant_spectrum, sample_two_sided_path

rng = np.random.default_rng(1)

# --- a few paths on [-2, 2] with spacing 0.01 -------------------------------
delta = 0.01
steps = 200
paths = {}
for alpha in (0.5, 1.0, 1.5):
    unit = sample_two_sided_path(alpha, steps, steps, rng)
    # self-similarity: B(delta * k) has the law of delta^(alpha/2) * B(k)
    paths[alpha] = unit * delta ** (alpha / 2.0)
    print(f"alpha={alpha}: sampled {len(paths[alpha])} grid points, "
          f"B(0) = {paths[alpha][steps]}")

# --- variance scaling check --------------------------------------------------
print("\nVar B(t) vs t^alpha over 4000 paths (unit grid):")
draws = 4000
for alpha in (0.5, 1.0, 1.5):
    rng_v = np.random.default_rng(7)
    endpoints = np.array(
        [sample_two_sided_path(alpha, 0, 32, rng_v)[32] for _ in range(draws)]
    )
    target = 32.0**alpha
    print(f"  alpha={alpha}: sample Var(B(32)) = {endpoints.var(ddof=1):8.2f}  "
          f"target = {target:8.2f}")

# --- spectrum shape -----------------------------------------------------------
print("\ncirculant spectra (embedding length m, eigenvalue range):")
for alpha in (0.5, 1.0, 1.5):
    spec = circulant_spectrum(alpha, 256)
    print(f"  alpha={alpha}: m={spec.m}, eigenvalues in "
          f"[{spec.eigenvalues.min():.4f}, {spec.eigenvalues.max():.4f}]")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4.5))
    for alpha, path in paths.items():
        t = np.arange(-steps, steps + 1) * delta
        ax.plot(t, path, lw=0.8, label=f"alpha = {alpha}")
    ax.set_xlabel("t")
    ax.set_ylabel("B(t)")
    ax.legend()
    ax.set_title("Two-sided fBM paths (one stationary increment stream each)")
    fig.tight_layout()
    fig.savefig("fbm_paths.png", dpi=120)
    print("\nwrote fbm_paths.png")
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
