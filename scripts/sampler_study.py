#!/usr/bin/env python3
"""Empirical study of the exact samplers across pivots and shapes.

For a random natural parameter on a chain of a chosen size, draws from the
recursive sampler at every pivot and reports the worst mean/covariance
z-scores against the closed forms, then does the same for the quadratic
construction and for the concentration-cone sampler.  Also prints the
round-trip error of the generalized Lauritzen maps (inverse mean after mean).

    python3 scripts/sampler_study.py --n 4 --draws 100000 --seed 1
"""

import argparse
from functools import partial

import numpy as np

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.verification import (
    _CONES,
    _family,
    cov_coords_from_operator,
    mc_mean_cov,
    stream_rng,
)


def worst_z(draw, mean, cov, n_samples, seed):
    """Worst ``|z|`` of the coordinate means and of the covariances of ``verification.mc_mean_cov``."""
    reports = mc_mean_cov(draw, mean.coords(), cov_coords_from_operator(cov, mean.n), n_samples, seed)
    return [max(abs(r.z_score) for r in reports if f".{kind}[" in r.name) for kind in ("mean", "cov")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--draws", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    n = args.n
    rng = stream_rng(args.seed)
    seed = 1000 * args.seed  # experiment k draws from the stream of seed + k

    print(f"chain size n = {n}, {args.draws} draws per experiment\n")
    print("recursive sampler on the dual cone:")
    print(f"{'pivot':>6}  {'mean |z|':>9}  {'cov |z|':>8}  {'round-trip err':>14}")
    for m in range(1, n + 1):
        w = _family(wq, rng, n, m)
        draw = partial(wq.sample_many, w)
        zm, zc = worst_z(draw, wq.mean(w), wq.covariance_matrix(w), args.draws, seed + 10 + m)
        back = wq.inverse_mean(w.params, wq.mean(w))
        rt = np.max(np.abs(back.coords() - w.y.coords()))
        print(f"{m:>6}  {zm:>9.2f}  {zc:>8.2f}  {rt:>14.2e}")

    print("\nquadratic construction (integer multiplicities):")
    sigma = np.zeros(n, dtype=int)
    sigma[0] = 2
    sigma[-1] = 1
    sigma[n // 2] = 2
    m_piv = max(2, n // 2 + 1) if n > 1 else 1
    sigma_sets = wq.sigma_to_shape(sigma, m_piv)
    y = _CONES[wq].natural(rng, n)
    w = wq.WishartQ(sigma_sets, y)
    draw = partial(wq.sample_quadratic_many, sigma, m_piv, y)
    zm, zc = worst_z(draw, wq.mean(w), wq.covariance_matrix(w), args.draws, seed + 30)
    print(f"sigma = {sigma.tolist()} at pivot {m_piv}: mean |z| = {zm:.2f}, cov |z| = {zc:.2f}")

    print("\nconcentration-cone sampler:")
    print(f"{'pivot':>6}  {'mean |z|':>9}  {'cov |z|':>8}")
    for m in range(1, n + 1):
        w = _family(wp, rng, n, m)
        draw = partial(wp.sample_many, w)
        zm, zc = worst_z(draw, wp.mean(w), wp.covariance_matrix(w), args.draws, seed + 40 + m)
        print(f"{m:>6}  {zm:>9.2f}  {zc:>8.2f}")


if __name__ == "__main__":
    main()
