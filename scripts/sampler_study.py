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

import numpy as np

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.verification import (
    _family_p,
    _family_q,
    _random_pd,
    cov_coords_from_operator,
    stream_rng,
)


def worst_z(coords, th_mean, th_cov):
    se = coords.std(axis=0, ddof=1) / np.sqrt(coords.shape[0])
    z_mean = np.max(np.abs(coords.mean(axis=0) - th_mean) / se)
    batches = np.array_split(coords, 50)
    covs = np.stack([np.atleast_2d(np.cov(b, rowvar=False)) for b in batches])
    se_cov = covs.std(axis=0, ddof=1) / np.sqrt(50)
    z_cov = np.max(np.abs(covs.mean(axis=0) - th_cov) / se_cov)
    return z_mean, z_cov


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--draws", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    n = args.n
    rng = stream_rng(args.seed)

    print(f"chain size n = {n}, {args.draws} draws per experiment\n")
    print("recursive sampler on the dual cone:")
    print(f"{'pivot':>6}  {'mean |z|':>9}  {'cov |z|':>8}  {'round-trip err':>14}")
    for m in range(1, n + 1):
        w = _family_q(rng, n, m)
        coords = wq.sample_many(w, stream_rng(args.seed, 10 + m), args.draws)
        zm, zc = worst_z(
            coords, wq.mean(w).coords(), cov_coords_from_operator(wq.covariance_matrix(w), n)
        )
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
    y = _random_pd(rng, n)
    w = wq.WishartQ(sigma_sets, y)
    coords = wq.sample_quadratic_many(sigma, m_piv, y, stream_rng(args.seed, 30), args.draws)
    zm, zc = worst_z(
        coords, wq.mean(w).coords(), cov_coords_from_operator(wq.covariance_matrix(w), n)
    )
    print(f"sigma = {sigma.tolist()} at pivot {m_piv}: mean |z| = {zm:.2f}, cov |z| = {zc:.2f}")

    print("\nconcentration-cone sampler:")
    print(f"{'pivot':>6}  {'mean |z|':>9}  {'cov |z|':>8}")
    for m in range(1, n + 1):
        w = _family_p(rng, n, m)
        coords = wp.sample_p_many(w, stream_rng(args.seed, 40 + m), args.draws)
        zm, zc = worst_z(
            coords, wp.mean_p(w).coords(), cov_coords_from_operator(wp.covariance_p_matrix(w), n)
        )
        print(f"{m:>6}  {zm:>9.2f}  {zc:>8.2f}")


if __name__ == "__main__":
    main()
