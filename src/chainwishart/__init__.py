"""Wishart exponential families on the cones of chain graphical models.

Exact densities, Laplace transforms, mean/inverse-mean/variance maps, higher
moments and exact samplers for the natural exponential families generated by
multi-shape power functions on the concentration cone ``P`` and its dual
``Q`` of a nearest-neighbour-interaction Gaussian model, together with a
Monte-Carlo and brute-force verification harness and a CLI.
"""

__version__ = "0.1.0"
