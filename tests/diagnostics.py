"""Reference diagnostics of the tests: the norms, the commutator ratio,
the dissipation residual and the enthalpy that the acceptance verdicts and
the limit tests measure, and that independent oracles (such as the
per-family formulas of the energy table) are written in.  No run of the
package calls them.

Edge fields follow the package's Fourier convention
``phi_hat_k = (1/2pi) * integral(phi * e^{-ikx})``, so the H^0 boundary
norm differs from the plain L^2 integral by 1/sqrt(2pi).
"""

from __future__ import annotations

import numpy as np

from stefansim.geometry import metric_bundle
from stefansim.mollifier import smooth_horizontal
from stefansim.numerics import (
    Grid,
    edge_squares,
    integrate_interior,
    mixed_squares,
    tangential_derivative,
)


def integrate_boundary(phi: np.ndarray, grid: Grid) -> float:
    """Integral over the periodic edge (rectangle rule, spectrally exact)."""
    return float(phi.sum(axis=-1) * grid.hx)


def boundary_norm(phi: np.ndarray, s: float) -> float:
    """H^s norm on the periodic edge via Fourier weights (1 + k^2)^s."""
    return float(np.sqrt(edge_squares(np.fft.rfft(phi), (s,))[0]))


def interior_norm(f: np.ndarray, grid: Grid, s: int) -> float:
    """H^s(strip) norm, integer s in 0..5, summing all mixed derivatives.

    y-derivatives above second order compose the first/second difference
    stencils, so accuracy degrades near the walls.
    """
    sq = mixed_squares(np.fft.rfft(f, axis=-2), grid, s)
    return float(np.sqrt(sum(sq.values())))


def commutator_defect(F: np.ndarray, G: np.ndarray, width: float) -> float:
    """Normalized layer-commutator size for the product rule with smoothing.

    Returns |L(F G') - F L(G')|_0 / (|F|_{W^{1,inf}} |G|_0) where L is the
    layer smoother; a uniform-in-width bound on this ratio is the content
    of the commutator estimate the energy method relies on.
    """
    g0 = boundary_norm(G, 0.0)
    if g0 == 0.0:
        return 0.0
    dG = tangential_derivative(G)
    inner = smooth_horizontal(F * dG, width) - F * smooth_horizontal(dG, width)
    w1inf = max(float(np.max(np.abs(F))),
                float(np.max(np.abs(tangential_derivative(F)))))
    if w1inf == 0.0:
        return 0.0
    return boundary_norm(inner, 0.0) / (w1inf * g0)


def dissipation_residual(traj) -> float:
    """Largest normalized defect of the energy dissipation law on a
    classical run (the law has no boundary production term there), over
    the per-step series of ``analysis.dissipation_defect`` that
    ``harness.simulate`` records."""
    return float(max(abs(d) for _, d in traj.dissipation))


def enthalpy(snap, sigma: float = 0.0) -> float:
    """E = integral of q J over the strip + integral of h over the edge, plus
    sigma times the interface length for the surface-tension law.

    Heat leaves the strip only through the interface and the front moves by
    that flux, so the classical and sigma laws conserve E up to the
    discretization error.  J is the Jacobian of the snapshot's map, rebuilt
    from its edge row; the edge integrals are exact means in x, with h_x
    spectral.
    """
    grid = snap.grid
    jac = metric_bundle(grid, snap.phi_edge).jac
    length = np.sqrt(1.0 + tangential_derivative(snap.h) ** 2)
    return (integrate_interior(snap.q * jac, grid)
            + 2.0 * np.pi * float(np.mean(snap.h + sigma * length)))
