"""Similarity metrics between sparse models and the error-bound proxy.

Mask similarity comes in three flavours over two masks of common length N:

    intersection / N        (kept-entry overlap over everything)
    union / N               (kept-entry cover over everything)
    intersection / union    (Jaccard on kept entries)

They satisfy exactly: iou * uom == iom, iom <= uom, and all lie in [0, 1].
The weight-distribution distance is a per-layer Gaussian KL over the masked
weight values (zeros included), summed across layers -- zero iff the fitted
moments coincide, which makes a model against itself exactly 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import GradientSet, MaskedModel

VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class MaskPair:
    mask_u: np.ndarray
    mask_r: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.mask_u, dtype=np.float64).ravel()
        r = np.asarray(self.mask_r, dtype=np.float64).ravel()
        if u.shape != r.shape:
            raise InputError(
                f"mask lengths disagree: {u.shape} vs {r.shape}"
            )
        for name, m in (("mask_u", u), ("mask_r", r)):
            if not np.all((m == 0.0) | (m == 1.0)):
                raise InputError(f"{name} entries must be 0 or 1")
        object.__setattr__(self, "mask_u", u)
        object.__setattr__(self, "mask_r", r)

    @property
    def n(self) -> int:
        return self.mask_u.size


def iom(pair: MaskPair) -> float:
    """Intersection of kept entries over the total parameter count."""
    return float((pair.mask_u * pair.mask_r).sum() / pair.n)


def uom(pair: MaskPair) -> float:
    """Union of kept entries over the total parameter count."""
    union = pair.mask_u + pair.mask_r - pair.mask_u * pair.mask_r
    return float(union.sum() / pair.n)


def iou(pair: MaskPair) -> float:
    """Jaccard similarity of kept entries; NaN when both masks are all-zero."""
    inter = float((pair.mask_u * pair.mask_r).sum())
    union = float((pair.mask_u + pair.mask_r - pair.mask_u * pair.mask_r).sum())
    if union == 0.0:
        return float("nan")
    return inter / union


def _gaussian_kl(mu_p, var_p, mu_q, var_q) -> float:
    return float(
        0.5 * np.log(var_q / var_p)
        + (var_p + (mu_p - mu_q) ** 2) / (2.0 * var_q)
        - 0.5
    )


def kl_masked_weights(model_u: MaskedModel, model_r: MaskedModel) -> float:
    """Distribution distance KL(P(M_u * W_u) || P(M_r * W_r)), summed per layer.

    Fits a Gaussian to each layer's masked weight values (zeros included).
    Zero reference variance is floored at 1e-12 and flagged with a warning.
    """
    if model_u.dims != model_r.dims:
        raise InputError("models must share an architecture")
    total = 0.0
    for wu, mu_, wr, mr_ in zip(
        model_u.weights, model_u.masks, model_r.weights, model_r.masks
    ):
        vu = (wu * mu_).ravel()
        vr = (wr * mr_).ravel()
        var_u = float(vu.var())
        var_r = float(vr.var())
        if var_u < VARIANCE_FLOOR or var_r < VARIANCE_FLOOR:
            warnings.warn(
                "kl_masked_weights: variance floored at 1e-12 for a "
                "degenerate layer distribution",
                stacklevel=2,
            )
            var_u = max(var_u, VARIANCE_FLOOR)
            var_r = max(var_r, VARIANCE_FLOOR)
        total += _gaussian_kl(float(vu.mean()), var_u, float(vr.mean()), var_r)
    return total


@dataclass(frozen=True)
class BoundProxyReport:
    rate: float                 # unlearning rate eta
    steps: int                  # unlearning iterations t
    masked_weight_norm: float   # l2 norm of mask * weights
    lambda_hat: float           # max(max diagonal Fisher entry, 1)

    @property
    def value(self) -> float:
        return self.rate ** 2 * self.steps * self.masked_weight_norm * self.lambda_hat


def bound_proxy(
    model: MaskedModel, rate: float, steps: int, fisher: GradientSet
) -> BoundProxyReport:
    """Diagnostic proxy for the un-pruning error bound: eta^2 t |M*W|_2 lambda.

    The Hessian's largest singular value is approximated by the largest
    diagonal empirical Fisher entry, floored at 1.
    """
    if steps < 0:
        raise InputError(f"steps must be >= 0, got {steps}")
    norm = float(
        np.sqrt(sum(((w * m) ** 2).sum() for w, m in zip(model.weights, model.masks)))
    )
    peak = 0.0
    for arr in list(fisher.weights) + list(fisher.biases):
        if arr.size:
            peak = max(peak, float(arr.max()))
    return BoundProxyReport(
        rate=float(rate),
        steps=int(steps),
        masked_weight_norm=norm,
        lambda_hat=max(peak, 1.0),
    )
