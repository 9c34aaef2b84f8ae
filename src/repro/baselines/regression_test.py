"""Alternate-test baseline: regress the parameter from the signature.

The paper cites alternate test ([10], [11]) and regression on Lissajous
signatures ([14]) as the neighbouring methodology: map easy-to-measure
indicators to circuit specifications by regression.  This module
implements that baseline on top of the digital signature so the
comparison benchmark can put the NDF band test side by side with a
regression-based verdict:

* features: the per-zone dwell-time vector of the signature over a
  fixed zone dictionary (plus the zone-visit count);
* model: ridge-regularized linear least squares (scipy), mapping
  features -> the parameter deviation;
* decision: |predicted deviation| <= tolerance.

The regression predicts *where* the parameter sits (diagnosis), which
the NDF alone does not; the NDF in exchange needs no training sweep
beyond one golden unit.  The benchmark quantifies both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.signature import Signature


def dwell_vector(signature: Signature,
                 dictionary: Sequence[int]) -> np.ndarray:
    """Per-zone dwell times (fractions of the period) over a dictionary.

    Zones absent from the signature contribute 0; dwell of codes not in
    the dictionary is accumulated in a trailing overflow slot so the
    vector always sums to 1.
    """
    index = {code: i for i, code in enumerate(dictionary)}
    out = np.zeros(len(dictionary) + 1)
    for entry in signature:
        slot = index.get(entry.code, len(dictionary))
        out[slot] += entry.duration
    return out / signature.period


@dataclass
class RegressionModel:
    """Fitted ridge regression from dwell features to deviation."""

    dictionary: Tuple[int, ...]
    weights: np.ndarray
    intercept: float
    training_residual_rms: float

    def features(self, signature: Signature) -> np.ndarray:
        """Feature vector of one signature."""
        dwell = dwell_vector(signature, self.dictionary)
        return np.concatenate([dwell, [len(signature) / 100.0]])

    def predict(self, signature: Signature) -> float:
        """Estimated parameter deviation for one signature."""
        return float(self.features(signature) @ self.weights
                     + self.intercept)


class RegressionTester:
    """Alternate-test flow: train on a sweep, predict deviations.

    Parameters
    ----------
    ridge:
        Tikhonov regularization weight; the dwell features are heavily
        collinear (they sum to one), so a small ridge keeps the solve
        stable.
    """

    def __init__(self, ridge: float = 1e-6) -> None:
        self.ridge = float(ridge)
        self.model: Optional[RegressionModel] = None

    # ------------------------------------------------------------------
    def fit(self, deviations: Sequence[float],
            signatures: Sequence[Signature]) -> RegressionModel:
        """Train the deviation regressor on (deviation, signature) pairs."""
        if len(deviations) != len(signatures):
            raise ValueError("need one deviation per signature")
        if len(deviations) < 4:
            raise ValueError("training sweep too small")
        dictionary = tuple(sorted(set().union(
            *(s.distinct_codes() for s in signatures))))
        rows = []
        for s in signatures:
            dwell = dwell_vector(s, dictionary)
            rows.append(np.concatenate([dwell, [len(s) / 100.0]]))
        phi = np.asarray(rows)
        y = np.asarray(deviations, dtype=float)
        # Center for a free intercept.
        phi_mean = phi.mean(axis=0)
        y_mean = float(y.mean())
        a = phi - phi_mean
        g = a.T @ a + self.ridge * np.eye(a.shape[1])
        from scipy import linalg as _linalg  # deferred: import cost

        w = _linalg.solve(g, a.T @ (y - y_mean), assume_a="pos")
        intercept = y_mean - float(phi_mean @ w)
        residuals = phi @ w + intercept - y
        model = RegressionModel(dictionary, w, intercept,
                                float(np.sqrt(np.mean(residuals ** 2))))
        self.model = model
        return model

    # ------------------------------------------------------------------
    def predict(self, signature: Signature) -> float:
        """Estimated deviation (requires a fitted model)."""
        if self.model is None:
            raise RuntimeError("call fit() first")
        return self.model.predict(signature)

    def decide(self, signature: Signature, tolerance: float) -> bool:
        """PASS when the predicted |deviation| is inside the tolerance."""
        return abs(self.predict(signature)) <= tolerance

    def prediction_errors(self, deviations: Sequence[float],
                          signatures: Sequence[Signature]) -> np.ndarray:
        """Out-of-sample prediction errors on a labelled set."""
        return np.asarray([self.predict(s) - d
                           for d, s in zip(deviations, signatures)])
