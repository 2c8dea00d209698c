"""Weighted random sampling without replacement (Efraimidis-Spirakis).

Drawing a sample of size s from items with weights w_i is done by giving
each item the key ``u_i ** (1/w_i)`` (u_i uniform in (0,1)) and keeping
the s largest keys [13].  We work with ``log(u_i) / w_i`` — a monotone
transform — which is vectorizable and immune to underflow when weights
have doubled many times.
"""

from __future__ import annotations

import numpy as np


def weighted_sample_indices(
    weights: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a weight-proportional sample without replacement."""
    n = len(weights)
    if size >= n:
        return np.arange(n)
    u = rng.random(n)
    # Guard against u == 0 (log would be -inf for every weight equally).
    np.clip(u, np.finfo(float).tiny, None, out=u)
    keys = np.log(u) / weights
    # Largest keys win; argpartition gives them unordered, which is fine.
    idx = np.argpartition(keys, n - size)[n - size:]
    return np.sort(idx)


class WeightState:
    """Multiset-as-weights bookkeeping for the Clarkson loop.

    Weights start at 1 and double whenever a constraint is violated on a
    lucky iteration, logically duplicating it in the multiset.  Stored as
    base-2 exponents to survive thousands of doublings.
    """

    def __init__(self, n: int):
        self.exponents = np.zeros(n, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def weights(self) -> np.ndarray:
        """Weights normalized by the max (relative weights are all the
        sampler and the lucky test need)."""
        shift = self.exponents.max() if len(self.exponents) else 0.0
        return np.exp2(self.exponents - shift)

    def double(self, indices: np.ndarray) -> None:
        """Logically duplicate the given constraints in the multiset."""
        self.exponents[indices] += 1.0

    def split_weight(self, violated: np.ndarray) -> tuple[float, float]:
        """(sum of violated weights, sum of satisfied weights), both
        normalized by the same factor."""
        w = self.weights
        wv = float(w[violated].sum()) if len(violated) else 0.0
        return wv, float(w.sum()) - wv

