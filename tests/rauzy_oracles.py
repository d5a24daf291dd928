"""Reference implementations that the exact cocycle is tested against."""

from __future__ import annotations

from typing import Union

import numpy as np

from ietpwi.errors import RauzyUndefined
from ietpwi.iet import IETState
from ietpwi.rauzy import IntMatrix, rauzy_iterate, return_word


def matrix_to_float(matrix: Union[IntMatrix, np.ndarray]) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in matrix])


def visit_counts_bruteforce(iet: IETState, n: int) -> IntMatrix:
    """Count subinterval visits of each level-``n`` piece by direct orbits.

    Entry ``[a][b]`` counts the letters ``b`` in the return word of the
    level-``n`` piece ``a``: its visits to the original piece ``b`` before
    it returns to the shortened interval.  Independent of the matrix
    product path.
    """
    trace = rauzy_iterate(iet, n)
    if trace.error is not None:
        raise RauzyUndefined(f"induction undefined before step {n}")
    words = [return_word(trace, n, a) for a in range(iet.d)]
    return tuple(tuple(word.count(b) for b in range(iet.d)) for word in words)
