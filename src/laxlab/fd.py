"""Central finite differences with one Richardson extrapolation.

The tests' reference only: the exact jets of the library are checked
against it, and no library function calls it.
"""

_STENCILS = {
    1: {1.0: 0.5, -1.0: -0.5},
    2: {1.0: 1.0, 0.0: -2.0, -1.0: 1.0},
    3: {2.0: 0.5, 1.0: -1.0, -1.0: 1.0, -2.0: -0.5},
    4: {2.0: 1.0, 1.0: -4.0, 0.0: 6.0, -1.0: -4.0, -2.0: 1.0},
}


def central_diff(g, order, h, richardson=True, levels=1):
    """Order-th derivative of g at 0 via central differences.

    The plain stencil has O(h^2) error; each Richardson level (halving h
    and eliminating the leading error term) gains two orders.
    """

    def stencil(step):
        total = 0.0
        for offset, coeff in _STENCILS[order].items():
            total += coeff * g(offset * step)
        return total / step ** order

    if not richardson:
        levels = 0
    row = [stencil(h / 2.0 ** i) for i in range(levels + 1)]
    for j in range(1, levels + 1):
        factor = 4.0 ** j
        row = [
            (factor * row[i + 1] - row[i]) / (factor - 1.0)
            for i in range(len(row) - 1)
        ]
    return row[0]
