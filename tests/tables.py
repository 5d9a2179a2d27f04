"""Equality of count tables, for tests: the tables themselves define
none, as the program never compares two."""


def same_table(x, y) -> bool:
    """Whether two count tables hold the same spec, depth, cells, level
    sizes and row caps; the column function is not compared."""
    return ((x.spec, x.n_max, x.cols, x.a, x.caps)
            == (y.spec, y.n_max, y.cols, y.a, y.caps))
