"""Linear operators given by their columns, shared by both sides.

Like `exact`, this module holds no mathematics of either side.  An operator
is given by its columns (a function `fn` on basis vectors, or a subclass's
`_column`); it is applied to any vector by summing its cached columns,
scaled by the vector's coefficients.  A vector type supplies the rest:

    v.terms                 dict from basis term to nonzero coefficient
    v.basis_vector(term)    the basis vector of `term`, in the space of v
    v.sum_scaled(pairs)     the sum of col * coeff over the (col, coeff)
                            pairs, in the key order of the type's own `+`

`fock.FockVector` and `wreath.WreathClassFunction` are the two vector types,
so each side keeps its own vectors and its own formulas.
"""

from __future__ import annotations


class LinearOperator:
    """Linear operator determined by `fn` on basis vectors.

    Each column, `fn` of one basis vector, is computed once and cached by its
    term, so repeated use inside commutators costs one evaluation per term.
    Combined operators are plain `LinearOperator`s and cache their own columns.
    """

    def __init__(self, fn):
        self.fn = fn
        self._columns: dict = {}

    def _column(self, v, term):
        """The column of `term` for the space of `v`, computed afresh."""
        return self.fn(v.basis_vector(term))

    def column(self, v, term):
        """The column of `term`, from the cache or computed for the space of
        `v` and cached."""
        col = self._columns.get(term)
        if col is None:
            col = self._columns[term] = self._column(v, term)
        return col

    def apply(self, v):
        column = self.column
        return v.sum_scaled([(column(v, term), coeff) for term, coeff in v.terms.items()])

    def __call__(self, v):
        return self.apply(v)

    def __add__(self, other):
        return LinearOperator(lambda v: self.apply(v) + other.apply(v))

    def __sub__(self, other):
        return LinearOperator(lambda v: self.apply(v) - other.apply(v))

    def scale(self, s):
        return LinearOperator(lambda v: self.apply(v).scale(s))

    def compose(self, other):
        return LinearOperator(lambda v: self.apply(other.apply(v)))

    def commutator(self, other):
        return LinearOperator(lambda v: self.apply(other.apply(v)) - other.apply(self.apply(v)))
