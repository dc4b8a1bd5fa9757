"""D-functions: distributable set functions over keyword coverages (§3.1).

The paper defines a *D-function* as a left-associative chain
``F(X₁,…,Xₖ) = X₁ θ₁ … θₖ₋₁ Xₖ`` with ``θ ∈ {∪, ∩, −}`` and proves
(Lemma 1) that it distributes over node-disjoint fragments:

    F(X₁,…,Xₖ) = ⋃ᵢ F(X₁ ∩ Uᵢ, …, Xₖ ∩ Uᵢ)

The proof only uses that every operator satisfies
``(X θ Y) ∩ U = (X ∩ U) θ (Y ∩ U)``, which holds for all three — so the
distributivity extends verbatim from chains to *arbitrary expression
trees* over the same operators.  This module implements both:
:class:`DFunction` (the paper's chain) and :class:`DExpression`
(parenthesised trees, the §5.4 Q-class generalisation), with the chain
compiling into a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.exceptions import QueryError

__all__ = ["SetOp", "DFunction", "DExpression", "term", "union", "intersect", "subtract"]


class SetOp(Enum):
    """The three D-function operators ``{∪, ∩, −}``."""

    UNION = "union"
    INTERSECT = "intersect"
    SUBTRACT = "subtract"

    def apply(self, left: frozenset[int] | set[int], right: frozenset[int] | set[int]) -> set[int]:
        """Apply this operator to two node sets (neither is copied first)."""
        if self is SetOp.UNION:
            return left | right
        if self is SetOp.INTERSECT:
            return left & right
        return left - right

    def apply_mask(self, left: int, right: int) -> int:
        """Apply this operator to two dense-id bitmasks (Python ints)."""
        if self is SetOp.UNION:
            return left | right
        if self is SetOp.INTERSECT:
            return left & right
        return left & ~right

    @property
    def symbol(self) -> str:
        """Mathematical glyph, for display."""
        return {"union": "∪", "intersect": "∩", "subtract": "−"}[self.value]


@dataclass(frozen=True)
class DExpression:
    """A D-function expression tree.

    Leaves reference term indexes (``op is None``); internal nodes apply
    a :class:`SetOp` to two subtrees.  Build leaves with :func:`term` and
    combine with :func:`union` / :func:`intersect` / :func:`subtract` or
    the ``|``, ``&``, ``-`` operators.
    """

    op: SetOp | None = None
    index: int | None = None
    left: "DExpression | None" = None
    right: "DExpression | None" = None

    def __post_init__(self) -> None:
        if self.op is None:
            if self.index is None or self.index < 0 or self.left or self.right:
                raise QueryError("a leaf needs a non-negative term index and no children")
        else:
            if self.left is None or self.right is None or self.index is not None:
                raise QueryError("an operator node needs two children and no index")

    # Operator sugar ----------------------------------------------------
    def __or__(self, other: "DExpression") -> "DExpression":
        return DExpression(op=SetOp.UNION, left=self, right=other)

    def __and__(self, other: "DExpression") -> "DExpression":
        return DExpression(op=SetOp.INTERSECT, left=self, right=other)

    def __sub__(self, other: "DExpression") -> "DExpression":
        return DExpression(op=SetOp.SUBTRACT, left=self, right=other)

    # Introspection -----------------------------------------------------
    def arity(self) -> int:
        """1 + the largest term index referenced."""
        if self.op is None:
            assert self.index is not None
            return self.index + 1
        assert self.left is not None and self.right is not None
        return max(self.left.arity(), self.right.arity())

    def referenced_terms(self) -> set[int]:
        """All term indexes appearing in the tree."""
        if self.op is None:
            assert self.index is not None
            return {self.index}
        assert self.left is not None and self.right is not None
        return self.left.referenced_terms() | self.right.referenced_terms()

    def _fold(self, operands: Sequence, apply):
        if self.op is None:
            assert self.index is not None
            if self.index >= len(operands):
                raise QueryError(
                    f"expression references term {self.index} but only "
                    f"{len(operands)} coverages were supplied"
                )
            return operands[self.index]
        assert self.left is not None and self.right is not None
        return apply(self.op, self.left._fold(operands, apply), self.right._fold(operands, apply))

    def evaluate(self, coverages: Sequence[frozenset[int] | set[int]]) -> set[int]:
        """Evaluate the tree against per-term coverage sets.

        The reference evaluator: operands are read, never copied; only
        the result is, so it is a fresh ``set`` the caller may keep.
        """
        return set(self._fold(coverages, SetOp.apply))

    def evaluate_masks(self, masks: Sequence[int]) -> int:
        """Evaluate the tree against per-term dense-id bitmasks.

        Same tree walk and arity check as :meth:`evaluate`, with ``|``,
        ``&`` and ``& ~`` on Python ints in place of set algebra.
        """
        return self._fold(masks, SetOp.apply_mask)

    def __str__(self) -> str:
        if self.op is None:
            return f"X{self.index}"
        return f"({self.left} {self.op.symbol} {self.right})"


def term(index: int) -> DExpression:
    """Leaf expression referencing coverage term ``index``."""
    return DExpression(index=index)


def union(left: DExpression, right: DExpression) -> DExpression:
    """``left ∪ right``."""
    return DExpression(op=SetOp.UNION, left=left, right=right)


def intersect(left: DExpression, right: DExpression) -> DExpression:
    """``left ∩ right``."""
    return DExpression(op=SetOp.INTERSECT, left=left, right=right)


def subtract(left: DExpression, right: DExpression) -> DExpression:
    """``left − right``."""
    return DExpression(op=SetOp.SUBTRACT, left=left, right=right)


@dataclass(frozen=True)
class DFunction:
    """The paper's left-associative operator chain ``X₁ θ₁ … θₖ₋₁ Xₖ``."""

    ops: tuple[SetOp, ...]

    @property
    def arity(self) -> int:
        """Number of coverage sets the chain consumes."""
        return len(self.ops) + 1

    @classmethod
    def all_intersect(cls, arity: int) -> "DFunction":
        """The SGKQ chain: ``X₁ ∩ … ∩ Xₖ``."""
        if arity < 1:
            raise QueryError("a D-function needs at least one term")
        return cls(tuple([SetOp.INTERSECT] * (arity - 1)))

    def _check_arity(self, operands: Sequence) -> None:
        if len(operands) != self.arity:
            raise QueryError(
                f"D-function of arity {self.arity} applied to {len(operands)} sets"
            )

    def evaluate(self, coverages: Sequence[frozenset[int] | set[int]]) -> set[int]:
        """Left-associative evaluation over per-term coverage sets."""
        self._check_arity(coverages)
        result = coverages[0]
        for op, coverage in zip(self.ops, coverages[1:]):
            result = op.apply(result, coverage)
        return set(result)

    def evaluate_masks(self, masks: Sequence[int]) -> int:
        """Left-associative evaluation over per-term dense-id bitmasks."""
        self._check_arity(masks)
        return self.to_expression().evaluate_masks(masks)

    def to_expression(self) -> DExpression:
        """Compile the chain into an equivalent :class:`DExpression`."""
        expr = term(0)
        for i, op in enumerate(self.ops, start=1):
            expr = DExpression(op=op, left=expr, right=term(i))
        return expr

    def __str__(self) -> str:
        parts = ["X0"]
        for i, op in enumerate(self.ops, start=1):
            parts.append(op.symbol)
            parts.append(f"X{i}")
        return " ".join(parts)
