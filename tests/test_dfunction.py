"""Tests for D-functions, including the Lemma 1 distributivity property."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DFunction, SetOp
from repro.core.dfunction import DExpression, intersect, subtract, term, union
from repro.exceptions import QueryError


class TestSetOp:
    def test_apply(self):
        a, b = {1, 2, 3}, {2, 3, 4}
        assert SetOp.UNION.apply(a, b) == {1, 2, 3, 4}
        assert SetOp.INTERSECT.apply(a, b) == {2, 3}
        assert SetOp.SUBTRACT.apply(a, b) == {1}

    def test_symbols(self):
        assert SetOp.UNION.symbol == "∪"
        assert SetOp.INTERSECT.symbol == "∩"
        assert SetOp.SUBTRACT.symbol == "−"


class TestDFunctionChain:
    def test_left_associative_evaluation(self):
        # X0 − X1 ∪ X2 must parse as (X0 − X1) ∪ X2.
        f = DFunction((SetOp.SUBTRACT, SetOp.UNION))
        result = f.evaluate([{1, 2}, {2}, {3}])
        assert result == {1, 3}

    def test_paper_example4(self):
        """Example 4: F = X1 ∩ X2 over U = {A..E} evaluated directly."""
        f = DFunction((SetOp.INTERSECT,))
        x1 = {0, 1, 2, 3}  # {A, B, C, D}
        x2 = {1, 2, 3, 4}  # {B, C, D, E}
        assert f.evaluate([x1, x2]) == {1, 2, 3}

    def test_arity_checked(self):
        f = DFunction((SetOp.UNION,))
        with pytest.raises(QueryError):
            f.evaluate([{1}])
        with pytest.raises(QueryError):
            f.evaluate([{1}, {2}, {3}])

    def test_all_intersect_factory(self):
        f = DFunction.all_intersect(3)
        assert f.ops == (SetOp.INTERSECT, SetOp.INTERSECT)
        with pytest.raises(QueryError):
            DFunction.all_intersect(0)

    def test_single_term_identity(self):
        f = DFunction(())
        assert f.evaluate([{5, 6}]) == {5, 6}

    def test_chain_compiles_to_equivalent_tree(self):
        ops = (SetOp.SUBTRACT, SetOp.INTERSECT, SetOp.UNION)
        f = DFunction(ops)
        sets = [{1, 2, 3}, {2}, {1, 3, 4}, {9}]
        assert f.to_expression().evaluate(sets) == f.evaluate(sets)

    def test_str(self):
        f = DFunction((SetOp.INTERSECT, SetOp.SUBTRACT))
        assert str(f) == "X0 ∩ X1 − X2"


class TestDExpressionTree:
    def test_leaf_validation(self):
        with pytest.raises(QueryError):
            DExpression(index=-1)
        with pytest.raises(QueryError):
            DExpression(op=SetOp.UNION, left=term(0))  # missing right child

    def test_operator_sugar(self):
        expr = (term(0) & term(1)) - term(2) | term(3)
        sets = [{1, 2}, {1, 2, 3}, {2}, {7}]
        assert expr.evaluate(sets) == {1, 7}

    def test_parenthesised_tree_differs_from_chain(self):
        # X0 ∩ (X1 ∪ X2) is not expressible as a flat chain.
        expr = intersect(term(0), union(term(1), term(2)))
        sets = [{1, 2, 3}, {1}, {3}]
        assert expr.evaluate(sets) == {1, 3}
        chain = DFunction((SetOp.INTERSECT, SetOp.UNION)).evaluate(sets)
        assert chain == {1, 3} or chain != expr.evaluate(sets)  # documents the shape

    def test_arity_and_referenced_terms(self):
        expr = subtract(term(4), term(1))
        assert expr.arity() == 5
        assert expr.referenced_terms() == {1, 4}

    def test_missing_coverage_raises(self):
        with pytest.raises(QueryError):
            term(3).evaluate([set()])

    def test_str_rendering(self):
        expr = (term(0) | term(1)) & term(2)
        assert str(expr) == "((X0 ∪ X1) ∩ X2)"


def random_expression(rng: random.Random, arity: int, depth: int = 0) -> DExpression:
    if depth >= 3 or rng.random() < 0.35:
        return term(rng.randrange(arity))
    op = rng.choice([SetOp.UNION, SetOp.INTERSECT, SetOp.SUBTRACT])
    return DExpression(
        op=op,
        left=random_expression(rng, arity, depth + 1),
        right=random_expression(rng, arity, depth + 1),
    )


class TestLemma1Distributivity:
    """F(X₁,…,Xₜ) == ⋃ᵢ F(X₁ ∩ Uᵢ, …, Xₜ ∩ Uᵢ) for node-disjoint Uᵢ."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        universe=st.integers(4, 40),
        num_fragments=st.integers(1, 6),
        arity=st.integers(1, 6),
    )
    def test_chain_distributes(self, seed, universe, num_fragments, arity):
        rng = random.Random(seed)
        ops = tuple(
            rng.choice([SetOp.UNION, SetOp.INTERSECT, SetOp.SUBTRACT])
            for _ in range(arity - 1)
        )
        f = DFunction(ops)
        sets = [
            {x for x in range(universe) if rng.random() < 0.4} for _ in range(arity)
        ]
        assignment = [rng.randrange(num_fragments) for _ in range(universe)]
        fragments = [
            {x for x in range(universe) if assignment[x] == i}
            for i in range(num_fragments)
        ]
        direct = f.evaluate(sets)
        distributed: set[int] = set()
        for frag in fragments:
            distributed |= f.evaluate([s & frag for s in sets])
        assert distributed == direct

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        universe=st.integers(4, 40),
        num_fragments=st.integers(1, 6),
        arity=st.integers(1, 5),
    )
    def test_tree_distributes(self, seed, universe, num_fragments, arity):
        """The §5.4 generalisation: arbitrary trees distribute too."""
        rng = random.Random(seed)
        expr = random_expression(rng, arity)
        sets = [
            {x for x in range(universe) if rng.random() < 0.4} for _ in range(arity)
        ]
        assignment = [rng.randrange(num_fragments) for _ in range(universe)]
        fragments = [
            {x for x in range(universe) if assignment[x] == i}
            for i in range(num_fragments)
        ]
        direct = expr.evaluate(sets)
        distributed: set[int] = set()
        for frag in fragments:
            distributed |= expr.evaluate([s & frag for s in sets])
        assert distributed == direct


def to_mask(nodes: set[int]) -> int:
    """The kernel's mask layout: one byte per dense id, 1 = member."""
    return sum(1 << (8 * node) for node in nodes)


def from_mask(mask: int, universe: int) -> set[int]:
    return {i for i, byte in enumerate(mask.to_bytes(universe, "little")) if byte}


def nested_subtract_expression(rng: random.Random, arity: int, depth: int = 0) -> DExpression:
    """Random trees biased towards SUBTRACT under SUBTRACT (``a − (b − c)``)."""
    if depth >= 4 or rng.random() < 0.25:
        return term(rng.randrange(arity))
    op = rng.choice([SetOp.SUBTRACT, SetOp.SUBTRACT, SetOp.UNION, SetOp.INTERSECT])
    return DExpression(
        op=op,
        left=nested_subtract_expression(rng, arity, depth + 1),
        right=nested_subtract_expression(rng, arity, depth + 1),
    )


class TestMaskEvaluator:
    """``evaluate_masks`` is ``evaluate`` on another representation."""

    def test_apply_mask(self):
        a, b = to_mask({1, 2, 3}), to_mask({2, 3, 4})
        assert SetOp.UNION.apply_mask(a, b) == to_mask({1, 2, 3, 4})
        assert SetOp.INTERSECT.apply_mask(a, b) == to_mask({2, 3})
        assert SetOp.SUBTRACT.apply_mask(a, b) == to_mask({1})
        assert SetOp.SUBTRACT.apply_mask(0, b) == 0  # never negative

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        universe=st.integers(1, 48),
        arity=st.integers(1, 6),
    )
    def test_tree_masks_match_sets(self, seed, universe, arity):
        rng = random.Random(seed)
        expr = nested_subtract_expression(rng, arity)
        sets = [{x for x in range(universe) if rng.random() < 0.5} for _ in range(arity)]
        mask = expr.evaluate_masks([to_mask(s) for s in sets])
        assert mask >= 0
        assert from_mask(mask, universe) == expr.evaluate(sets)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), universe=st.integers(1, 32), arity=st.integers(1, 6))
    def test_chain_masks_match_sets(self, seed, universe, arity):
        rng = random.Random(seed)
        f = DFunction(tuple(rng.choice(list(SetOp)) for _ in range(arity - 1)))
        sets = [{x for x in range(universe) if rng.random() < 0.5} for _ in range(arity)]
        assert from_mask(f.evaluate_masks([to_mask(s) for s in sets]), universe) == f.evaluate(sets)

    def test_same_arity_checks_as_the_set_evaluator(self):
        with pytest.raises(QueryError):
            term(3).evaluate_masks([0])
        with pytest.raises(QueryError):
            subtract(term(0), term(2)).evaluate_masks([1, 1])
        f = DFunction((SetOp.UNION,))
        with pytest.raises(QueryError):
            f.evaluate_masks([1])
        with pytest.raises(QueryError):
            f.evaluate_masks([1, 1, 1])

    def test_set_evaluator_neither_copies_nor_aliases_operands(self):
        """Operands are left untouched and the result is a fresh set."""
        sets = [{1, 2}, frozenset({2, 3})]
        for expr in (term(0), term(1), union(term(0), term(1)), subtract(term(1), term(0))):
            result = expr.evaluate(sets)
            assert type(result) is set
            result.add(99)
            assert sets == [{1, 2}, frozenset({2, 3})]
        assert type(DFunction(()).evaluate([frozenset({5})])) is set
