import dataclasses

import numpy as np
import pytest
from numpy.polynomial import legendre

from pitlab.collocation import (
    NumericFailure,
    build_Q,
    build_QDelta_EE,
    build_QDelta_LU,
    make_radau_table,
    radau_nodes,
)

# hand-derived values for the two-point rule on [0, 1]
Q2 = np.array([[5.0 / 12.0, -1.0 / 12.0], [3.0 / 4.0, 1.0 / 4.0]])
QD2_LU = np.array([[5.0 / 12.0, 0.0], [3.0 / 4.0, 2.0 / 5.0]])
M3_NODES = np.array([(4.0 - np.sqrt(6.0)) / 10.0, (4.0 + np.sqrt(6.0)) / 10.0, 1.0])


class TestRadauNodes:
    def test_single_node_is_right_endpoint(self):
        assert radau_nodes(1) == pytest.approx([1.0])

    def test_two_nodes(self):
        assert radau_nodes(2) == pytest.approx([1.0 / 3.0, 1.0], abs=1e-14)

    def test_three_nodes_match_radau_polynomial_roots(self):
        # interior points are the roots of 5x^2 + 2x - 1 mapped to [0, 1]
        assert radau_nodes(3) == pytest.approx(M3_NODES, abs=1e-13)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_strictly_increasing_and_right_anchored(self, m):
        nodes = radau_nodes(m)
        assert np.all(np.diff(nodes) > 0)
        assert nodes[-1] == 1.0

    @pytest.mark.parametrize("m", range(2, 41))
    def test_interior_nodes_are_roots_of_the_radau_polynomial(self, m):
        # one Newton step |r/r'| on r = P_{m-1} - P_m from each interior
        # node, mapped to [-1, 1], must not move it
        r = np.zeros(m + 1)
        r[m - 1], r[m] = 1.0, -1.0
        x = 2.0 * radau_nodes(m)[:-1] - 1.0
        correction = np.abs(legendre.legval(x, r) / legendre.legval(x, legendre.legder(r)))
        assert correction.max() <= 1e-14

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            radau_nodes(0)


class TestBuildQ:
    def test_hand_integrated_two_point_matrix(self):
        q = build_Q(radau_nodes(2))
        assert np.abs(q - Q2).max() <= 1e-13

    def test_single_node_backward_euler_weight(self):
        assert np.abs(build_Q(np.array([1.0])) - np.array([[1.0]])).max() <= 1e-15

    @pytest.mark.parametrize("m", range(1, 65))
    def test_quadrature_exactness(self, m):
        # row m integrates every monomial of degree < m over [0, c_m]
        tab = make_radau_table(m)
        for k in range(m):
            lhs = tab.q @ tab.nodes**k
            rhs = tab.nodes ** (k + 1) / (k + 1)
            assert np.abs(lhs - rhs).max() <= 1e-14, k

    @pytest.mark.parametrize("m", range(1, 65))
    def test_last_row_is_exact_to_radau_degree(self, m):
        # an m-point Radau rule integrates every monomial of degree <= 2m-2 over [0, 1]
        tab = make_radau_table(m)
        for k in range(2 * m - 1):
            assert abs(tab.q[-1] @ tab.nodes**k - 1.0 / (k + 1)) <= 1e-14, k

    def test_quadrature_point_on_a_node(self):
        # the two Gauss-Legendre points on [0, 1] plus 1: the last row's
        # quadrature points are these nodes bit for bit
        off = 1.0 / np.sqrt(3.0)
        points = np.linalg.eigh(np.diag(np.zeros(2)) + np.diag([off], 1) + np.diag([off], -1))[0]
        nodes = np.append(0.5 * (points + 1.0), 1.0)
        q = build_Q(nodes)
        for k in range(3):
            assert np.abs(q @ nodes**k - nodes ** (k + 1) / (k + 1)).max() <= 1e-14, k

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_Q(np.array([0.5, 0.5, 1.0]))


class TestQDeltaLU:
    def test_hand_two_by_two(self):
        assert np.abs(build_QDelta_LU(Q2) - QD2_LU).max() <= 1e-13

    def test_identity_fixed_point(self):
        assert np.array_equal(build_QDelta_LU(np.eye(4)), np.eye(4))

    @pytest.mark.parametrize("m", range(2, 10))
    def test_reconstruction_and_positive_diagonal(self, m):
        q = make_radau_table(m).q
        u_t = build_QDelta_LU(q)
        assert np.abs(np.triu(u_t, 1)).max() == 0.0  # lower triangular result
        assert np.all(np.diag(u_t) > 0)
        # rebuild L = Q^T U^{-1} and check unit diagonal and L U = Q^T
        lower = np.linalg.solve(u_t, q).T
        assert np.abs(np.tril(lower, -1) + np.eye(m) - lower).max() <= 1e-10
        assert np.abs(lower @ u_t.T - q.T).max() <= 1e-13 * max(1.0, np.abs(q).max())

    def test_zero_pivot_reported(self):
        with pytest.raises(NumericFailure, match="pivot at index 0"):
            build_QDelta_LU(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestQDeltaEE:
    def test_two_point_spacing(self):
        qde = build_QDelta_EE(radau_nodes(2))
        assert np.abs(qde - np.array([[0.0, 0.0], [2.0 / 3.0, 0.0]])).max() <= 1e-14

    def test_single_node(self):
        assert np.array_equal(build_QDelta_EE(np.array([1.0])), [[0.0]])

    @pytest.mark.parametrize("m", range(1, 8))
    def test_strictly_lower_triangular(self, m):
        qde = build_QDelta_EE(radau_nodes(m))
        assert np.abs(np.triu(qde)).max() == 0.0


class TestTable:
    def test_backward_euler_variant_is_lower_triangular(self):
        tab = make_radau_table(3, implicit="be")
        assert np.abs(np.triu(tab.qd_imp, 1)).max() == 0.0
        assert np.all(np.diag(tab.qd_imp) > 0)

    def test_unknown_preconditioner(self):
        with pytest.raises(ValueError):
            make_radau_table(3, implicit="nope")


def unit_blocks(tab):
    """The table's unit-interval blocks in scaled()'s order, one list entry per array or number."""
    return [tab.q_prev, tab.q_pair, *tab.qd_cols, *tab.qd_diag]


def scaled_blocks(tab, dt):
    blocks = tab.scaled(dt)
    return [blocks.q_prev, blocks.q_pair, *blocks.qd_cols, *blocks.qd_diag]


class TestScaledBlocks:
    @pytest.mark.parametrize("implicit", ["lu", "be"])
    @pytest.mark.parametrize("dt", [0.1, 2.5e-4])
    def test_each_block_is_dt_times_its_unit_block_bit_for_bit(self, implicit, dt):
        tab = make_radau_table(4, implicit=implicit)
        scaled, unit = scaled_blocks(tab, dt), unit_blocks(tab)
        assert len(scaled) == len(unit) == 2 + 2 * tab.m
        for got, block in zip(scaled, unit):
            assert np.array_equal(got, dt * block)
        assert all(type(d) is float for d in tab.scaled(dt).qd_diag)

    @pytest.mark.parametrize("implicit", ["lu", "be"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_column_blocks_hold_each_nodes_entries_below_the_diagonal(self, m, implicit):
        tab = make_radau_table(m, implicit=implicit)
        assert len(tab.qd_cols) == m
        for j, cols in enumerate(tab.qd_cols):
            assert cols.shape == (m - j - 1, 2)
            assert np.array_equal(cols[:, 0], tab.qd_imp[j + 1:, j])
            assert np.array_equal(cols[:, 1], tab.qd_exp[j + 1:, j])

    def test_formed_once_per_step_size(self):
        tab = make_radau_table(3)
        assert tab.scaled(0.1) is tab.scaled(0.1)
        assert tab.scaled(0.2) is not tab.scaled(0.1)
        assert np.array_equal(tab.scaled(0.1).q_pair, 0.1 * tab.q_pair)

    def test_replace_derives_the_blocks_from_the_new_matrices(self):
        lu = make_radau_table(3)
        lu.scaled(0.1)  # fill the memo of the original table first
        ee = dataclasses.replace(lu, qd_imp=lu.qd_exp)
        for got, block in zip(scaled_blocks(ee, 0.1), unit_blocks(ee)):
            assert np.array_equal(got, 0.1 * block)
        assert ee.scaled(0.1).qd_diag == (0.0, 0.0, 0.0)
        assert not np.array_equal(ee.scaled(0.1).q_prev, lu.scaled(0.1).q_prev)

    def test_blocks_are_read_only(self):
        blocks = make_radau_table(3).scaled(0.1)
        for array in (blocks.q_prev, blocks.q_pair, *blocks.qd_cols):
            with pytest.raises(ValueError):
                array[...] = 0.0
        with pytest.raises(TypeError):
            blocks.qd_diag[0] = 0.0
