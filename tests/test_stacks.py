"""Stacked kernels: every entry of a stack equals the call on that entry alone, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwa.cascade import join_stack
from arcwa.errors import NumericalError
from arcwa.geometry import Polarization
from arcwa.modal import eigen_basis_stack
from arcwa.operators import assemble_stack
from arcwa.sections import first_order_stack

from conftest import assemble_operators, eigen_basis, random_join_pair, random_slice, uniform_spec_on


@st.composite
def section_stacks(draw):
    """A transverse period and 1-5 sections on [0, 1], each its slices at z = 0, the midpoint
    reference and 1, lossless and lossy mixed; lossy slices get Im(eps) in [1e-6, 1]."""
    period = draw(st.floats(0.5, 2.0))
    stack = []
    for _ in range(draw(st.integers(1, 5))):
        loss = st.floats(1e-6, 1.0) if draw(st.booleans()) else st.just(0.0)
        stack.append({z: draw(random_slice(period, loss, z)) for z in (0.0, 0.5, 1.0)})
    return period, stack


def assert_same(stacked, single, names):
    for name in names:
        assert np.array_equal(getattr(stacked, name), getattr(single, name)), name


@settings(max_examples=40, deadline=None)
@given(drawn=section_stacks(), order=st.integers(0, 25), polarization=st.sampled_from(Polarization))
def test_stacked_kernels_equal_single_calls_bit_for_bit(drawn, order, polarization):
    period, stack = drawn
    spec = uniform_spec_on(period, 2.25, polarization=polarization, order=order)
    slices = [slc for section in stack for slc in section.values()]
    ops = assemble_stack(slices, spec)[0]
    for slc, stacked in zip(slices, ops):
        assert_same(stacked, assemble_operators(slc, spec), ("P", "Q"))
        assert stacked.z == slc.z

    drawn_ops = iter(ops)
    section_ops = [{z: next(drawn_ops) for z in section} for section in stack]
    refs = [by_z[0.5] for by_z in section_ops]
    try:
        singles = [eigen_basis(ref) for ref in refs]
    except NumericalError:
        with pytest.raises(NumericalError):
            eigen_basis_stack(refs)
        return
    bases = eigen_basis_stack(refs)
    for stacked, single in zip(bases, singles):
        assert_same(stacked, single, ("W", "V", "lam", "W_inv", "V_inv"))
        assert stacked.basis_id == single.basis_id

    sections = [(0.0, 1.0, basis, by_z[0.5], (by_z[0.0], by_z[1.0])) for basis, by_z in zip(bases, section_ops)]
    for section, stacked in zip(sections, first_order_stack(sections)):
        (single,) = first_order_stack([section])
        assert_same(stacked.smat, single.smat, ("T_LR", "R_R", "R_L", "T_RL"))
        assert (stacked.smat.left_basis_id, stacked.smat.right_basis_id) == (
            single.smat.left_basis_id,
            single.smat.right_basis_id,
        )
        assert stacked.est_error == single.est_error


@pytest.mark.parametrize("n", [7, 21])
def test_stacked_joins_equal_single_joins_bit_for_bit(rng, n):
    pairs = [random_join_pair(rng, n) for _ in range(3)]
    for pair, stacked in zip(pairs, join_stack(pairs)):
        (single,) = join_stack([pair])
        assert_same(stacked, single, ("T_LR", "R_R", "R_L", "T_RL"))
        assert (stacked.left_basis_id, stacked.right_basis_id) == (single.left_basis_id, single.right_basis_id)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda: assemble_stack([], uniform_spec_on(1.0))[0],
        lambda: eigen_basis_stack([]),
        lambda: first_order_stack([]),
    ],
    ids=["assemble_stack", "eigen_basis_stack", "first_order_stack"],
)
def test_empty_stacks(kernel):
    assert kernel() == []
