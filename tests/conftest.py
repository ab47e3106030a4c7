import pytest
from hypothesis import strategies as st

from duorth import DiffOperator, ParamSampler, Polynomial, Rational, two_orth


def rationals(max_num: int = 30, max_den: int = 12):
    return st.builds(
        Rational,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def polynomials(max_degree: int = 8):
    return st.lists(rationals(), min_size=0, max_size=max_degree + 1).map(Polynomial)


@st.composite
def operators(draw, max_order: int = 5):
    """Normal-form DiffOperator([a_0, .., a_r]) with deg a_nu <= nu and
    r <= max_order; r = -1 gives the zero operator."""
    r = draw(st.integers(min_value=-1, max_value=max_order))
    return DiffOperator([draw(polynomials(nu)) for nu in range(r + 1)])


@pytest.fixture
def sampler():
    return ParamSampler(20240817)


@pytest.fixture
def corrupt_structure_row(monkeypatch):
    """corrupt(k) adds 1 to chi_{k,k-2}, the gamma_{k-1} of
    x P_k = P_{k+1} + .. + gamma_{k-1} P_{k-2}, in the structure rows that
    the fit and dual_sequence read (two_orth.structure_row); the stored
    rows are left as they are."""
    def corrupt(k):
        row_of = two_orth.structure_row

        def perturbed(P, n):
            row = row_of(P, n)
            if n != k:
                return row
            return tuple((j, c + 1 if j == k - 2 else c) for j, c in row)
        monkeypatch.setattr(two_orth, "structure_row", perturbed)
    return corrupt
