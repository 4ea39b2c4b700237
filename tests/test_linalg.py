from tmfkit.linalg import coefficient_matrix, rank
from tmfkit.scalars import ZERO, Scalar


def n(k):
    return Scalar.from_int(k)


def test_coefficient_matrix_first_seen_rows():
    columns = [{"y": n(2), "x": n(1)}, {"z": n(3), "x": n(4)}]
    # rows y, x, z: the order in which the coordinates first occur
    assert coefficient_matrix(columns) == [
        [n(2), ZERO],
        [n(1), n(4)],
        [ZERO, n(3)],
    ]


def test_coefficient_matrix_absent_coordinates_are_zero():
    rows = coefficient_matrix([{(0, (1, 0)): n(5)}, {(1, (0, 1)): n(7)}, {}])
    assert rows == [[n(5), ZERO, ZERO], [ZERO, n(7), ZERO]]
    assert rank(rows) == 2


def test_coefficient_matrix_empty_inputs():
    assert coefficient_matrix([]) == []
    assert coefficient_matrix([{}, {}]) == []
    assert rank(coefficient_matrix([{}, {}])) == 0
