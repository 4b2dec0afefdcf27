from quadorbit.curves import CURVES, KNOWN_X, integral_points, x_values


def test_point_lists_at_moderate_height():
    assert x_values("E184", 10 ** 4) == (0, 1, 4)
    assert x_values("E92", 10 ** 4) == (-1, 0, 1, 3, 5, 56)
    assert x_values("G2", 10 ** 4) == (-2, -1, 0, 1)
    assert x_values("H3", 10 ** 4) == (-1, 0)


def test_point_coordinates():
    pts = {p.x: p.y for p in integral_points("E184", 10)}
    assert pts == {0: 1, 1: 1, 4: 7}
    pts92 = {p.x: p.y for p in integral_points("E92", 60)}
    assert pts92 == {-1: 1, 0: 1, 1: 1, 3: 5, 5: 11, 56: 419}
    ptsg2 = {p.x: p.y for p in integral_points("G2", 3)}
    assert ptsg2 == {-2: 19, -1: 1, 0: 1, 1: 1}
    ptsh3 = {p.x: p.y for p in integral_points("H3", 3)}
    assert ptsh3 == {-1: 0, 0: 1}


def test_sign_twin_curves():
    # the plus/minus sextic pair swap under x -> -x
    plus = {p.x for p in integral_points("HYP6PLUS", 100)}
    minus = {p.x for p in integral_points("HYP6MINUS", 100)}
    assert minus == {-x for x in plus}
    assert CURVES["HYP6MINUS"] == CURVES["G2"]


def test_check_known_points():
    for cid in KNOWN_X:
        assert x_values(cid, 2000) == KNOWN_X[cid]
