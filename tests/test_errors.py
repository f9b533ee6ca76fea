import pickle

import pytest

from lgrpool import errors
from lgrpool.cli import _run_jobs
from lgrpool.errors import LgrPoolError, ShapeMismatch


def all_error_classes():
    found, stack = [], [LgrPoolError]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def test_every_library_error_survives_pickling():
    classes = all_error_classes()
    assert {ShapeMismatch, errors.NonFinite, errors.ParseError} <= set(classes)
    for cls in classes:
        exc = cls("matmul", (2, 3), (4, 5)) if cls is ShapeMismatch else cls("boom")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert back.args == exc.args
    back = pickle.loads(pickle.dumps(ShapeMismatch("spmm", (3, 3), (2, 1))))
    assert back.shapes == ((3, 3), (2, 1))
    assert str(back) == "spmm: incompatible shapes (3, 3) and (2, 1)"


def raise_shape_mismatch(n):
    raise ShapeMismatch("worker", (n, 1), (1, n))


def test_shape_mismatch_crosses_a_process_pool():
    with pytest.raises(ShapeMismatch, match=r"worker: incompatible shapes \(2, 1\) and \(1, 2\)"):
        _run_jobs(raise_shape_mismatch, [(2,), (3,)], num_jobs=2)
