"""A primitive with a deliberately wrong derivative, for the checker's failure path."""
from lgrpool import autodiff as ad


def sigmoid_wrong_derivative(a):
    """ad.sigmoid whose backward drops the (1 - out) factor."""
    out = ad.sigmoid(a)
    out._parents = [(a, lambda g, y=out.data: g * y)]
    return out
