"""The contract of the library's seven value types.

Every type is immutable, equal by its fields (hashable too, except
``FiniteVolumeMeasure``, which holds a dict), survives a pickle round trip
(grid sweeps ship them between processes) and takes keyword arguments.
The checks run in field order, and no copying path (``_make``,
``_replace``) gets round them.
"""

import math
import pickle

import pytest

from wand_gibbs.chain import SpectralReport, TransitionMatrix, spectrum, transition_matrix
from wand_gibbs.model import BoundaryLaw, ModelParams
from wand_gibbs.oracle import FiniteCayleyTree, FiniteVolumeMeasure, finite_volume_measure
from wand_gibbs.solver import TisgmSet, solve_symmetric, tisgm_set


def _law():
    return BoundaryLaw(2.0, 0.5, 1e-15)


def _matrix():
    return transition_matrix(_law(), 0.7)


def _tree():
    return FiniteCayleyTree(2, 1)


#: each type: its class, a builder of a fresh instance and its field names
CASES = {
    "ModelParams": (ModelParams, lambda: ModelParams(3, 0.5), ("k", "theta")),
    "BoundaryLaw": (BoundaryLaw, _law, ("z1", "z2", "residual")),
    "TisgmSet": (TisgmSet, lambda: tisgm_set(ModelParams(3, 0.5)),
                 ("params", "symmetric", "asymmetric", "theta_cr")),
    "TransitionMatrix": (TransitionMatrix, _matrix, ("entries",)),
    "SpectralReport": (SpectralReport, lambda: spectrum(_matrix(), 3),
                       ("s1", "s2", "s3", "lambda2", "ks_value")),
    "FiniteCayleyTree": (FiniteCayleyTree, _tree, ("k", "depth", "full_root")),
    "FiniteVolumeMeasure": (FiniteVolumeMeasure, lambda: finite_volume_measure(_tree(), 0.7, _law()),
                            ("probabilities", "log_partition")),
}


def _build(name):
    return CASES[name][1]()


def _fields(name, value) -> dict:
    return {field: getattr(value, field) for field in CASES[name][2]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_assignment_raises_attribute_error(name):
    value = _build(name)
    for field in CASES[name][2]:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@pytest.mark.parametrize("name", sorted(set(CASES) - {"FiniteVolumeMeasure"}))
def test_equal_fields_give_equal_objects_and_hashes(name):
    first, second = _build(name), _build(name)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


def test_finite_volume_measure_equal_but_unhashable():
    first, second = _build("FiniteVolumeMeasure"), _build("FiniteVolumeMeasure")
    assert first == second
    with pytest.raises(TypeError):
        hash(first)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_round_trip(name):
    value = _build(name)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is CASES[name][0]
    assert copy == value


@pytest.mark.parametrize("name", sorted(CASES))
def test_keyword_construction(name):
    value = _build(name)
    assert CASES[name][0](**_fields(name, value)) == value


def test_field_order_and_default():
    assert _fields("ModelParams", ModelParams(k=3, theta=0.5)) == {"k": 3, "theta": 0.5}
    law = BoundaryLaw(2, 3)
    assert (law.z1, law.z2, law.residual) == (2.0, 3.0, math.inf)
    assert isinstance(law.z1, float)


def test_model_params_checks_k_before_theta():
    with pytest.raises(ValueError, match="tree order k"):
        ModelParams(1, -1)
    with pytest.raises(ValueError, match="activity theta"):
        ModelParams(2, -1)


def test_validation_messages():
    with pytest.raises(ValueError, match="boundary law components must be positive"):
        BoundaryLaw(-1.0, 1.0)
    with pytest.raises(ValueError, match="residual must be nonnegative"):
        BoundaryLaw(1.0, 1.0, math.nan)
    with pytest.raises(ValueError, match="transition matrix must be 3x3"):
        TransitionMatrix(((1.0,),))


def test_properties_and_methods():
    law = _law()
    assert not law.symmetric and law.certified()
    assert law.swapped() == BoundaryLaw(0.5, 2.0, 1e-15)
    solutions = tisgm_set(ModelParams(3, 0.5))
    assert solutions.count == 3
    assert solutions.laws == (solutions.symmetric,) + solutions.asymmetric
    assert solutions.symmetric == solve_symmetric(ModelParams(3, 0.5))
    tree = _tree()
    assert (tree.size, tree.parents, list(tree.boundary())) == (3, (-1, 0, 0), [1, 2])


def test_replace_and_make_validate():
    law = _law()
    with pytest.raises(ValueError, match="boundary law components"):
        law._replace(z1=-1.0)
    with pytest.raises(ValueError, match="activity theta"):
        ModelParams(3, 0.5)._replace(theta=0.0)
    with pytest.raises(ValueError, match="tree order k"):
        ModelParams._make((1, -1))
    with pytest.raises(ValueError, match="zero pattern"):
        TransitionMatrix._make((((0.5, 0.0, 0.5), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)),))
    assert law._replace(residual=0.0) == BoundaryLaw(2.0, 0.5, 0.0)
    assert type(ModelParams._make([3, 2])) is ModelParams
    assert ModelParams._make([3, 2]).theta == 2.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_instances_are_tuples_of_their_fields(name):
    value = _build(name)
    fields = tuple(_fields(name, value).values())
    assert len(value) == len(fields)
    assert tuple(value) == fields
    assert value == fields
    assert value[0] is fields[0]
