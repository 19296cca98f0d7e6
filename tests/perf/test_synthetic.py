"""Phase 2 over the synthetic region corpora: the inferred regions are
pinned, and the object adapters reproduce the columnar path exactly."""

import pytest

from synthetic_inference import SHAPES, build_shape, infer_digest


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request):
    return request.param, build_shape(request.param)


def test_columnar_inference_digest_is_pinned(shape):
    name, (plan, corpus, followups) = shape
    assert infer_digest(plan, corpus, followups) == SHAPES[name][1]


def test_object_adapters_match_the_columnar_path(shape):
    name, (plan, corpus, followups) = shape
    assert infer_digest(plan, corpus, followups, columnar=False) == SHAPES[name][1]

