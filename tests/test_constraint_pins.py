"""Upper-bound forms and e-vectors of the constraint layer, pinned by digest.

Each pin is the sha256 of one line per value, integers written in hex.
The digests were recorded once, before the e-vector chain and the
denominator loops were restructured, and are never regenerated: a simpler
derivation must give the same denominators and coefficients.
"""

import hashlib

import pytest

from stickprob.constraints import e_vector, max_length_form

PS = range(2, 7)
MAX_N = 40
MAX_K = 60


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _ints(values) -> str:
    return ",".join(f"{v:x}" for v in values)


def max_forms_digest(model: str, p: int) -> str:
    """One line per (n, i): denominator, coefficients and constant of
    max_length_form(p, n, i, model) for n = p+1..40, i = 1..n-1.  No form
    has a constant term, so the constant is written as the literal 0/1 the
    pins were recorded with."""
    lines = []
    for n in range(p + 1, MAX_N + 1):
        for i in range(1, n):
            den, form = max_length_form(p, n, i, model)
            lines.append(f"{n} {i} {den:x} {_ints(form)} 0/1")
    return _sha(lines)


def e_vector_digest(p: int) -> str:
    """One line per k = 2-p..60: e_vector(p, k)."""
    return _sha(f"{k} {_ints(e_vector(p, k))}" for k in range(2 - p, MAX_K + 1))


# (model, p) -> max_forms_digest
MAX_FORM_PINS = {
    ('pickup', 2):
        "27a16b301d5e1fd9e837ab5b65f95a8b47e75f69691c15c3085dd33d3157f4be",
    ('pickup', 3):
        "26701d1840cbe7614b833af4ef628f97167c3913dc974a5ad08611b401a0cda1",
    ('pickup', 4):
        "81c39fb6a3a0ba53e06aa539b81662068863b182603a282705666ba158823e5c",
    ('pickup', 5):
        "9d4bd6aec3c6ae3ede2e3b78c9753979b79fb3bb772ffa065dc62618afc85f0e",
    ('pickup', 6):
        "61bee62ba1511fcdf43a079f58cd661ecaf12c5a663e9595690cd7a290724c79",
    ('broken', 2):
        "0b72154e9aa3b9b63e2b29cbeefcccf40054c68290bc5511bc82743351955069",
    ('broken', 3):
        "5f0a6b8cac71f1d3f1af9ff73c2f8cf00f234a7c8b30519c35a7abf85f146f1c",
    ('broken', 4):
        "7f60c3bd3bacf4d977c2e52a929ef198367e110115e2d03c6db96af57f4321e0",
    ('broken', 5):
        "dde42a249eb199c66403aa6eca7909c7e4ec4eb1e190c9b175b77a814ff7a8d2",
    ('broken', 6):
        "a43c01e436112fd0d011bc1ec59107989d5e0108961d4cc4530272297b305068",
}

# p -> e_vector_digest
E_VECTOR_PINS = {
    2:
        "00d10d253184d480b99e1a33071714f9ff51538d2b274807e2547ff69a714666",
    3:
        "5cb8ad6a046e970a100a43bb4d0722b800e344a6855f194d262428b62ba44771",
    4:
        "a8750e11f3285270aa79ad9b890fb2e2311ed35bdeec47ecb70b2a110788bc70",
    5:
        "2047319d9c8ca9f8f7093328c113b41d0c32defb734fa17cc6c5035ecef933cb",
    6:
        "ddc56302c1cf3c0e3b11d74100d9c381b6131652c036563b01cb3633831ad0f3",
}


@pytest.mark.parametrize(("model", "p"), list(MAX_FORM_PINS))
def test_max_length_forms(model, p):
    assert max_forms_digest(model, p) == MAX_FORM_PINS[model, p]


@pytest.mark.parametrize("p", list(E_VECTOR_PINS))
def test_e_vectors(p):
    assert e_vector_digest(p) == E_VECTOR_PINS[p]
