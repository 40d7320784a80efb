import sys

import pytest

from cliffspin import Multivector, multivector


@pytest.fixture
def validated_constructions(monkeypatch):
    """The arguments of every Multivector.__init__ call from here on."""
    calls = []
    init = Multivector.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Multivector, "__init__", counting_init)
    return calls


@pytest.fixture
def geometric_products(monkeypatch):
    """The operands of every geometric_product call from here on, in every
    cliffspin module that imported it."""
    calls = []
    product = multivector.geometric_product

    def counting_product(a, b):
        calls.append((a, b))
        return product(a, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cliffspin" and getattr(module, "geometric_product", None) is product:
            monkeypatch.setattr(module, "geometric_product", counting_product)
    return calls


@pytest.fixture
def fresh_forms(monkeypatch):
    """An empty compiled-form cache in place of the shared one, returned, so
    that no pair budget spent by other tests sends a product past its form."""
    cache = multivector._FormCache()
    monkeypatch.setattr(multivector, "_FORMS", cache)
    return cache
