import pytest

from cliffspin import Multivector


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
