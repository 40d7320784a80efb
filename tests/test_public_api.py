"""Every parameter with a default on the public API, written out.

The public API is what cliffspin/__init__.py exports: its functions, and the
public methods (static and class methods included) that the exported classes
define in the package.  A parameter with a default is a setting a caller can
leave out, so adding one, or changing a default, means editing DEFAULTS
below."""

import inspect

import cliffspin

# qualified name -> {parameter: repr of its default}
DEFAULTS = {
    "Multivector.approx_eq": {"tol": "1e-12"},
    "Multivector.blade": {"coeff": "1.0"},
    "Multivector.from_mask": {"coeff": "1.0"},
    "both_gauge": {"pot": "None"},
    "dhe_residual": {"left_rotor": "None"},
    "find_primitive_idempotent": {"seed": "None"},
    "geometric_product": {"grades": "None"},
    "left_gauge": {"pot": "None"},
    "planewave_solution": {"sign": "1", "pot": "None"},
    "random_regular_spinor": {"frame": "None"},
}


def public_callables():
    """Qualified name -> function, for every exported function and every
    public method that an exported class or its package bases define."""
    out = {}
    for name, obj in vars(cliffspin).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if not inspect.isclass(obj):
            if callable(obj):
                out[name] = obj
            continue
        for klass in obj.__mro__:
            if not klass.__module__.startswith("cliffspin"):
                continue
            for attr, member in vars(klass).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.setdefault(f"{name}.{attr}", member)
    return out


def test_every_parameter_with_a_default_is_listed():
    found = {}
    for qualname, fn in public_callables().items():
        params = inspect.signature(fn).parameters.values()
        defaults = {p.name: repr(p.default) for p in params if p.default is not inspect.Parameter.empty}
        if defaults:
            found[qualname] = defaults
    assert found == DEFAULTS


def test_the_walk_reaches_functions_and_methods():
    names = public_callables()
    for qualname in ("is_spin_e", "column_of", "spin_dirac_apply", "random_rotor", "Multivector.prune"):
        assert qualname in names
