"""Tests for the package namespace: each public name is declared once, in the
module that defines it, and ``smaup`` exports exactly those names."""

import types

import smaup
from smaup import core, critical_values, errors, experiments, regionalize, sar, stats, weights

API_MODULES = (core, critical_values, errors, experiments, regionalize, sar, stats, weights)


def test_all_is_every_api_modules_all():
    expected = ["__version__", *(name for module in API_MODULES for name in module.__all__)]
    assert smaup.__all__ == expected
    assert len(expected) == len(set(expected)) == 69


def test_each_name_is_its_defining_modules_object():
    for module in API_MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(smaup, name) is obj, name
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == module.__name__, name
