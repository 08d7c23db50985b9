"""The benchmark tracer wraps library functions by name; a renamed function
would leave its target unbound, and only a traced benchmark run would say so.
The tracer is loaded by file path: it imports only the standard library and
NumPy."""

import importlib
import importlib.util

import pytest

from conftest import REPO


def load_tracer():
    spec = importlib.util.spec_from_file_location("trace_targets", REPO / "perfbench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_every_tracer_target_is_bound(module_name, attr):
    home = importlib.import_module("advshare." + module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[method])
    else:
        assert callable(getattr(home, attr))


def test_the_names_the_tracer_tests_read_are_bound():
    # The benchmark's own tests check that the tracer patches and restores
    # these two bindings, made by ``from ... import``.
    from advshare import cli, clifford, pauli, sim

    assert sim.apply_circuit_tensor is clifford.apply_circuit_tensor
    assert cli.validate_stabilizer is pauli.validate_stabilizer
