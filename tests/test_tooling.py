"""The benchmark's tracer hooks minvec by name; every name must resolve."""

import importlib
import importlib.util

from conftest import REPO


def load_traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_traced", REPO / "perfbench" / "traced.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    traced = load_traced()
    assert traced.HOOKS
    missing = []
    for name, (mod_name, path) in traced.HOOKS.items():
        owner = importlib.import_module(f"minvec.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
