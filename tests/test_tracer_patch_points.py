"""The benchmark's tracer must find every name it patches in the package.

perfbench/tracer.py wraps module and class attributes of projdiff by
name; a rename or removal on the program side breaks `--trace 1` runs.
"""

import importlib.util
import os
import sys

import projdiff

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_patch_point():
    tracer = load_tracer().Tracer(projdiff)
    original = projdiff.sampler.position_project
    with tracer:
        assert tracer.absent == []
        assert projdiff.sampler.position_project is not original
    assert projdiff.sampler.position_project is original
