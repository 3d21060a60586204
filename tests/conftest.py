import importlib
import pkgutil

import numpy as np
import pytest

import lpw
from lpw.grid import GridSpec
from lpw.lp import build_partition
from lpw.verify import verify_commutator, verify_paraproduct


# the numpy.fft entry points `grid` calls: the real pair for fields and the
# complex pair for symbol samples
TRANSFORMS = ("rfftn", "irfftn", "fftn", "ifftn")


@pytest.fixture(scope="session")
def grid2():
    return GridSpec(2, 64)


@pytest.fixture(scope="session")
def part2(grid2):
    return build_partition(grid2)


@pytest.fixture(scope="session")
def grid1():
    return GridSpec(1, 256)


@pytest.fixture(scope="session")
def part1(grid1):
    return build_partition(grid1)


@pytest.fixture(scope="session")
def paraproduct_run():
    """`verify_paraproduct()` at its defaults, run once for the whole suite:
    its report and the number of transforms it made."""
    transforms = []
    with pytest.MonkeyPatch.context() as mp:
        for name in TRANSFORMS:
            def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                transforms.append(1)
                return _fn(*args, **kwargs)
            mp.setattr(np.fft, name, counted)
        report = verify_paraproduct()
    return report, len(transforms)


@pytest.fixture(scope="session")
def commutator_report():
    """`verify_commutator()` at its defaults, run once for the whole suite."""
    return verify_commutator()


def _inline(transform, src, out):
    """`grid._soon` without the helper thread: the transform runs at once."""
    transform(src, out=out)
    return lambda: out


@pytest.fixture
def inline_transforms(monkeypatch):
    """A callable that, once called, makes every hand-off of a transform to
    the helper thread (`_soon`, in every `lpw` module that binds it) run
    inline until the test ends: the reference the helper's results equal bit
    for bit."""
    def install():
        for info in pkgutil.iter_modules(lpw.__path__, "lpw."):
            module = importlib.import_module(info.name)
            if hasattr(module, "_soon"):
                monkeypatch.setattr(module, "_soon", _inline)
    return install
