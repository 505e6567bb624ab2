import pytest

from rqlsim import build_kogge_stone


@pytest.fixture(scope="session")
def adder8():
    """Default 8-bit netlist: carry-out, one idle phase, fanout limit 4."""
    return build_kogge_stone(8)


@pytest.fixture(scope="session")
def adder8_chip():
    return build_kogge_stone(8, chip_mode=True)
