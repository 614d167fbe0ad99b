import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trainsim.config import load_device, load_network, load_plan  # noqa: E402


@pytest.fixture(scope="session")
def zcu102():
    return load_device("zcu102")


@pytest.fixture(scope="session")
def alexnet():
    return load_network("alexnet_conv")


@pytest.fixture(scope="session")
def alexnet_plan():
    return load_plan("alexnet_conv_zcu102")


@pytest.fixture(scope="session")
def cifar_small():
    return load_network("cifar6")

