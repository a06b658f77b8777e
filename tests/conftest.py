"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.energy.environment import EnergyEnvironment
from repro.nvm.memory import NonVolatileMemory
from repro.sim.device import Device
from repro.taskgraph.builder import AppBuilder


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.c from the current C code "
             "generator, and tests/goldens/runtime_faults.txt from the "
             "current runtimes, instead of comparing against them",
    )


@pytest.fixture
def nvm() -> NonVolatileMemory:
    return NonVolatileMemory()


@pytest.fixture
def continuous_device() -> Device:
    return Device(EnergyEnvironment.continuous())


@pytest.fixture
def two_task_app():
    """Minimal app: sense -> send on one path."""
    return (
        AppBuilder("mini")
        .task("sense", body=lambda ctx: ctx.write("x", ctx.sample("adc")))
        .task("send", body=lambda ctx: ctx.append("sent", ctx.read("x")))
        .path(1, ["sense", "send"])
        .sensor("adc", lambda t: 21.5)
        .build()
    )


@pytest.fixture
def health_app():
    from repro.workloads.health import build_health_app

    return build_health_app()
