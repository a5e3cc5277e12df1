import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(params=["local", "distributed"])
def executor(request, monkeypatch):
    """Run the test's replays and lake reads under one executor: the single
    cutoff ``LOCAL_INPUT_BYTES`` is raised so every epoch and read runs in
    the driver, or zeroed so every one runs distributed, whatever its
    size."""
    from dataxray.state import manifest

    monkeypatch.setattr(manifest, "LOCAL_INPUT_BYTES",
                        1 << 40 if request.param == "local" else 0)
    return request.param


@pytest.fixture
def distributed(monkeypatch):
    """Pin replays and reads to the distributed executor for tests whose
    inputs are small but which exercise the task fan-out shapes."""
    from dataxray.state import manifest

    monkeypatch.setattr(manifest, "LOCAL_INPUT_BYTES", 0)
