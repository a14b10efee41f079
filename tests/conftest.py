import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole test run (local mode, 4 CPUs)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def executed_ops(monkeypatch):
    """Names of the physical operators of every dataset execution."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    names, orig = [], StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        stack = [dag]
        while stack:
            op = stack.pop()
            names.append(op.name)
            stack.extend(op.input_dependencies)
        return orig(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return names
