"""Tests for the execution backends (the runtime's substrate layer)."""

import os
import pickle
import threading
import time

import pytest

from repro.bb.block import BasicBlock
from repro.models.base import CachedCostModel, CallableCostModel
from repro.models.mca import PortPressureCostModel
from repro.runtime.backend import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    resolve_backend,
)
from repro.service.scheduler import Scheduler
from repro.utils.errors import BackendError


def _square(x):
    return x * x


def _wait_for_path(path):
    """Worker task: wait (up to 30 s) until ``path`` exists."""
    deadline = time.monotonic() + 30
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture
def blocks():
    return [
        BasicBlock.from_text("add rcx, rax\nmov rdx, rcx"),
        BasicBlock.from_text("xor edx, edx\ndiv rcx\nimul rax, rcx"),
        BasicBlock.from_text("pop rbx"),
        BasicBlock.from_text("mov ecx, edx\nlea rax, [rcx + rax - 1]"),
    ]


@pytest.fixture(params=["serial", "process"])
def backend(request):
    with resolve_backend(request.param, 2) as instance:
        yield instance


class TestMapBatch:
    def test_preserves_input_order(self, backend):
        assert backend.map_batch(_square, list(range(20))) == [
            x * x for x in range(20)
        ]

    def test_empty_batch(self, backend):
        assert backend.map_batch(_square, []) == []

    def test_predict_blocks_matches_serial(self, backend, blocks):
        model = PortPressureCostModel("hsw")
        expected = [model._predict(block) for block in blocks]
        assert backend.predict_blocks(model, blocks) == expected


class TestLifecycle:
    @pytest.mark.parametrize("name", available_backends())
    def test_close_is_idempotent(self, name):
        backend = resolve_backend(name, 2)
        backend.close()
        backend.close()
        assert backend.closed

    @pytest.mark.parametrize("name", available_backends())
    def test_use_after_close_rejected(self, name):
        backend = resolve_backend(name, 2)
        backend.close()
        with pytest.raises(BackendError):
            backend.map_batch(_square, [1, 2])

    def test_context_manager_closes(self):
        with ProcessBackend(2) as backend:
            backend.map_batch(_square, [1, 2, 3])
        assert backend.closed

    def test_process_pool_released_on_close(self, blocks):
        backend = ProcessBackend(2)
        model = PortPressureCostModel("hsw")
        backend.predict_blocks(model, blocks)
        assert backend._pool is not None
        backend.close()
        assert backend._pool is None


class TestIntrospection:
    def test_worker_counts(self):
        assert SerialBackend().workers == 1
        assert ProcessBackend(2).workers == 2

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, workers):
        # Neither the machine default nor one worker: an impossible count
        # is an error, as every other out-of-range setting is.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            ProcessBackend(workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            resolve_backend("process", workers)

    def test_describe_names_the_backend(self):
        assert "process" in ProcessBackend(2).describe()
        assert "workers=2" in ProcessBackend(2).describe()

    def test_names(self):
        assert SerialBackend().name == "serial"
        assert ProcessBackend(1).name == "process"


class TestResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process", 2), ProcessBackend)

    def test_available_backends(self):
        assert available_backends() == ("serial", "process")

    @pytest.mark.parametrize("name", ["thread", "threads"])
    def test_thread_names_rejected(self, name):
        for workers in (None, 2):
            with pytest.raises(BackendError, match=r"\('serial', 'process'\)"):
                resolve_backend(name, workers)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_instance_with_workers_rejected(self):
        with pytest.raises(BackendError):
            resolve_backend(SerialBackend(), workers=4)

    def test_unknown_name_rejected(self):
        with pytest.raises(BackendError, match="unknown execution backend"):
            resolve_backend("quantum")

    def test_default_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_process_workers_default_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        assert ProcessBackend().workers == 3
        assert resolve_backend("process").workers == 3


class TestProcessBackendModelValidation:
    def test_lambda_model_rejected_with_clear_error(self):
        model = CallableCostModel(lambda b: 1.0, name="toy-lambda")
        backend = ProcessBackend(2)
        with pytest.raises(BackendError, match="not picklable") as excinfo:
            backend.prepare_model(model)
        message = str(excinfo.value)
        assert "toy-lambda" in message
        assert "use the serial backend" in message

    def test_rejection_happens_at_install_time(self):
        model = CallableCostModel(lambda b: 1.0)
        with pytest.raises(BackendError):
            model.set_backend(ProcessBackend(2))

    def test_picklable_models_accepted(self):
        ProcessBackend(2).prepare_model(PortPressureCostModel("hsw"))


class TestModelBackendIntegration:
    def test_owned_backend_closes_with_the_model(self):
        backend = ProcessBackend(2)
        model = PortPressureCostModel("hsw")
        model.set_backend(backend, own=True)
        assert model.execution_backend is backend
        model.close()
        assert backend.closed
        assert model.execution_backend is None

    def test_injected_backend_survives_model_close(self):
        backend = ProcessBackend(2)
        model = PortPressureCostModel("hsw")
        model.set_backend(backend)
        model.close()
        assert not backend.closed
        backend.close()

    def test_cached_model_delegates_backend_to_inner(self):
        backend = SerialBackend()
        cached = CachedCostModel(PortPressureCostModel("hsw"))
        cached.set_backend(backend)
        assert cached.inner.execution_backend is backend
        assert cached.execution_backend is backend

    def test_model_pickles_without_its_backend(self, blocks):
        model = PortPressureCostModel("hsw")
        with ProcessBackend(2) as backend:
            model.set_backend(backend)
            clone = pickle.loads(pickle.dumps(model))
        assert clone.execution_backend is None
        assert clone._predict(blocks[0]) == model._predict(blocks[0])

    def test_fanout_through_process_backend_matches_serial(self, blocks):
        serial = PortPressureCostModel("hsw")
        expected = serial.predict_batch(blocks)
        with ProcessBackend(2) as backend:
            model = PortPressureCostModel("hsw")
            model.set_backend(backend)
            assert model.predict_batch(blocks) == expected

    def test_process_backend_rebinds_when_the_model_changes(self, blocks):
        # One shared pool must never serve a stale worker-resident model.
        with ProcessBackend(2) as backend:
            light = PortPressureCostModel("hsw", dependency_weight=0.0)
            heavy = PortPressureCostModel("hsw", dependency_weight=1.0)
            assert backend.predict_blocks(light, blocks) == [
                light._predict(b) for b in blocks
            ]
            assert backend.predict_blocks(heavy, blocks) == [
                heavy._predict(b) for b in blocks
            ]

    def test_using_backend_is_a_borrow(self, blocks):
        model = PortPressureCostModel("hsw")
        configured = SerialBackend()
        model.set_backend(configured, own=True)
        with ProcessBackend(2) as temporary:
            with model.using_backend(temporary):
                assert model.execution_backend is temporary
                model.predict_batch(blocks)
            assert model.execution_backend is configured
        assert not configured.closed
        model.close()


class TestExecutionSlot:
    def test_process_batch_frees_the_slot(self, tmp_path):
        """A batch issued inside a scheduler execution frees the execution
        slot while the workers run: the workers wait for a file that only
        another key's execution creates, so without the release they time
        out instead."""
        path = tmp_path / "created-by-another-key"
        results = []
        with ProcessBackend(2) as backend:

            def execute(item):
                if item == "batch":
                    results.append(
                        backend.map_batch(_wait_for_path, [str(path)] * 2)
                    )
                else:
                    path.touch()

            scheduler = Scheduler(execute, dispatchers=2)
            try:
                scheduler.submit("batch-key", "batch")
                scheduler.submit("touch-key", "touch")
                assert scheduler.drain(timeout=60)
            finally:
                scheduler.close()
        assert results == [[True, True]]
